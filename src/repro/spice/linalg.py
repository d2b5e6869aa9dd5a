"""Pluggable linear-solver backends for the SPICE substrate.

The MNA and AC engines used to call ``np.linalg.solve`` inline, each
wrapping the call in its own copy of the numerical guards (fault
injection, singular-suspect naming, the once-per-analysis condition
estimate, factorization counters).  This module extracts that solve
path behind one :class:`LinearSolver` interface with three
implementations:

``dense``
    the reference: one LAPACK solve per system, exactly the seed
    semantics;
``batched``
    one vectorized complex LU over a whole frequency grid — the
    ``(n_points, n, n)`` tensor goes through a single stacked
    ``np.linalg.solve`` call instead of a Python loop.  On a singular
    point the stacked factorization cannot name the offending
    frequency, so the caller falls back to the dense per-point loop to
    reproduce the located error;
``sparse``
    ``scipy.sparse.linalg.splu``, worthwhile past a node-count
    threshold.  scipy is an *optional* dependency: when it is missing
    the backend resolves to ``dense`` (and a
    ``spice.linalg.sparse_unavailable`` counter records the fallback).
    scipy is imported on first sparse use, never at module import.

The guards live at this boundary, in :class:`AnalysisGuard`, instead of
being duplicated per call site: fault-injection row-zeroing, the
singular error message (both assembled by ``repro.robust.guards``
helpers), the once-per-analysis condition estimate, and the
factorization counters.  ``spice.mna.factorizations`` counts successful
factorizations only; failures land on
``spice.mna.factorization_failures``.

Backend selection: every analysis accepts an explicit ``linalg=``
preference; ``None`` defers to the process default (``"auto"`` unless
:func:`set_default_backend` / :func:`use_backend` changed it — the
override is thread-local, so concurrent serve jobs with different
preferences do not race).  ``auto`` picks ``sparse`` past
:data:`SPARSE_THRESHOLD` unknowns when scipy is present, ``batched``
for grid solves, and ``dense`` otherwise.  Results are
backend-identical (same matrices, same LAPACK family), which is why
the knob is excluded from every content fingerprint.
"""

from __future__ import annotations

import importlib.util
import threading
import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.diagnostics import SimulationError
from repro.instrument import metrics
from repro.robust.faultinject import fault_active
from repro.robust.guards import (
    ILL_CONDITION_THRESHOLD,
    NumericalWarning,
    condition_estimate,
    describe_singular_system,
    zero_first_unknown,
)

if TYPE_CHECKING:
    import numpy as np

#: every accepted backend preference (``auto`` resolves per analysis)
BACKENDS = ("auto", "dense", "batched", "sparse")

#: unknown count beyond which ``auto`` prefers the sparse backend
SPARSE_THRESHOLD = 64

#: scipy is optional: the sparse backend degrades to dense without it.
#: Decided by locating the package, not importing it — numpy and scipy
#: load only when numeric code first runs (see DESIGN.md, "Import
#: layering").
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


class LinearSolver:
    """One way of factorizing and solving the assembled MNA systems."""

    name = "abstract"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve one ``A x = b`` system (raises ``LinAlgError``)."""
        raise NotImplementedError

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``A_stack[i] x_i = b`` for every grid point.

        ``A_stack`` is ``(m, n, n)``, ``b`` is one shared ``(n,)``
        right-hand side; returns ``(m, n)``.  Raises ``LinAlgError``
        when *any* point is singular.
        """
        raise NotImplementedError


class DenseSolver(LinearSolver):
    """The reference backend: one LAPACK solve per system."""

    name = "dense"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.linalg.solve(A, b)

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np

        out = np.empty((A_stack.shape[0], b.shape[-1]), dtype=A_stack.dtype)
        for i in range(A_stack.shape[0]):
            out[i] = np.linalg.solve(A_stack[i], b)
        return out


class BatchedSolver(LinearSolver):
    """Stacked LU over the whole grid in one gufunc call."""

    name = "batched"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.linalg.solve(A, b)

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np

        # The shared RHS is broadcast to a stack of (n, 1) column
        # matrices: unambiguous under both numpy RHS-interpretation
        # rules (a 2-D b would be read as one matrix, not a stack).
        rhs = np.broadcast_to(
            b[:, np.newaxis], (A_stack.shape[0], b.shape[-1], 1)
        )
        return np.linalg.solve(A_stack, rhs)[..., 0]


class SparseSolver(LinearSolver):
    """``scipy.sparse.linalg.splu`` — pays off on large systems."""

    name = "sparse"

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        try:
            factored = splu(csc_matrix(A))
            return factored.solve(np.asarray(b, dtype=A.dtype))
        except (RuntimeError, ValueError) as err:
            # splu reports exact singularity as RuntimeError; normalize
            # onto the one exception type the guard boundary handles.
            raise np.linalg.LinAlgError(str(err)) from err

    def solve_grid(self, A_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np

        out = np.empty((A_stack.shape[0], b.shape[-1]), dtype=A_stack.dtype)
        for i in range(A_stack.shape[0]):
            out[i] = self.solve(A_stack[i], b)
        return out


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_default_backend = "auto"
_local = threading.local()


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown linalg backend {name!r}; choose from "
            f"{', '.join(BACKENDS)}"
        )
    return name


def default_backend() -> str:
    """The effective backend preference of this thread."""
    override = getattr(_local, "backend", None)
    return override if override is not None else _default_backend


def set_default_backend(name: str) -> str:
    """Set the process-wide preference; returns the previous one."""
    global _default_backend
    _validate(name)
    with _DEFAULT_LOCK:
        previous = _default_backend
        _default_backend = name
    return previous


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Thread-local backend preference for the duration of a run.

    ``None`` (or ``"auto"`` while the default is unchanged) is a no-op;
    nesting restores the previous override on exit.
    """
    if name is None:
        yield
        return
    _validate(name)
    previous = getattr(_local, "backend", None)
    _local.backend = name
    try:
        yield
    finally:
        _local.backend = previous


def _sparse_importable() -> bool:
    """Whether the sparse backend can run, importing scipy's sparse LU
    on the first call.  A scipy that is found but fails to import
    degrades exactly like a missing one: :data:`HAVE_SCIPY` turns false
    for the rest of the process."""
    global HAVE_SCIPY
    if HAVE_SCIPY:
        try:
            import scipy.sparse.linalg  # noqa: F401
        except ImportError:
            HAVE_SCIPY = False
    return HAVE_SCIPY


def resolve_backend(
    preference: Optional[str] = None, size: int = 0, grid: int = 1
) -> LinearSolver:
    """Pick the backend instance for one analysis.

    ``preference`` of ``None`` defers to :func:`default_backend`;
    ``auto`` selects sparse past :data:`SPARSE_THRESHOLD` unknowns
    (when scipy is importable), batched when the analysis solves a
    grid of systems, dense otherwise.  An explicit ``sparse`` request
    without scipy degrades gracefully to dense.
    """
    name = _validate(preference or default_backend())
    if name == "auto":
        if size >= SPARSE_THRESHOLD and _sparse_importable():
            return SparseSolver()
        if grid > 1:
            return BatchedSolver()
        return DenseSolver()
    if name == "sparse" and not _sparse_importable():
        metrics().inc("spice.linalg.sparse_unavailable")
        return DenseSolver()
    return {
        "dense": DenseSolver,
        "batched": BatchedSolver,
        "sparse": SparseSolver,
    }[name]()


# ---------------------------------------------------------------------------
# The guard boundary
# ---------------------------------------------------------------------------


class AnalysisGuard:
    """Per-analysis numerical-guard state, shared by every backend.

    Owns what the engines used to duplicate around each inline solve:
    the fault-injection site, the singular error (with suspect naming
    and a location clause), and the once-per-analysis condition
    estimate.  One guard instance spans one analysis (a DC solve, a
    transient, an AC sweep); :meth:`reset` rearms the condition check
    for the next analysis on the same solver.
    """

    def __init__(
        self,
        system: str,
        title: str,
        labels: Sequence[str],
        fault_site: str,
        condition_text: str,
    ):
        self.system = system
        self.title = title
        self.labels = labels
        self.fault_site = fault_site
        self.condition_text = condition_text
        self.condition_checked = False

    def reset(self) -> None:
        self.condition_checked = False

    def inject_fault(self, A: np.ndarray) -> np.ndarray:
        """Apply the armed fault (if any); works on grids too."""
        if fault_active(self.fault_site):
            return zero_first_unknown(A)
        return A

    def singular_error(
        self, A: np.ndarray, err: Exception, where: str = ""
    ) -> SimulationError:
        return SimulationError(
            describe_singular_system(
                self.system, A, self.labels, err, where=where
            )
        )

    def check_condition(self, A: np.ndarray) -> None:
        """Once per analysis: flag systems whose factorization succeeds
        but whose solution is numerically meaningless."""
        if self.condition_checked:
            return
        self.condition_checked = True
        cond = condition_estimate(A)
        if cond > ILL_CONDITION_THRESHOLD:
            warnings.warn(
                f"{self.system} system of {self.title!r} is "
                f"ill-conditioned (cond ~ {cond:.2e} > "
                f"{ILL_CONDITION_THRESHOLD:.0e}); {self.condition_text}",
                NumericalWarning,
                stacklevel=4,
            )


def guarded_solve(
    backend: LinearSolver,
    A: np.ndarray,
    b: np.ndarray,
    guard: AnalysisGuard,
    where: str = "",
) -> np.ndarray:
    """One guarded point solve: the engines' shared factorization path.

    Counts ``spice.mna.factorizations`` on success only (a failed
    factorization lands on ``spice.mna.factorization_failures``), then
    runs the guard's once-per-analysis condition estimate.
    """
    import numpy as np

    A = guard.inject_fault(A)
    registry = metrics()
    try:
        x = backend.solve(A, b)
    except np.linalg.LinAlgError as err:
        registry.inc("spice.mna.factorization_failures")
        raise guard.singular_error(A, err, where=where)
    registry.inc("spice.mna.factorizations")
    guard.check_condition(A)
    return x

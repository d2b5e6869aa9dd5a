"""The guarded linear solve of the SPICE substrate.

The MNA and AC engines factorize through one boundary instead of each
wrapping ``np.linalg.solve`` in its own copy of the numerical guards.
:class:`AnalysisGuard` owns fault-injection row-zeroing, the singular
error message (both assembled by ``repro.robust.guards`` helpers), and
the once-per-analysis condition estimate; :func:`guarded_solve` adds
the factorization counters around one dense LAPACK solve.
``spice.mna.factorizations`` counts successful factorizations only;
failures land on ``spice.mna.factorization_failures``.  The AC sweep
solves its whole frequency grid as one stacked ``np.linalg.solve``
through the same guard (see :meth:`repro.spice.ac.AcSolver._solve_grid`).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Sequence

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


class AnalysisGuard:
    """Per-analysis numerical-guard state.

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
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        registry.inc("spice.mna.factorization_failures")
        raise guard.singular_error(A, err, where=where)
    registry.inc("spice.mna.factorizations")
    guard.check_condition(A)
    return x

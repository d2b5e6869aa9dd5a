"""Numerical guards for the SPICE substrate.

Three failure classes the MNA/AC engines previously reported badly (or
not at all):

* **ill-conditioned systems** — the factorization succeeds but the
  solution is numerically meaningless; :func:`condition_estimate` plus
  :class:`NumericalWarning` surface it once per analysis;
* **singular systems** — ``numpy`` raises a bare ``LinAlgError`` that
  names nothing; :func:`singular_suspects` maps the near-null space of
  the assembled matrix back to circuit node / branch labels so the
  error names the part of the circuit that is floating or
  short-circuit-conflicted;
* **non-finite solutions** — NaN/Inf silently propagate through a
  waveform; :func:`check_finite` locates the first offending unknowns
  so the simulator can raise a located ``SimulationError`` instead.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

#: 1-norm condition estimate beyond which a solve is flagged.
ILL_CONDITION_THRESHOLD = 1e12


class NumericalWarning(UserWarning):
    """An analysis continued, but its numerics are suspect."""


def condition_estimate(matrix: np.ndarray) -> float:
    """Cheap 1-norm condition-number estimate of a square system.

    Returns ``inf`` for singular (or empty-pivot) systems.  Uses
    ``numpy``'s exact 1-norm condition number — the systems this flow
    assembles are small (tens of unknowns), so the O(n^3) inverse is
    noise next to the Newton iterations around it; callers should still
    estimate once per analysis, not once per step.
    """
    import numpy as np

    if matrix.size == 0:
        return 1.0
    try:
        return float(np.linalg.cond(matrix, 1))
    except np.linalg.LinAlgError:
        return math.inf


def singular_suspects(
    matrix: np.ndarray,
    labels: Sequence[str],
    max_suspects: int = 3,
    rel_threshold: float = 1e-9,
) -> List[str]:
    """Labels of the unknowns implicated in a singular system.

    The right-singular vectors belonging to (near-)zero singular values
    span the null space of the assembled matrix: the unknowns with the
    largest components in that space are exactly the node voltages /
    branch currents the equations fail to determine (floating nodes,
    conflicting ideal sources, redundant constraints).  Returns up to
    ``max_suspects`` labels, largest component first; empty when the
    matrix is not singular (or the SVD itself fails).
    """
    import numpy as np

    if matrix.size == 0:
        return []
    try:
        _u, sigma, vt = np.linalg.svd(matrix)
    except np.linalg.LinAlgError:
        return []
    scale = float(sigma[0]) if sigma.size and sigma[0] > 0 else 1.0
    null_rows = [
        vt[i]
        for i in range(len(sigma))
        if sigma[i] <= scale * rel_threshold
    ]
    # A rank-deficient rectangular tail (more unknowns than singular
    # values) is null space too.
    null_rows.extend(vt[len(sigma):])
    if not null_rows:
        return []
    weight = np.max(np.abs(np.asarray(null_rows)), axis=0)
    order = np.argsort(-weight)
    suspects: List[str] = []
    for index in order[: max(max_suspects, 1)]:
        if weight[index] <= rel_threshold:
            break
        if index < len(labels):
            suspects.append(labels[index])
    return suspects


def zero_first_unknown(matrix: np.ndarray) -> np.ndarray:
    """Fault-injection helper: disconnect the first unknown (on a copy).

    Zeroing the first row and column makes the system exactly singular,
    driving the real singular-matrix error path from tests.  Works on a
    single ``(n, n)`` system and on a stacked ``(m, n, n)`` grid alike,
    so the stacked AC sweep fails through the same code path as a
    single solve.
    """
    faulted = matrix.copy()
    if faulted.shape[-1]:
        faulted[..., 0, :] = 0.0
        faulted[..., :, 0] = 0.0
    return faulted


def describe_singular_system(
    system: str,
    matrix: np.ndarray,
    labels: Sequence[str],
    err: Exception,
    where: str = "",
) -> str:
    """The one singular-matrix message both engines raise.

    ``system`` is the analysis noun ("MNA", "AC"), ``where`` an optional
    location clause ('' / " at t=0.1 s" / " at 50.0 Hz").  The suspect
    unknowns come from :func:`singular_suspects`, so the error names the
    part of the circuit the equations fail to determine.
    """
    suspects = singular_suspects(matrix, labels)
    message = f"singular {system} matrix{where}: {err}"
    if suspects:
        message += (
            f"; suspect unknowns: {', '.join(suspects)} "
            "(floating node, or conflicting ideal sources?)"
        )
    return message


def check_finite(
    x: np.ndarray, labels: Sequence[str], max_named: int = 3
) -> Optional[List[str]]:
    """Labels of non-finite entries of a solution vector, or ``None``.

    ``None`` means every entry is finite (the fast path, one vectorized
    check).  Otherwise the first ``max_named`` offending labels are
    returned so the caller can raise a located error.
    """
    import numpy as np

    if np.isfinite(x).all():
        return None
    bad = np.nonzero(~np.isfinite(x))[0]
    named: List[str] = []
    for index in bad[:max_named]:
        named.append(labels[index] if index < len(labels) else f"#{index}")
    return named

"""Reference implementations the production kernels are checked against.

Each oracle is the straightforward version of a kernel that production
code runs a faster way, kept here (not in ``src/``) so a parity test or
a scaling benchmark can call it:

* :class:`PerPointAcSolver` — the AC sweep solved one frequency point
  at a time through :func:`~repro.spice.linalg.guarded_solve`, instead
  of one stacked LAPACK call over the whole grid;
* :class:`ReenumeratingMapper` — branch-and-bound that re-runs the
  pattern matcher at every decision node, instead of querying the
  incremental :class:`~repro.library.patterns.CandidateIndex`.
"""

from typing import List, Optional

import numpy as np

from repro.library.patterns import PatternMatch
from repro.spice.ac import AcResult, AcSolver
from repro.spice.linalg import AnalysisGuard, guarded_solve
from repro.synth.mapper import _SEQUENCING_KEYS, ArchitectureMapper
from repro.vhif.sfg import Block


class PerPointAcSolver(AcSolver):
    """An :class:`AcSolver` that factorizes each grid point on its own.

    Every point goes through the guarded point solve, so a singular
    point raises the located error of a single solve and each success
    lands on the factorization counter one at a time.
    """

    def _solve_grid(
        self,
        guard: AnalysisGuard,
        frequencies: np.ndarray,
        A_stack: np.ndarray,
        b: np.ndarray,
    ) -> np.ndarray:
        solutions = np.empty((len(frequencies), len(b)), dtype=complex)
        for i, f in enumerate(frequencies):
            solutions[i] = guarded_solve(
                A_stack[i], b, guard, where=f" at {f} Hz"
            )
        return solutions


def oracle_ac_sweep(
    circuit,
    f_start: float,
    f_stop: float,
    points_per_decade: int = 20,
    probes=None,
    ac_source: Optional[str] = None,
) -> AcResult:
    """:func:`repro.spice.ac.ac_sweep` on the per-point oracle."""
    return PerPointAcSolver(circuit, ac_source=ac_source).sweep(
        f_start, f_stop, points_per_decade=points_per_decade, probes=probes
    )


class ReenumeratingMapper(ArchitectureMapper):
    """Branch-and-bound without the candidate index.

    Re-enumerates every root's candidates at each decision node and
    filters and sorts them there.  It has no per-root minimum-area memo,
    so it prunes on the paper's and the exact bound only.  Matches are
    short-lived, so areas are cached by component and parameters, never
    by object identity.
    """

    def _ordered_candidates(self, root: Block) -> List[PatternMatch]:
        candidates = self.matcher.candidates(
            self.sfg, root, max_size=self.options.max_cone_size
        )
        if not self.options.enable_transforms:
            candidates = [c for c in candidates if c.transform is None]
        # Cones may not include already-covered blocks.
        candidates = [
            c for c in candidates if not (c.cone & self._covered)
        ]
        sort_key = _SEQUENCING_KEYS.get(self.options.sequencing)
        if sort_key is not None:
            candidates.sort(key=sort_key)
        # "arbitrary": keep the matcher's order.
        return candidates

    def _min_alloc_area(self, root: Block) -> Optional[float]:
        return None

    def _instance_area(self, match: PatternMatch) -> float:
        # An id() of a discarded match can be reused by a new one.
        self._area_by_match.clear()
        return super()._instance_area(match)

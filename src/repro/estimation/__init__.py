"""Analog performance estimation (substitute for [17] and [4])."""

from repro._imports import deferred_exports
from repro.estimation.constraints import (
    ConstraintSet,
    ConstraintViolation,
    PerformanceEstimate,
)
from repro.estimation.estimator import Estimator
from repro.estimation.opamp import (
    OpAmpDesign,
    OpAmpSpec,
    design_two_stage,
    min_opamp_area,
)
from repro.estimation.technology import MOSIS_SCN20, Technology

# Monte Carlo simulates, so it loads numpy: resolved on first use.
__getattr__, __dir__ = deferred_exports(
    globals(),
    {
        name: "repro.estimation.montecarlo"
        for name in ("MismatchTrial", "YieldReport", "mismatch_analysis")
    },
)

__all__ = [
    "ConstraintSet",
    "ConstraintViolation",
    "Estimator",
    "MismatchTrial",
    "YieldReport",
    "mismatch_analysis",
    "MOSIS_SCN20",
    "OpAmpDesign",
    "OpAmpSpec",
    "PerformanceEstimate",
    "Technology",
    "design_two_stage",
    "min_opamp_area",
]

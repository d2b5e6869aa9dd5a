"""Latency summaries: the median and a tail that has samples beyond it."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: tail candidates, highest first; the first that leaves enough samples
#: beyond it is reported.  p99 is left out: a run holds at most a few
#: thousand ops, and their top 1% is set by a handful of host stalls
#: (over ten flow_cold runs p99 spread by 25% of its median, p95 by 6%).
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` of ``n`` samples."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond.

    With fewer than 2 * MIN_BEYOND samples no candidate qualifies; the
    median is reported then, and ``beyond`` says how many samples
    actually lie past it.
    """
    n = len(values)
    chosen = next(
        (p for p in TAIL_PERCENTILES if beyond(n, p) >= MIN_BEYOND), 50.0
    )
    return {
        "percentile": chosen,
        "value": percentile(values, chosen),
        "samples": n,
        "beyond": beyond(n, chosen),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

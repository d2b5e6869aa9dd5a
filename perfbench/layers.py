"""Per-layer metrics from one traced phase: span self times and counters."""

from __future__ import annotations

from typing import Dict, List, Optional

#: registry counters read as per-op deltas around a traced phase; they
#: repeat exactly for the same inputs, unlike times
COUNTERS = (
    "frontend.lexer.tokens",
    "frontend.parser.ast_nodes",
    "mapper.nodes_visited",
    "mapper.nodes_pruned",
    "mapper.index.hits",
    "mapper.index.misses",
    "estimator.opamp_sizings",
    "pipeline.cache.hit",
    "pipeline.cache.miss",
    "spice.mna.factorizations",
)


def counter_snapshot() -> Dict[str, float]:
    from repro.instrument import metrics

    registry = metrics()
    return {name: registry.counter(name) for name in COUNTERS}


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tracing_overhead(n_plain: int, wall_plain: float, n_traced: int,
                     wall_traced: float) -> float:
    """Untraced over traced throughput, minus one."""
    if not n_plain or not n_traced:
        return 0.0
    return (n_plain / wall_plain) / (n_traced / wall_traced) - 1.0


def per_layer(
    self_s: Dict[str, float],
    top_s: Dict[object, float],
    op_s: List[float],
    counters: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-op means of span self times (ms) and of counter deltas.

    ``op_s`` holds the wall time of every traced op; ``top_s`` the
    top-level span time per op, so ``untraced_ms`` is the share of op
    time no span covers.
    """
    n = len(op_s)
    out = {name: 1e3 * seconds / n for name, seconds in self_s.items()}
    out["untraced_ms"] = 1e3 * (sum(op_s) - sum(top_s.values())) / n
    # The attribution check: span self times plus the untraced share
    # add up to the op wall time.
    out["op_ms"] = 1e3 * sum(op_s) / n
    out["attributed_ms"] = 1e3 * sum(self_s.values()) / n + out["untraced_ms"]
    if counters is None:
        return out
    c = counters
    out["vass.tokens"] = c["frontend.lexer.tokens"] / n
    out["vass.tokens_per_s"] = _ratio(
        c["frontend.lexer.tokens"], self_s.get("vass.tokenize_ms", 0.0))
    out["vass.ast_nodes_per_s"] = _ratio(
        c["frontend.parser.ast_nodes"], self_s.get("vass.parse_self_ms", 0.0))
    out["synth.mapper.nodes_visited"] = c["mapper.nodes_visited"] / n
    out["synth.mapper.pruned_ratio"] = _ratio(
        c["mapper.nodes_pruned"], c["mapper.nodes_visited"])
    hits, misses = c["mapper.index.hits"], c["mapper.index.misses"]
    out["synth.mapper.index_hit_ratio"] = _ratio(hits, hits + misses)
    out["estimation.opamp_sizings"] = c["estimator.opamp_sizings"] / n
    hits, misses = c["pipeline.cache.hit"], c["pipeline.cache.miss"]
    out["pipeline.cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["spice.mna.factorizations"] = c["spice.mna.factorizations"] / n
    return out

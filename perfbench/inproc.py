"""Worker process of the in-process workloads (flow_cold, verify_spec).

Run as ``python -m perfbench.inproc WORKLOAD SEED SECONDS TRACE OUT``
from the checkout root with ``src`` on the path.  It sets up (imports,
inputs, one warm-up op), prints ``READY``, runs a closed loop of ops
with one caller for SECONDS, checks every op's output and writes its
measurements as JSON to OUT.  With SECONDS = 0 it exits after set-up.

A traced run spends the first half of SECONDS untraced and the second
half with the layer wrappers installed, so the tracing overhead is
measured on the same inputs.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from perfbench import corpus, layers
from perfbench.spans import SpanRecorder, attribute


def _flow_setup(seed: int):
    """(run, warm-up ops, timed ops, set-up failures) for flow_cold."""
    from repro.flow import synthesize

    sources = corpus.bundled_sources()
    expected = corpus.load_expected()

    def run(op: corpus.Op):
        result = synthesize(op.source)
        counts = dict(result.netlist.category_counts())
        return result.design, corpus.class_mismatch(op.design, counts,
                                                     expected)

    warm = corpus.op_stream(sources, corpus.DESIGNS,
                            f"flow_cold:{seed}:warmup")
    timed = corpus.op_stream(sources, corpus.DESIGNS, f"flow_cold:{seed}")
    return run, warm, timed, []


def _verify_setup(seed: int):
    """(run, warm-up ops, timed ops, set-up failures) for verify_spec.

    The three designs are synthesized here, from seeded renamed
    sources; ops then check them in a seeded draw order.
    """
    from repro import verify
    from repro.flow import synthesize

    sources = corpus.bundled_sources()
    expected = corpus.load_expected()
    failures = []
    designs = {}
    for op in corpus.op_stream(sources, corpus.VERIFY_DESIGNS,
                               f"verify_spec:{seed}:designs"):
        if len(designs) == len(corpus.VERIFY_DESIGNS):
            break
        if op.design in designs:
            continue
        designs[op.design] = synthesize(op.source)
        if op.design in expected["classes"]:
            counts = dict(designs[op.design].netlist.category_counts())
            failures += corpus.class_mismatch(op.design, counts, expected)
    cases = {name: corpus.verify_case(name) for name in designs}

    def run(op: corpus.Op):
        # Looked up on the module at call time, so the traced run's
        # wrapper of verify_equivalence sees the call.
        report = verify.verify_equivalence(designs[op.design],
                                           **cases[op.design])
        verdict = report.describe().split(" ", 1)[0]
        want = expected["verdicts"][op.design]
        return None, ([] if verdict == want else
                      [f"{op.design}: verdict {verdict}, expected {want}"])

    warm = iter([corpus.Op("squarer", "")])
    order = corpus.draw(corpus.VERIFY_DESIGNS,
                        random.Random(f"verify_spec:{seed}"))
    timed = (corpus.Op(name, "") for name in order)
    return run, warm, timed, failures


SETUPS = {"flow_cold": _flow_setup, "verify_spec": _verify_setup}


def _loop(run, ops, seconds: float, recorder=None):
    """Closed loop for ``seconds``.

    Returns (op seconds, wall seconds, failures, VHIF block counts).
    """
    latencies, failures, blocks = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        op = next(ops)
        t0 = time.perf_counter()
        if recorder is None:
            design, wrong = run(op)
        else:
            with recorder.op(len(latencies)):
                design, wrong = run(op)
        latencies.append(time.perf_counter() - t0)
        failures += wrong
        if recorder is not None and design is not None:
            blocks.append(design.statistics().n_blocks)
    return latencies, time.perf_counter() - start, failures, blocks


def main(argv) -> int:
    workload, seed, seconds, trace, out = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    run, warm, timed, failures = SETUPS[workload](seed)
    _, wrong = run(next(warm))
    failures += wrong
    attempted = 1
    print("READY", flush=True)
    if seconds <= 0:
        return 1 if failures else 0

    data = {}
    untraced = seconds / 2 if trace else seconds
    lat, wall, wrong, _ = _loop(run, timed, untraced)
    attempted += len(lat)
    failures += wrong
    data.update(latencies=lat, wall_s=wall)
    if trace:
        recorder = SpanRecorder()
        before = layers.counter_snapshot()
        with recorder:
            t_lat, t_wall, wrong, blocks = _loop(
                run, timed, seconds - untraced, recorder)
        counters = layers.counter_delta(before, layers.counter_snapshot())
        attempted += len(t_lat)
        failures += wrong
        self_s, top_s = attribute(recorder.spans)
        metrics = layers.per_layer(self_s, top_s, t_lat, counters)
        if blocks:
            metrics["compiler.vhif_blocks"] = sum(blocks) / len(blocks)
        metrics["tracing_overhead"] = layers.tracing_overhead(
            len(lat), wall, len(t_lat), t_wall)
        data.update(per_layer=metrics, spans=recorder.spans)
    data.update(
        attempted=attempted,
        failures=failures,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

It runs one workload (see ``perfbench/workloads.py``) closed-loop for
S seconds on inputs generated from the seed, checks every op's output
against ``perfbench/expected.json``, prints each metric by name and
unit with its provenance, and prints as its last line one JSON object:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The exit code is 0 only when
every op was correct.  Run it with ``--workload all`` to run every
workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return f"{package} absent"


def host_speed() -> dict:
    """Fixed pure-Python work, timed: how fast this host runs right now.

    Not a metric of the program.  Shared hosts drift by tens of percent
    over minutes; printing these beside each result shows whether a
    change between runs came from the host.  ``int`` is arithmetic in
    a loop, ``alloc`` deep-copies small objects (cache and allocator
    bound, like much of the flow).
    """
    import copy
    import statistics
    import time

    def int_loop():
        total = 0
        for k in range(200_000):
            total += k * k

    data = [{"name": str(i), "pins": [i, i + 1], "area": 1.5 * i}
            for i in range(2_000)]
    out = {}
    for name, work in (("int", int_loop),
                       ("alloc", lambda: copy.deepcopy(data))):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            work()
            times.append(time.perf_counter() - t0)
        out[f"host_{name}_ms"] = round(1e3 * statistics.median(times), 3)
    return out


def provenance(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **host_speed(),
    }


def end_to_end(outcome) -> tuple:
    """(metric values, printed detail) of an untraced run."""
    from perfbench import stats

    ms = [1e3 * s for s in outcome.latencies]
    tail = stats.tail(ms)
    failed = len(outcome.failures)
    values = {
        "latency_p50_ms": stats.median(ms),
        "latency_tail_ms": tail["value"],
        "throughput_ops_per_s": len(ms) / outcome.wall_s,
        "setup_s": stats.median(outcome.setups),
        "peak_rss_mb": outcome.rss_kb / 1024.0,
        "ok_ratio": (outcome.attempted - failed) / outcome.attempted,
    }
    detail = {
        "latency_p50_ms": f"median of {len(ms)} ops",
        "latency_tail_ms": (
            f"p{tail['percentile']:g} of {tail['samples']} ops, "
            f"{tail['beyond']} beyond it"),
        "throughput_ops_per_s": f"{len(ms)} ops in {outcome.wall_s:.3f} s",
        "setup_s": f"median of {len(outcome.setups)} set-ups",
        "ok_ratio": (f"failed_ratio {failed}/{outcome.attempted} = "
                     f"{failed / outcome.attempted:g}"),
    }
    return values, detail


def run_one(args, bench: dict) -> int:
    from perfbench.workloads import WORKLOADS, Context

    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    ctx = Context(ROOT, work, args.seed, float(args.seconds),
                  bool(args.trace))
    prov = provenance(args)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if args.trace:
        listed = bench["per_layer"]
        measured = outcome.per_layer
        detail = {}
    else:
        listed = bench["end_to_end"]
        measured, detail = end_to_end(outcome)
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in listed
    }
    print(f"# provenance: {json.dumps(prov)}")
    for name, metric in metrics.items():
        note = f"  ({detail[name]})" if name in detail else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name in sorted(set(measured) - set(metrics)):
        print(f"# not in BENCHMARK.json: {name} = {measured[name]:.6g}")
    for failure in outcome.failures[:20]:
        print(f"# FAILED: {failure}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record.write_text(json.dumps({
        "provenance": prov, "metrics": metrics, "detail": detail,
        "failures": outcome.failures, "latencies_s": outcome.latencies,
        "setups_s": outcome.setups, "spans": outcome.spans,
    }), encoding="utf-8")

    failed = len(outcome.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Replace the script directory: modules load as the perfbench package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import reaper

    reaper.adopt_orphans()
    try:
        return _run(args, parser)
    finally:
        killed = reaper.reap_all()
        if killed:
            print(f"# killed {killed} process(es) left running at exit",
                  file=sys.stderr)


def _run(args, parser) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        codes = [run_one(argparse.Namespace(**dict(vars(args), workload=n)),
                         bench) for n in names]
        return max(codes)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())

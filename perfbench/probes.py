"""Process-level probes of a traced run: interpreter floor, import costs,
and executor worker spawn."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

#: repeats of each probe; the median is reported
REPEATS = 3


def importtime_cumulative(stderr: str, package: str) -> float:
    """Cumulative microseconds of ``package`` in ``-X importtime`` output.

    Sums the cumulative time of every ``package`` (or ``package.*``)
    entry that is not itself nested under another such entry.  Children
    print before their parent, one indentation level deeper.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header row
        stripped = name.lstrip()
        rows.append((len(name) - len(stripped), stripped.strip(),
                     int(cumulative)))

    def matches(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0
    for index, (depth, name, cumulative) in enumerate(rows):
        if not matches(name):
            continue
        # Walk the ancestors: the next rows with a smaller depth.
        nested = False
        level = depth
        for parent_depth, parent_name, _ in rows[index + 1:]:
            if parent_depth < level:
                if matches(parent_name):
                    nested = True
                    break
                level = parent_depth
        if not nested:
            total += cumulative
    return float(total)


def _spawn_ms(argv: List[str], env: Dict[str, str], cwd) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return 1e3 * (time.perf_counter() - t0)


def process_probes(env: Dict[str, str], cwd) -> Dict[str, float]:
    """Interpreter start, and import cost of repro.cli, numpy and scipy."""
    out = {
        "process.interpreter_ms": statistics.median(
            _spawn_ms([sys.executable, "-c", "pass"], env, cwd)
            for _ in range(REPEATS)
        )
    }
    samples: Dict[str, List[float]] = {"repro": [], "numpy": [], "scipy": []}
    for _ in range(REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, cwd=cwd, check=True, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for package in samples:
            samples[package].append(
                importtime_cumulative(done.stderr, package) / 1e3)
    out["process.import_cli_ms"] = statistics.median(samples["repro"])
    out["process.import_numpy_ms"] = statistics.median(samples["numpy"])
    out["process.import_scipy_ms"] = statistics.median(samples["scipy"])
    return out


def executor_spawn_s(workers: int = 2) -> float:
    """Seconds from creating a ProcessExecutor until every worker answered.

    Runs in the benchmark process; ``os.getpid`` is the smallest task
    a spawned worker can run, so the time is spawn plus one round trip.
    """
    from repro.pipeline import ProcessExecutor

    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        executor = ProcessExecutor(workers)
        try:
            futures = [executor.submit(os.getpid) for _ in range(workers)]
            for future in futures:
                future.result(timeout=60)
            times.append(time.perf_counter() - t0)
        finally:
            executor.shutdown(wait=True)
    return statistics.median(times)

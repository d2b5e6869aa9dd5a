"""The four workloads, driven from the benchmark process.

Every workload is a closed loop: a client sends its next op only after
the previous one completed.  Each returns an :class:`Outcome`; the
end-to-end metrics come from untraced runs, the per-layer metrics from
a traced run, which spends half its time untraced and half traced.

Why each workload exists (the same text is in BENCHMARK.json):

* ``cli_synth`` -- the wall clock a user waits for at the shell, where
  interpreter start and imports dominate;
* ``flow_cold`` -- in-process synthesis with imports warm and no stage
  cache hit: the compute layers and the artifact-cache writes;
* ``serve_process`` -- the layers around the flow: executor dispatch,
  pickle transport, HTTP and SSE, on-disk cache reads beside writes;
* ``verify_spec`` -- the Section-6 equivalence check: SPICE transient
  and the VHIF interpreter, which no other workload touches.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import corpus, layers, probes
from perfbench.spans import attribute, merge

#: set-ups made per run; the median is reported as setup_s
SETUP_REPEATS = 3
#: clients of serve_process: at most one per core of a 2-core host
SERVE_CLIENTS = 2
#: longest any single op or set-up may take before the run fails
OP_TIMEOUT_S = 60.0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    _dirs: itertools.count = field(default_factory=itertools.count)

    def env(self, with_bench: bool = False) -> Dict[str, str]:
        """Child environment: the checkout's sources, temp files inside it.

        ``VASE_*`` variables are dropped so every process runs with the
        program's defaults (the run ledger in its working directory).
        """
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("VASE_")}
        paths = [str(self.root / "src")]
        if with_bench:
            paths.append(str(self.root))
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    def fresh_dir(self, prefix: str) -> Path:
        path = self.work / f"{prefix}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    latencies: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    setups: List[float] = field(default_factory=list)
    rss_kb: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    per_layer: Dict[str, float] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    def check(self, wrong: List[str]) -> None:
        """Count one checked op and its failures (at most one per op)."""
        self.attempted += 1
        if wrong:
            self.failures.append("; ".join(wrong))


def _reap(proc: subprocess.Popen, timeout: float = OP_TIMEOUT_S):
    """Wait for ``proc``; (exit code, peak RSS in KiB).  Kills on timeout."""
    if proc.returncode is not None:
        return proc.returncode, 0  # already reaped by poll()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _readline(proc: subprocess.Popen, stream,
              timeout: float = OP_TIMEOUT_S) -> str:
    """One line from ``stream`` of ``proc``; kills ``proc`` on timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return stream.readline().decode("utf-8", "replace")
    finally:
        timer.cancel()


# -- cli_synth ----------------------------------------------------------------

_NETLIST_LINE = re.compile(r"^\s*netlist: (.*)$", re.MULTILINE)


def _cli_op(ctx: Context, op: corpus.Op, expected: dict, out: Outcome,
            probe: bool = False):
    """One ``vase synth FILE`` process in a fresh directory.

    Returns (seconds, peak RSS KiB, probe JSON or None).
    """
    cwd = ctx.fresh_dir("cli")
    name = f"{op.design}.vhd"
    (cwd / name).write_text(op.source, encoding="utf-8")
    if probe:
        argv = [sys.executable, "-m", "perfbench.cliprobe",
                str(cwd / "probe.json"), "synth", name]
    else:
        argv = [sys.executable, "-m", "repro.cli", "synth", name]
    env = ctx.env(with_bench=probe)
    with open(cwd / "stdout", "wb") as stdout, \
            open(cwd / "stderr", "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout,
                                stderr=stderr)
        code, rss = _reap(proc)
        seconds = time.perf_counter() - t0
    text = (cwd / "stdout").read_text(encoding="utf-8", errors="replace")
    match = _NETLIST_LINE.search(text)
    if code != 0 or match is None:
        wrong = [f"{op.design}: vase synth exited {code}"]
    else:
        wrong = corpus.class_mismatch(
            op.design, corpus.parse_summary(match.group(1)), expected)
    out.check(wrong)
    data = None
    if probe and (cwd / "probe.json").is_file():
        data = json.loads((cwd / "probe.json").read_text(encoding="utf-8"))
    shutil.rmtree(cwd)
    return seconds, rss, data


def cli_synth(ctx: Context) -> Outcome:
    out = Outcome()
    sources = corpus.bundled_sources()
    expected = corpus.load_expected()
    warm = corpus.op_stream(sources, corpus.DESIGNS,
                            f"cli_synth:{ctx.seed}:warmup")
    timed = corpus.op_stream(sources, corpus.DESIGNS,
                             f"cli_synth:{ctx.seed}")
    for _ in range(SETUP_REPEATS):
        # Set-up is one warm-up process: its input written out, then run.
        t0 = time.perf_counter()
        _cli_op(ctx, next(warm), expected, out)
        out.setups.append(time.perf_counter() - t0)

    untraced = ctx.seconds / 2 if ctx.trace else ctx.seconds
    start = time.perf_counter()
    while time.perf_counter() - start < untraced:
        seconds, rss, _ = _cli_op(ctx, next(timed), expected, out)
        out.latencies.append(seconds)
        out.rss_kb = max(out.rss_kb, rss)
    out.wall_s = time.perf_counter() - start
    if not ctx.trace:
        return out

    op_s, counters = [], {name: 0.0 for name in layers.COUNTERS}
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds - untraced:
        seconds, _, data = _cli_op(ctx, next(timed), expected, out,
                                   probe=True)
        if data is None:
            out.failures.append("cli probe wrote no spans")
            continue
        merge(out.spans, data["spans"], len(op_s))
        for name in layers.COUNTERS:
            counters[name] += data["counters"][name]
        op_s.append(seconds)
    traced_wall = time.perf_counter() - start
    self_s, top_s = attribute(out.spans)
    out.per_layer = layers.per_layer(self_s, top_s, op_s, counters)
    out.per_layer["tracing_overhead"] = layers.tracing_overhead(
        len(out.latencies), out.wall_s, len(op_s), traced_wall)
    out.per_layer.update(probes.process_probes(ctx.env(), ctx.work))
    return out


# -- flow_cold and verify_spec (worker process) -----------------------------

def _inproc(ctx: Context, workload: str) -> Outcome:
    out = Outcome()
    env = ctx.env(with_bench=True)
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        result = ctx.work / f"{workload}-{repeat}.json"
        argv = [sys.executable, "-m", "perfbench.inproc", workload,
                str(ctx.seed), str(ctx.seconds if last else 0),
                str(int(ctx.trace)), str(result)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=env,
                                stdout=subprocess.PIPE)
        ready = _readline(proc, proc.stdout).strip() == "READY"
        if ready:
            out.setups.append(time.perf_counter() - t0)
        code, rss = _reap(proc, OP_TIMEOUT_S + ctx.seconds)
        proc.stdout.close()
        if not ready or code != 0:
            out.attempted += 1
            out.failures.append(f"{workload} worker exited {code}")
            continue
        if not last:
            out.attempted += 1  # the set-up's warm-up op, checked there
            continue
        data = json.loads(result.read_text(encoding="utf-8"))
        out.latencies = data["latencies"]
        out.wall_s = data["wall_s"]
        out.attempted += data["attempted"]
        out.failures += data["failures"]
        out.rss_kb = rss
        if ctx.trace:
            out.per_layer = data["per_layer"]
            out.spans = data["spans"]
            out.per_layer.update(probes.process_probes(ctx.env(), ctx.work))
    return out


def flow_cold(ctx: Context) -> Outcome:
    return _inproc(ctx, "flow_cold")


def verify_spec(ctx: Context) -> Outcome:
    return _inproc(ctx, "verify_spec")


# -- serve_process ------------------------------------------------------------

@dataclass
class _Job:
    """Client-side measurements of one served job."""

    seconds: float = 0.0
    post_s: float = 0.0
    first_event_s: Optional[float] = None
    events: int = 0
    sse_bytes: int = 0
    status: str = ""
    summary: str = ""
    synthesize_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_get_s: float = 0.0
    error: str = ""


class _Server:
    """A ``vase serve --executor process`` child and its client calls."""

    def __init__(self, ctx: Context):
        cwd = ctx.fresh_dir("serve")
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--executor", "process", "--workers", "2",
                "--cache", str(cwd / "cache")]
        self._stdout = open(cwd / "stdout", "wb")
        self.proc = subprocess.Popen(argv, cwd=cwd, env=ctx.env(),
                                     stdout=self._stdout,
                                     stderr=subprocess.PIPE)
        # The listening line goes to stderr.
        line = _readline(self.proc, self.proc.stderr)
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"vase serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        # Drain anything else the server prints so it never blocks.
        self._drain = threading.Thread(target=self.proc.stderr.read,
                                       daemon=True)
        self._drain.start()

    def _conn(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=OP_TIMEOUT_S)

    def request(self, method: str, path: str, body=None):
        conn = self._conn()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def job(self, source: str, traced: bool) -> _Job:
        """POST a job and read its SSE stream up to the ``end`` frame.

        A failed exchange is recorded on the job, never raised.
        """
        job = _Job()
        try:
            self._exchange(job, source, traced)
        except (OSError, http.client.HTTPException, ValueError) as err:
            job.error = f"{type(err).__name__}: {err}"
        return job

    def _exchange(self, job: _Job, source: str, traced: bool) -> None:
        t0 = time.perf_counter()
        status, body = self.request("POST", "/jobs",
                                    json.dumps({"source": source}))
        job.post_s = time.perf_counter() - t0
        if status != 202:
            job.error = f"POST /jobs answered {status}"
            return
        job_id = json.loads(body)["id"]
        conn = self._conn()
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            # The server closes the stream after its end frame, so read
            # to EOF in large chunks: the client stays cheap on a host
            # whose cores the server and its workers need.
            chunks = []
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    break
                if job.first_event_s is None and b"event: " in chunk:
                    job.first_event_s = time.perf_counter() - t0
                chunks.append(chunk)
        finally:
            conn.close()
        job.seconds = time.perf_counter() - t0
        stream = b"".join(chunks)
        job.sse_bytes = len(stream)
        _read_frames(job, stream, traced)
        if not job.status:
            job.error = "SSE stream closed before its end frame"
        elif job.status == "ok":
            _, body = self.request("GET", f"/jobs/{job_id}")
            job.summary = json.loads(body).get("summary", "")

    def stop(self) -> int:
        """Shut the server down; its peak RSS (KiB), workers included."""
        if self.proc.poll() is None:
            try:
                self.request("POST", "/shutdown")
            except OSError:
                self.proc.kill()
        _, rss = _reap(self.proc)
        self.proc.stderr.close()
        self._stdout.close()
        return rss


def _read_frames(job: _Job, stream: bytes, traced: bool) -> None:
    """Count the SSE frames of a job; decode them only when traced."""
    for frame in stream.split(b"\n\n"):
        event = data = None
        for line in frame.split(b"\n"):
            if line.startswith(b"event: "):
                event = line[7:]
            elif line.startswith(b"data: "):
                data = line[6:]
        if event is None:
            continue  # a comment frame (heartbeat, dropped-events note)
        if event == b"end":
            job.status = json.loads(data)["status"]
            return
        job.events += 1
        if traced:
            _note_event(job, event, json.loads(data))


def _note_event(job: _Job, event: bytes, data: dict) -> None:
    payload = data.get("payload", {})
    if event == b"span" and payload.get("phase") == "close":
        if payload.get("name") == "synthesize":
            job.synthesize_s += payload.get("duration_s", 0.0)
        elif payload.get("attrs", {}).get("cache") == "hit":
            job.cache_get_s += payload.get("duration_s", 0.0)
    elif event == b"cache":
        if payload.get("op") == "hit":
            job.cache_hits += 1
        elif payload.get("op") == "miss":
            job.cache_misses += 1


class _Client:
    """One closed-loop serve client and its seeded job stream.

    In each block of three jobs, one seeded slot resubmits, verbatim, a
    source this client already completed; the rest are fresh sources.
    """

    def __init__(self, sources, key: str):
        self._fresh = corpus.op_stream(sources, corpus.DESIGNS, key)
        self._rng = random.Random(f"{key}:resubmit")
        self._done: List[corpus.Op] = []
        self._slot = 0
        self._resubmit = 0

    def next_op(self) -> corpus.Op:
        if self._slot % 3 == 0:
            self._resubmit = self._rng.randrange(3)
        slot, self._slot = self._slot % 3, self._slot + 1
        if slot == self._resubmit and self._done:
            return self._done[self._rng.randrange(len(self._done))]
        return next(self._fresh)

    def run(self, server: _Server, expected: dict, deadline: float,
            traced: bool, out: Outcome, jobs: List[_Job],
            lock: threading.Lock) -> None:
        while time.perf_counter() < deadline:
            op = self.next_op()
            job = server.job(op.source, traced)
            wrong = _job_mismatch(op, job, expected)
            if not wrong:
                self._done.append(op)
            with lock:
                out.check(wrong)
                jobs.append(job)


def _job_mismatch(op: corpus.Op, job: _Job, expected: dict) -> List[str]:
    if job.error or job.status != "ok":
        return [f"{op.design}: {job.error or 'status ' + job.status}"]
    return corpus.class_mismatch(op.design, corpus.parse_summary(job.summary),
                                 expected)


def _concurrently(targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _run_clients(server: _Server, clients: List[_Client], expected: dict,
                 seconds: float, traced: bool, out: Outcome):
    """Every client for ``seconds``; (jobs, wall seconds)."""
    jobs: List[_Job] = []
    lock = threading.Lock()
    start = time.perf_counter()
    _concurrently(
        lambda c=client: c.run(server, expected, start + seconds, traced,
                               out, jobs, lock)
        for client in clients
    )
    return jobs, time.perf_counter() - start


def _serve_setup(ctx: Context, expected: dict, warm, out: Outcome) -> _Server:
    """Start a server and run one warm-up job per worker, concurrently."""
    server = _Server(ctx)
    ops = [next(warm) for _ in range(SERVE_CLIENTS)]
    jobs: List[_Job] = [None] * len(ops)

    def warm_up(index: int) -> None:
        jobs[index] = server.job(ops[index].source, traced=False)

    _concurrently(lambda i=i: warm_up(i) for i in range(len(ops)))
    for op, job in zip(ops, jobs):
        out.check(_job_mismatch(op, job, expected))
    return server


def serve_process(ctx: Context) -> Outcome:
    out = Outcome()
    sources = corpus.bundled_sources()
    expected = corpus.load_expected()
    warm = corpus.op_stream(sources, corpus.DESIGNS,
                            f"serve_process:{ctx.seed}:warmup")
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        _serve_setup(ctx, expected, warm, out).stop()
        out.setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    server = _serve_setup(ctx, expected, warm, out)
    out.setups.append(time.perf_counter() - t0)
    clients = [_Client(sources, f"serve_process:{ctx.seed}:{c}")
               for c in range(SERVE_CLIENTS)]
    untraced = ctx.seconds / 2 if ctx.trace else ctx.seconds
    try:
        jobs, out.wall_s = _run_clients(server, clients, expected, untraced,
                                        False, out)
        out.latencies = [job.seconds for job in jobs if not job.error]
        if ctx.trace:
            traced, traced_wall = _run_clients(
                server, clients, expected, ctx.seconds - untraced, True, out)
    finally:
        out.rss_kb = server.stop()
    if ctx.trace:
        out.per_layer = _serve_layers(traced)
        out.per_layer["tracing_overhead"] = layers.tracing_overhead(
            len(jobs), out.wall_s, len(traced), traced_wall)
        out.per_layer["pipeline.executor.spawn_s"] = \
            probes.executor_spawn_s()
        out.per_layer.update(probes.process_probes(ctx.env(), ctx.work))
    return out


def _serve_layers(jobs: List[_Job]) -> Dict[str, float]:
    jobs = [job for job in jobs if job.status == "ok"]
    n = len(jobs) or 1

    def mean_ms(values) -> float:
        return 1e3 * sum(values) / n

    hits = sum(job.cache_hits for job in jobs)
    misses = sum(job.cache_misses for job in jobs)
    dispatch = mean_ms(job.seconds - job.synthesize_s for job in jobs)
    return {
        "serve.post_ms": mean_ms(job.post_s for job in jobs),
        "serve.first_event_ms": mean_ms(
            job.first_event_s or 0.0 for job in jobs),
        "serve.worker_synthesize_ms": mean_ms(
            job.synthesize_s for job in jobs),
        "serve.dispatch_overhead_ms": dispatch,
        # From outside, the forwarded synthesize span is the op's only
        # top-level span, so the untraced share is the dispatch overhead.
        "untraced_ms": dispatch,
        "serve.events_per_job": sum(job.events for job in jobs) / n,
        "serve.sse_bytes_per_job": sum(job.sse_bytes for job in jobs) / n,
        "pipeline.cache.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "pipeline.cache.get_ms": mean_ms(job.cache_get_s for job in jobs),
    }


WORKLOADS = {
    "cli_synth": cli_synth,
    "flow_cold": flow_cold,
    "serve_process": serve_process,
    "verify_spec": verify_spec,
}

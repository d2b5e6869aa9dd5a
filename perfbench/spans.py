"""Traced-run spans: wrappers around public layer functions.

Each wrapper replaces the name its caller looks up (the parser imports
``tokenize`` by name, so the patch is ``repro.vass.parser.tokenize``;
``PipelineSession`` stages are patched on the class) and records a
span: name, start, end, parent and op id.  Spans stay in memory and
are written out when the run ends.  Wrappers are installed only for a
traced run and :meth:`SpanRecorder.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union


def _stage_span(args: tuple) -> str:
    return f"pipeline.stage.{args[1].name}.self_ms"


#: (module, attribute path, metric) -- each span is named by the
#: per-layer metric its self time feeds
LAYER_TARGETS: Tuple[Tuple[str, str, Union[str, Callable]], ...] = (
    ("repro.vass.parser", "tokenize", "vass.tokenize_ms"),
    ("repro.vass.parser", "parse_source", "vass.parse_self_ms"),
    ("repro.vass.semantics", "analyze", "vass.analyze_ms"),
    ("repro.compiler", "compile_design", "compiler.compile_design_ms"),
    ("repro.compiler", "enumerate_solvers", "compiler.enumerate_solvers_ms"),
    ("repro.vhif.optimize", "optimize_design", "vhif.optimize_design_ms"),
    ("repro.vhif.interp", "Interpreter.run", "vhif.interp_run_ms"),
    ("repro.synth", "map_sfg", "synth.mapper_ms"),
    ("repro.synth.fsm_mapping", "realize_event_controls",
     "synth.realize_event_controls_ms"),
    ("repro.synth", "apply_interfacing", "synth.apply_interfacing_ms"),
    ("repro.estimation", "Estimator.estimate", "estimation.estimate_ms"),
    ("repro.pipeline.stages", "PipelineSession._run", _stage_span),
    ("repro.pipeline.cache", "ArtifactCache.put", "pipeline.cache.put_ms"),
    ("repro.pipeline.cache", "ArtifactCache.get", "pipeline.cache.get_ms"),
    ("repro.pipeline.stages", "fingerprint", "pipeline.fingerprint_ms"),
    ("repro.pipeline.stages", "library_fingerprint",
     "pipeline.fingerprint_ms"),
    ("repro.verify", "elaborate", "spice.elaborate_ms"),
    ("repro.spice.mna", "MnaSolver.transient", "spice.mna.transient_ms"),
    ("repro.verify", "verify_equivalence", "verify.verify_equivalence_ms"),
    ("repro.cli", "main", "cli.main_ms"),
    ("repro.instrument.ledger", "RunLedger.append",
     "instrument.ledger_append_ms"),
)


class SpanRecorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        #: one dict per span: name, start, end, parent (index), op
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: object):
        """Tag every span this thread opens with ``op_id``."""
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "op": getattr(self._local, "op", None),
        }
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str,
              name: Union[str, Callable]) -> None:
        original = vars(owner)[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with recorder.span(label):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def install(self, targets: Iterable[tuple] = LAYER_TARGETS) -> None:
        for module, path, name in targets:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self.patch(owner, attr, name)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def attribute(
    spans: List[dict],
) -> Tuple[Dict[str, float], Dict[object, float]]:
    """Self seconds per span name, and top-level seconds per op.

    A span's self time is its duration minus the durations of the
    spans nested directly inside it, so the self times of all spans of
    an op add up to the op's top-level span time: with ``untraced``
    (op time minus top-level spans) they partition the op's wall time.
    """
    nested = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            nested[record["parent"]] += record["end"] - record["start"]
    self_s: Dict[str, float] = defaultdict(float)
    top_s: Dict[object, float] = defaultdict(float)
    for index, record in enumerate(spans):
        duration = record["end"] - record["start"]
        self_s[record["name"]] += duration - nested[index]
        if record["parent"] is None:
            top_s[record["op"]] += duration
    return dict(self_s), dict(top_s)


def merge(into: List[dict], spans: List[dict], op: Optional[object]) -> None:
    """Append ``spans`` (from another process) to ``into`` under ``op``."""
    offset = len(into)
    for record in spans:
        parent = record["parent"]
        into.append(dict(
            record,
            parent=None if parent is None else parent + offset,
            op=op,
        ))

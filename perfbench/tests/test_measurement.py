"""Tail percentiles, span attribution, wrapper restore, import parsing."""

import importlib

import pytest

from perfbench import probes, stats
from perfbench.spans import LAYER_TARGETS, SpanRecorder, attribute


@pytest.mark.parametrize("n", [20, 21, 99, 100, 200, 201, 1000, 9999, 10000])
def test_tail_leaves_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    tail = stats.tail(values)
    assert tail["beyond"] >= stats.MIN_BEYOND
    assert sum(v > tail["value"] for v in values) == tail["beyond"]
    higher = [p for p in stats.TAIL_PERCENTILES if p > tail["percentile"]]
    assert all(stats.beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_tail_falls_back_to_the_median_on_few_samples():
    tail = stats.tail([3.0, 1.0, 2.0])
    assert tail["percentile"] == 50.0 and tail["value"] == 2.0


def _resolve(module, path):
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def test_wrappers_restore_the_original_functions():
    originals = [vars(owner)[attr] for owner, attr in
                 (_resolve(m, p) for m, p, _ in LAYER_TARGETS)]
    with SpanRecorder():
        patched = [vars(owner)[attr] for owner, attr in
                   (_resolve(m, p) for m, p, _ in LAYER_TARGETS)]
    restored = [vars(owner)[attr] for owner, attr in
                (_resolve(m, p) for m, p, _ in LAYER_TARGETS)]
    assert all(a is not b for a, b in zip(originals, patched))
    assert all(a is b for a, b in zip(originals, restored))


def test_traced_synthesis_spans_partition_the_op():
    import time

    from repro.apps import receiver
    from repro.flow import synthesize

    recorder = SpanRecorder()
    with recorder:
        with recorder.op(0):
            t0 = time.perf_counter()
            synthesize(receiver.VASS_SOURCE)
            op_s = time.perf_counter() - t0
    names = {span["name"] for span in recorder.spans}
    assert {"vass.tokenize_ms", "vass.parse_self_ms", "synth.mapper_ms",
            "pipeline.stage.map.self_ms", "pipeline.cache.put_ms"} <= names
    self_s, top_s = attribute(recorder.spans)
    assert sum(self_s.values()) == pytest.approx(top_s[0])
    assert 0 < top_s[0] <= op_s


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "op": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1, "op": 0},
    ]
    self_s, top_s = attribute(spans)
    assert self_s == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert top_s == {0: 10.0}


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy.core
import time:        50 |        150 |   numpy
import time:        20 |         20 |     scipy._lib
import time:        30 |         50 |   scipy
import time:        10 |         10 |     scipy.sparse
import time:         5 |        215 | repro.spice
"""


def test_importtime_counts_outermost_entries_only():
    assert probes.importtime_cumulative(IMPORTTIME, "numpy") == 150
    assert probes.importtime_cumulative(IMPORTTIME, "scipy") == 60
    assert probes.importtime_cumulative(IMPORTTIME, "repro") == 215
    assert probes.importtime_cumulative(IMPORTTIME, "pandas") == 0

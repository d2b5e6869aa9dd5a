"""The incremental CandidateIndex must not change mapper decisions.

The index is a pure speed refactor: identical candidate ordering,
identical alloc/share/prune/complete sequence, identical best mapping.
The exploration log records every decision the search makes, so
comparing full (timestamp-stripped) event streams between the indexed
mapper and the re-enumerating oracle (``tests/oracles.py``) proves
behavioral equivalence end to end.
"""

import os

import pytest

from repro.apps import biquad_filter
from repro.flow import FlowOptions, synthesize
from repro.instrument import explogging, metrics
from repro.synth import ArchitectureMapper, MapperOptions
from repro.synth import mapper as mapper_module

from tests.oracles import ReenumeratingMapper

#: every event type the mapper search emits
MAPPER_EVENTS = {
    "search_start", "candidates", "alloc", "share", "prune",
    "complete", "dead_end", "truncated", "search_end",
}

#: wall-clock fields that legitimately differ between two runs
TIMING_FIELDS = {"ts", "runtime_s"}

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def biquad_source() -> str:
    path = os.path.join(EXAMPLES, "biquad.vhd")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def use_oracle(monkeypatch):
    """Calling it makes every mapper the flow builds the oracle."""
    return lambda: monkeypatch.setattr(
        mapper_module, "ArchitectureMapper", ReenumeratingMapper
    )


def mapper_decisions(source: str, **mapper_kwargs):
    """The mapper's decision sequence for one synthesis run."""
    with explogging() as log:
        result = synthesize(
            source, options=FlowOptions(mapper=MapperOptions(**mapper_kwargs))
        )
    decisions = [
        {k: v for k, v in event.items() if k not in TIMING_FIELDS}
        for event in log.events
        if event["event"] in MAPPER_EVENTS
    ]
    return decisions, result


class TestDecisionParity:
    def test_biquad_explog_sequence_identical(self, use_oracle):
        indexed, indexed_result = mapper_decisions(biquad_source())
        use_oracle()
        legacy, legacy_result = mapper_decisions(biquad_source())
        assert indexed == legacy
        assert (
            indexed_result.mapping.estimate.area
            == legacy_result.mapping.estimate.area
        )
        assert (
            indexed_result.netlist.describe()
            == legacy_result.netlist.describe()
        )

    @pytest.mark.parametrize(
        "sequencing", ["largest_first", "smallest_first", "arbitrary"]
    )
    def test_sequencing_modes_identical(self, sequencing, use_oracle):
        indexed, _ = mapper_decisions(biquad_source(), sequencing=sequencing)
        use_oracle()
        legacy, _ = mapper_decisions(biquad_source(), sequencing=sequencing)
        assert indexed == legacy


class TestMinAreaMemoBound:
    """Sharing off: the memo bound prunes more, never a different best."""

    def _map(self):
        source = biquad_filter.VASS_SOURCE
        return synthesize(
            source,
            options=FlowOptions(mapper=MapperOptions(enable_sharing=False)),
        ).mapping

    def test_same_best_area_smaller_search(self, use_oracle):
        indexed = self._map()
        use_oracle()
        legacy = self._map()
        assert indexed.estimate.area == pytest.approx(legacy.estimate.area)
        # The tighter bound cuts subtrees earlier, so the indexed
        # search never visits more nodes (a branch pruned at its root
        # also records *fewer* individual prune events than pruning
        # each of its children would).
        assert (
            indexed.statistics.nodes_visited
            <= legacy.statistics.nodes_visited
        )
        assert (
            indexed.statistics.feasible_mappings
            >= 1
        )


class TestIndexMechanics:
    def _mapper(self):
        from repro.compiler import compile_design

        design = compile_design(biquad_filter.VASS_SOURCE)
        return ArchitectureMapper(design.sfgs[0])

    def test_enumerates_each_root_once(self):
        mapper = self._mapper()
        registry = metrics()
        calls_before = registry.counter("patterns.candidate_calls")
        mapper.run()
        index = mapper._index
        # One matcher enumeration per distinct root, by construction.
        assert (
            registry.counter("patterns.candidate_calls") - calls_before
            == index.misses
        )
        assert index.misses == len(index._entries)

    def test_hit_rate_published(self):
        registry = metrics()
        hits_before = registry.counter("mapper.index.hits")
        misses_before = registry.counter("mapper.index.misses")
        self._mapper().run()
        assert registry.counter("mapper.index.misses") > misses_before
        # Any search deeper than one node re-queries enumerated roots.
        assert registry.counter("mapper.index.hits") >= hits_before

    def test_cover_uncover_roundtrip(self):
        mapper = self._mapper()
        index = mapper._index
        root = mapper.sfg.block(max(mapper._initial_pending()))
        full = index.candidates(root)
        assert full, "biquad root should have candidates"
        cone = full[0].cone
        index.cover(cone)
        filtered = index.candidates(root)
        assert all(not (m.cone & cone) for m in filtered)
        index.uncover(cone)
        assert index.candidates(root) == full

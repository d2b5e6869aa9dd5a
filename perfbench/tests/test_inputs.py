"""Seeded inputs and the hand-written expected outputs."""

import itertools

import pytest

from perfbench import corpus


@pytest.fixture(scope="module")
def sources():
    return corpus.bundled_sources()


def _first(sources, key, n=18):
    return list(itertools.islice(
        corpus.op_stream(sources, corpus.DESIGNS, key), n))


def test_same_seed_gives_same_inputs(sources):
    assert _first(sources, "flow_cold:7") == _first(sources, "flow_cold:7")


def test_different_seed_gives_different_inputs(sources):
    a, b = _first(sources, "flow_cold:7"), _first(sources, "flow_cold:8")
    assert [op.source for op in a] != [op.source for op in b]
    assert [op.design for op in a] != [op.design for op in b]


def test_every_source_is_distinct(sources):
    ops = _first(sources, "cli_synth:1", 60)
    assert len({op.source for op in ops}) == len(ops)


def test_draw_keeps_fixed_proportions(sources):
    ops = _first(sources, "flow_cold:3", 6 * 5)
    assert all(
        sum(op.design == name for op in ops) == 5 for name in corpus.DESIGNS
    )


@pytest.mark.parametrize("design", corpus.DESIGNS + ("squarer",))
def test_renamed_source_keeps_component_classes(sources, design):
    from repro.flow import synthesize

    original = sources[design]
    renamed = corpus.rename_entity(original, "s0123456789")
    assert renamed != original
    assert corpus.entity_name(renamed).endswith("_s0123456789")
    before = synthesize(original).netlist.category_counts()
    after = synthesize(renamed).netlist.category_counts()
    assert before == after
    expected = corpus.load_expected()
    if design in expected["classes"]:
        assert corpus.class_mismatch(design, dict(after), expected) == []


def test_parse_summary_round_trips_the_netlist_summary(sources):
    from repro.flow import synthesize

    result = synthesize(sources["missile_solver"])
    assert corpus.parse_summary(result.summary) == dict(
        result.netlist.category_counts())


def test_mismatch_reports_a_wrong_class_count():
    expected = corpus.load_expected()
    wrong = corpus.class_mismatch(
        "receiver", {"amplif.": 1, "zero-cross det.": 1}, expected)
    assert wrong == ["receiver: amplif. x1, expected x2"]

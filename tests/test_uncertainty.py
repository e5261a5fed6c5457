"""Closed-form uncertainty scoring against hand-derived fixtures."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsynth import uncertainty
from structsynth.qas.analysis import analyze
from structsynth.retrieval import ApiDoc, EvidenceSet
from structsynth.uncertainty import (
    compute_coverage,
    compute_trajectory_signals,
    compute_uncertainty,
    jaccard,
    normalize_statements,
)
from structsynth.verifier import Issue, VerdictReport

TOL = 1e-9


def verdict(layer: int, *codes: str) -> VerdictReport:
    if layer == 0:
        return VerdictReport(passed=True, failure_layer=0, issues=())
    issues = tuple(Issue(code=c, layer=layer, message="x") for c in codes or ("X",))
    return VerdictReport(passed=False, failure_layer=layer, issues=issues)


def evidence_over(*paths: str) -> EvidenceSet:
    docs = tuple(
        ApiDoc(doc_id=f"doc{i}", api_path=p, text=p) for i, p in enumerate(paths)
    )
    return EvidenceSet(paths=paths, docs=docs)


FOUR_CALLS = (
    "block = design.getBlock()\n"
    "nets = block.getNets()\n"
    "insts = block.getInsts()\n"
    'net = block.findNet("clk")\n'
)


def test_clean_single_candidate_scores_zero(schema):
    source = "block = design.getBlock()\n"
    candidates = [analyze(source, schema)]
    report = compute_uncertainty(candidates, [verdict(0)], evidence_over("Design.getBlock"))
    assert report == (0.0, 0.0, 1.0, 0.0, False)


def test_three_step_descent(schema):
    sources = [analyze(s, schema) for s in ("a = 1\n", "b = 2\n", "c = 3\n")]
    verdicts = [verdict(4), verdict(3), verdict(0)]
    _, ineffectiveness = compute_trajectory_signals(sources, verdicts)
    assert abs(ineffectiveness - 0.0) < TOL


def test_partial_descent_and_flat_step(schema):
    sources = [analyze(s, schema) for s in ("a = 1\n", "b = 2\n", "c = 3\n")]
    verdicts = [verdict(4), verdict(4), verdict(2)]
    _, ineffectiveness = compute_trajectory_signals(sources, verdicts)
    assert abs(ineffectiveness - 0.5) < TOL


def test_stagnation_is_mean_consecutive_jaccard(schema):
    sources = [
        analyze(s, schema) for s in ("a = 1\nb = 2\n", "a = 1\nb = 2\n", "a = 1\nc = 3\n")
    ]
    verdicts = [verdict(2), verdict(2), verdict(2)]
    stagnation, ineffectiveness = compute_trajectory_signals(sources, verdicts)
    assert abs(stagnation - (1.0 + 1.0 / 3.0) / 2.0) < TOL
    assert ineffectiveness == 1.0


def test_trajectory_requires_one_verdict_per_candidate(schema):
    a, b = analyze("a = 1\n", schema), analyze("b = 2\n", schema)
    with pytest.raises(ValueError):
        compute_trajectory_signals([a], [])
    with pytest.raises(ValueError):
        compute_trajectory_signals([a, b], [verdict(0)])


def test_unparseable_source_scores_worst(schema):
    broken = analyze("x = = 1\n", schema)
    assert compute_coverage(broken, evidence_over("Design.getBlock")) == 0.0


def test_coverage_fraction(schema):
    ev = evidence_over("Design.getBlock", "Block.getNets")
    assert compute_coverage(analyze(FOUR_CALLS, schema), ev) == 0.5


def test_coverage_without_eligible_calls_is_confident(schema):
    assert compute_coverage(analyze("x = 1\n", schema), evidence_over()) == 1.0


def test_coverage_ignores_unknown_methods(schema):
    src = "block = design.getBlock()\nblock.getBogus()\n"
    ev = evidence_over("Design.getBlock")
    assert compute_coverage(analyze(src, schema), ev) == 1.0


def test_jaccard_edge_cases():
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset({"a"}), frozenset()) == 0.0
    assert jaccard(frozenset({"a", "b"}), frozenset({"b", "c"})) == 1.0 / 3.0


def test_unparseable_statement_set_falls_back_to_lines(schema):
    fp = normalize_statements(analyze("x = = 1\n  y ==\n", schema))
    assert fp == frozenset({"x = = 1", "y =="})


NESTED = (
    "block = design.getBlock()\n"
    "for inst in block.getInsts():\n"
    '    if inst.getName() == "u1":\n'
    "        print(inst.getName())\n"
    "    else:\n"
    "        for net in block.getNets():\n"
    "            print(net.weight)\n"
)


def test_statement_set_holds_every_nested_statement_once(schema):
    assert normalize_statements(analyze(NESTED, schema)) == frozenset({
        "block = design.getBlock()",
        "for inst in block.getInsts():",
        'if inst.getName() == "u1":',
        "print(inst.getName())",
        "for net in block.getNets():",
        "print(net.weight)",
    })


def test_scoring_a_repaired_trajectory_leaves_no_reference_cycles(schema):
    first, healed = analyze(NESTED + "ghost()\n", schema), analyze(NESTED, schema)
    candidates, verdicts = [first, first, healed], [verdict(3), verdict(3), verdict(0)]
    evidence = evidence_over("Design.getBlock", "Block.getInsts")
    gc.collect()
    gc.disable()
    try:
        compute_uncertainty(candidates, verdicts, evidence)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_distinct_candidate_is_normalized_once(schema, monkeypatch):
    first, healed = analyze("a = 1\n", schema), analyze("b = 2\n", schema)
    seen = []
    original = uncertainty.normalize_statements
    monkeypatch.setattr(uncertainty, "normalize_statements",
                        lambda c: seen.append(c) or original(c))
    stagnation, _ = compute_trajectory_signals(
        [first, first, healed], [verdict(3), verdict(3), verdict(0)]
    )
    assert seen == [first, healed]
    assert stagnation == 0.5


def test_combined_weighted_sum(schema):
    sources = [analyze(s, schema) for s in ("a = 1\n", "a = 1\nb = 2\n", FOUR_CALLS)]
    ev = evidence_over("Design.getBlock", "Block.getNets")
    report = compute_uncertainty(sources, [verdict(3), verdict(2), verdict(0)], ev)
    # stagnation (1/2 + 0) / 2, ineffectiveness 0 of 2 repairs; 2 of 4 calls covered
    assert abs(report.stagnation - 0.25) < TOL
    assert report.ineffectiveness == 0.0
    assert report.coverage == 0.5
    assert abs(report.combined - (0.3 * 0.075 + 0.3 * 0.5)) < TOL
    assert not report.filtered


def test_combined_crosses_threshold_when_uncovered(schema):
    # an accepted program, re-emitted twice before it passed, with no call covered
    candidates = [analyze(FOUR_CALLS, schema)] * 3
    report = compute_uncertainty(candidates, [verdict(3), verdict(3), verdict(0)],
                                 evidence_over())
    assert report[:3] == (1.0, 0.5, 0.0)
    # 0.3 * (0.3 * 1.0 + 0.3 * 0.5) + 0.3 * (1 - 0)
    assert abs(report.combined - 0.435) < TOL
    assert report.filtered


def test_at_threshold_is_delivered(schema, monkeypatch):
    source = "block = design.getBlock()\nnets = block.getNets()\n"
    ev = evidence_over("Design.getBlock")
    candidates = [analyze(source, schema)]
    monkeypatch.setattr(uncertainty, "THRESHOLD", 0.15)
    at = compute_uncertainty(candidates, [verdict(0)], ev)
    assert at.combined == 0.15
    assert not at.filtered
    monkeypatch.setattr(uncertainty, "THRESHOLD", 0.1)
    assert compute_uncertainty(candidates, [verdict(0)], ev).filtered


@settings(max_examples=50, deadline=None)
@given(
    layers=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    seeds=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
)
def test_signals_stay_in_unit_interval(schema, layers, seeds):
    n = min(len(layers), len(seeds))
    layers, seeds = layers[:n], seeds[:n]
    sources = [analyze(f"x{s} = {s}\n", schema) for s in seeds]
    verdicts = [verdict(layer) for layer in layers]
    report = compute_uncertainty(sources, verdicts, evidence_over())
    assert report.combined <= 0.48 + TOL
    for value in (report.stagnation, report.ineffectiveness, report.coverage, report.combined):
        assert 0.0 <= value <= 1.0

"""Closed-form uncertainty scoring against hand-derived fixtures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsynth import uncertainty
from structsynth.qas.analysis import analyze
from structsynth.retrieval import ApiDoc, EvidenceSet, Hit
from structsynth.uncertainty import (
    CoverageSignals,
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
    hits = tuple(Hit(d.doc_id, 1.0) for d in docs)
    return EvidenceSet(query="q", hits=hits, docs=docs)


FOUR_CALLS = (
    "block = design.getBlock()\n"
    "nets = block.getNets()\n"
    "insts = block.getInsts()\n"
    'net = block.findNet("clk")\n'
)


def test_clean_single_candidate_scores_zero(schema):
    source = "block = design.getBlock()\n"
    candidates = [analyze(source, schema)]
    report = compute_uncertainty(candidates, [verdict(0)], schema, evidence=None)
    assert report.combined == 0.0
    assert report.trajectory_risk == 0.0
    assert report.coverage_risk == 0.0
    assert not report.filtered


def test_no_repairs_with_failure_keeps_full_convergence_risk(schema):
    ts = compute_trajectory_signals([analyze("x = 1\n", schema)], [verdict(2, "A")])
    assert ts.convergence == 1.0
    assert ts.stagnation == 0.0
    assert ts.ineffectiveness == 0.0


def test_full_repair_zeroes_convergence(schema):
    sources = [analyze(s, schema) for s in ("x = 1\n", "y = 2\n")]
    ts = compute_trajectory_signals(sources, [verdict(2), verdict(0)])
    assert abs(ts.convergence - 0.0) < TOL


def test_worsening_layer_clamps_convergence_to_one(schema):
    sources = [analyze(s, schema) for s in ("x = 1\n", "y = 2\n")]
    ts = compute_trajectory_signals(sources, [verdict(1), verdict(4)])
    assert ts.convergence == 1.0


def test_three_step_descent(schema):
    sources = [analyze(s, schema) for s in ("a = 1\n", "b = 2\n", "c = 3\n")]
    verdicts = [verdict(4), verdict(3), verdict(0)]
    ts = compute_trajectory_signals(sources, verdicts)
    assert abs(ts.convergence - 0.0) < TOL
    assert abs(ts.ineffectiveness - 0.0) < TOL


def test_partial_descent_and_flat_step(schema):
    sources = [analyze(s, schema) for s in ("a = 1\n", "b = 2\n", "c = 3\n")]
    verdicts = [verdict(4), verdict(4), verdict(2)]
    ts = compute_trajectory_signals(sources, verdicts)
    assert abs(ts.convergence - 0.5) < TOL
    assert abs(ts.ineffectiveness - 0.5) < TOL


def test_stagnation_is_mean_consecutive_jaccard(schema):
    sources = [
        analyze(s, schema) for s in ("a = 1\nb = 2\n", "a = 1\nb = 2\n", "a = 1\nc = 3\n")
    ]
    verdicts = [verdict(2), verdict(2), verdict(2)]
    ts = compute_trajectory_signals(sources, verdicts)
    assert abs(ts.stagnation - (1.0 + 1.0 / 3.0) / 2.0) < TOL
    assert ts.convergence == 1.0
    assert ts.ineffectiveness == 1.0


def test_trajectory_requires_one_verdict_per_candidate(schema):
    a, b = analyze("a = 1\n", schema), analyze("b = 2\n", schema)
    with pytest.raises(ValueError):
        compute_trajectory_signals([a], [])
    with pytest.raises(ValueError):
        compute_trajectory_signals([a, b], [verdict(0)])


def test_unparseable_source_scores_worst(schema):
    broken = analyze("x = = 1\n", schema)
    cov = compute_coverage(broken, schema, None)
    assert cov == CoverageSignals(0, 0, 0.0)


def test_coverage_fraction(schema):
    ev = evidence_over("Design.getBlock", "Block.getNets")
    cov = compute_coverage(analyze(FOUR_CALLS, schema), schema, ev)
    assert cov == CoverageSignals(2, 4, 0.5)


def test_coverage_without_eligible_calls_is_confident(schema):
    cov = compute_coverage(analyze("x = 1\n", schema), schema, evidence_over())
    assert cov == CoverageSignals(0, 0, 1.0)


def test_coverage_without_evidence_is_confident(schema):
    src = "block = design.getBlock()\nnets = block.getNets()\n"
    assert compute_coverage(analyze(src, schema), schema, None) == CoverageSignals(0, 2, 1.0)


def test_coverage_ignores_unknown_methods(schema):
    src = "block = design.getBlock()\nblock.getBogus()\n"
    ev = evidence_over("Design.getBlock")
    assert compute_coverage(analyze(src, schema), schema, ev) == CoverageSignals(1, 1, 1.0)


def test_jaccard_edge_cases():
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset({"a"}), frozenset()) == 0.0
    assert jaccard(frozenset({"a", "b"}), frozenset({"b", "c"})) == 1.0 / 3.0


def test_unparseable_statement_set_falls_back_to_lines(schema):
    fp = normalize_statements(analyze("x = = 1\n  y ==\n", schema))
    assert fp == frozenset({"x = = 1", "y =="})


def test_combined_weighted_sum(schema):
    source = "import foo\n" + FOUR_CALLS
    ev = evidence_over("Design.getBlock", "Block.getNets")
    report = compute_uncertainty([analyze(source, schema)], [verdict(3, "A")], schema, ev)
    assert abs(report.trajectory_risk - 0.4) < TOL
    assert abs(report.coverage_risk - 0.5) < TOL
    assert abs(report.combined - 0.27) < TOL
    assert not report.filtered


def test_combined_crosses_threshold_when_uncovered(schema):
    source = "import foo\n" + FOUR_CALLS
    candidates = [analyze(source, schema)]
    report = compute_uncertainty(candidates, [verdict(3, "A")], schema, evidence_over())
    assert abs(report.combined - 0.42) < TOL
    assert report.filtered


def test_at_threshold_is_delivered(schema, monkeypatch):
    source = "block = design.getBlock()\nnets = block.getNets()\n"
    ev = evidence_over("Design.getBlock")
    candidates = [analyze(source, schema)]
    monkeypatch.setattr(uncertainty, "THRESHOLD", 0.15)
    at = compute_uncertainty(candidates, [verdict(0)], schema, ev)
    assert at.combined == 0.15
    assert not at.filtered
    monkeypatch.setattr(uncertainty, "THRESHOLD", 0.1)
    assert compute_uncertainty(candidates, [verdict(0)], schema, ev).filtered


def test_weight_triples_sum_to_one():
    trajectory = (
        uncertainty.CONVERGENCE_WEIGHT,
        uncertainty.STAGNATION_WEIGHT,
        uncertainty.INEFFECTIVENESS_WEIGHT,
    )
    assert abs(sum(trajectory) - 1.0) < TOL


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
    report = compute_uncertainty(sources, verdicts, schema, None)
    assert report.combined <= uncertainty.TRAJECTORY_WEIGHT + uncertainty.COVERAGE_WEIGHT
    for value in (
        report.trajectory_risk,
        report.coverage_risk,
        report.combined,
        report.trajectory.convergence,
        report.trajectory.stagnation,
        report.trajectory.ineffectiveness,
    ):
        assert 0.0 <= value <= 1.0

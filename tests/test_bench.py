"""Benchmark harness: records, aggregates, filtering, ablations."""

from __future__ import annotations

import pytest

from doubles import CrashingSession, ScriptedGenerator
from structsynth.bench import (
    BUCKETS,
    TaskRecord,
    TaskSpec,
    bucket_of,
    filter_metrics,
    graph_accuracy,
    run_bench,
    run_task,
    theta_sweep,
    verifier_quality,
)
from structsynth.controller import SynthesisConfig
from structsynth.depgraph import GraphMetrics
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import (
    DefectKind,
    FaultInjectionGenerator,
    TemplateGenerator,
)
from structsynth.judges import RuleBasedJudge
from structsynth.runtime import Session
from suites import OUT_OF_SCOPE_PROMPTS, depth_quality, multis_suite, record, singles_suite


def perfect_metrics() -> GraphMetrics:
    return GraphMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, True)


def test_bucket_boundaries():
    assert bucket_of("one two three") == "<8"
    assert bucket_of(" ".join(["w"] * 7)) == "<8"
    assert bucket_of(" ".join(["w"] * 8)) == "<15"
    assert bucket_of(" ".join(["w"] * 14)) == "<15"
    assert bucket_of(" ".join(["w"] * 15)) == "<25"
    assert bucket_of(" ".join(["w"] * 25)) == ">=25"


def test_packaged_suites_load():
    singles = singles_suite()
    assert len(singles) == 46
    assert all(t.truth_graph is not None for t in singles)
    assert {t.kind for t in singles} == {"query", "action"}
    assert len({t.task_id for t in singles}) == 46
    multis = multis_suite()
    assert len(multis) == 12
    assert all(2 <= len(m.steps) <= 3 for m in multis)


def test_run_task_clean(schema, retriever, snapshot):
    task = next(t for t in singles_suite() if t.task_id == "set-weight-01")
    rec = run_task(
        task,
        schema,
        retriever,
        PatternTableExtractor(schema),
        TemplateGenerator(schema),
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
    )
    assert rec.accepted and rec.verifier_pass
    assert rec.final_layer == 0
    assert rec.exec_status == "ok"
    assert not rec.exec_forced
    assert rec.tool_calls == 1
    assert rec.repairs == 0
    assert rec.error is None
    assert rec.graph is not None and rec.graph.exact_match


def test_run_task_executes_the_accepted_parse_without_parsing_again(
    schema, retriever, snapshot, parse_calls
):
    task = TaskSpec("t", "Set the weight of net clk to 3", "action")
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=1
    )
    rec = run_task(
        task,
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator,
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
    )
    assert (rec.exec_status, rec.tool_calls, rec.repairs) == ("ok", 1, 1)
    assert len(parse_calls) == rec.repairs + 1  # one parse per candidate, none to execute


def test_run_task_rejection_skips_execution(schema, retriever, snapshot):
    task = TaskSpec("t", "Set the weight of net clk to 3", "action")
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=99
    )
    rec = run_task(
        task,
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator,
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        config=SynthesisConfig(budget=1),
    )
    assert not rec.accepted
    assert rec.exec_status is None
    assert rec.tool_calls == 0
    assert rec.repairs == 1


def test_run_task_force_exec_flags_record(schema, retriever, snapshot):
    task = TaskSpec("t", "Set the weight of net clk to 3", "action")
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=99
    )
    rec = run_task(
        task,
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator,
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        config=SynthesisConfig(budget=1),
        force_exec=True,
    )
    assert rec.exec_forced
    assert rec.exec_status == "runtime_error"


def test_run_task_records_an_execution_failure_of_an_accepted_program(
    schema, retriever, snapshot
):
    task = TaskSpec("t", "Set the weight of net clk to 3", "action")
    rec = run_task(
        task,
        schema,
        retriever,
        PatternTableExtractor(schema),
        TemplateGenerator(schema),
        RuleBasedJudge(),
        lambda: CrashingSession(snapshot, schema),
    )
    assert rec.accepted and not rec.exec_forced
    assert rec.exec_status == "runtime_error"
    assert rec.tool_calls == 1


def test_run_task_generator_collapse_is_error_record(schema, retriever, snapshot):
    task = TaskSpec("t", "Set the weight of net clk to 3", "action")
    rec = run_task(
        task,
        schema,
        retriever,
        PatternTableExtractor(schema),
        ScriptedGenerator(sources=[""]),
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
    )
    assert rec.error is not None
    assert rec.final_layer == -1
    assert rec.uncertainty == 1.0
    assert rec.filtered
    assert not rec.accepted


@pytest.mark.parametrize("prompt", OUT_OF_SCOPE_PROMPTS)
def test_run_task_refuses_a_prompt_no_pattern_matches(schema, retriever, snapshot, prompt):
    rec = run_task(
        TaskSpec("t", prompt, "action"),
        schema,
        retriever,
        PatternTableExtractor(schema),
        TemplateGenerator(schema),
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
    )
    assert "no pattern matches the prompt" in rec.error
    assert not rec.accepted and rec.filtered
    assert rec.exec_status is None and rec.tool_calls == 0


def test_verifier_quality_counts():
    records = [
        record(verifier_pass=True, exec_status="ok"),
        record(verifier_pass=True, exec_status="ok"),
        record(verifier_pass=True, exec_status="ok"),
        record(verifier_pass=True, exec_status="runtime_error"),
        record(verifier_pass=False, exec_status="ok", forced=True),
        record(verifier_pass=False, exec_status="ok", forced=True),
        record(verifier_pass=False, exec_status=None),
    ]
    q = verifier_quality(records)
    assert q.passes == 4
    assert q.exec_ok == 5
    assert q.agree == 3
    assert q.precision == 0.75
    assert q.recall == 0.6
    assert q.false_pass_rate == 0.25


def test_verifier_quality_empty_is_none():
    q = verifier_quality([record(exec_status=None)])
    assert q.precision is None
    assert q.recall is None
    assert q.false_pass_rate is None


def planted_population() -> list[TaskRecord]:
    """Eight passes that run ok at uncertainty 0.1, two that fail at 0.8."""
    return [record(uncertainty=0.1)] * 8 + [
        record(exec_status="runtime_error", uncertainty=0.8)
    ] * 2


def test_filter_metrics_planted_population():
    records = planted_population()
    unfiltered = filter_metrics(records, 1.0)
    assert unfiltered.delivered == 10
    assert unfiltered.precision == 0.8
    assert abs(unfiltered.false_pass_rate - 0.2) < 1e-9
    tight = filter_metrics(records, 0.5)
    assert tight.delivered == 8
    assert tight.filtered_out == 2
    assert tight.precision == 1.0
    assert tight.false_pass_rate == 0.0


def test_filter_metrics_boundary_and_empty():
    records = [
        record(uncertainty=0.5),
        record(verifier_pass=False, uncertainty=0.0),
        record(exec_status=None, uncertainty=0.0),
    ]
    stats = filter_metrics(records, 0.5)
    assert stats.delivered == 1
    empty = filter_metrics(records, 0.1)
    assert empty.delivered == 0
    assert empty.precision is None


def test_theta_sweep_orders_by_theta():
    sweep = theta_sweep(planted_population(), [0.0, 0.5, 1.0])
    assert [s.theta for s in sweep] == [0.0, 0.5, 1.0]
    assert [s.delivered for s in sweep] == [0, 8, 10]


def test_graph_accuracy_buckets():
    records = [
        record(bucket="<8", graph=perfect_metrics()),
        record(bucket="<8", graph=GraphMetrics(1.0, 0.5, 2 / 3, 1.0, 1.0, 1.0, False)),
        record(bucket="<15", graph=None),
        record(bucket=">=25", graph=perfect_metrics()),
    ]
    out = graph_accuracy(records)
    assert set(out) == set(BUCKETS)
    assert out["<8"].tasks == 2
    assert abs(out["<8"].node_f1 - (1.0 + 2 / 3) / 2) < 1e-9
    assert out["<8"].exact == 0.5
    assert out["<15"].tasks == 0
    assert out[">=25"].exact == 1.0


def test_pass_rate_counts_all_records(schema, retriever, snapshot):
    from structsynth.bench import BenchReport

    report = BenchReport(
        records=[
            record(exec_status="ok"),
            record(exec_status="ok"),
            record(verifier_pass=False, exec_status=None),
            record(verifier_pass=False, exec_status="ok", forced=True),
        ]
    )
    assert report.pass_rate == 0.5
    assert report.calls_per_task == 1.0


def test_run_bench_small_subset(schema, retriever, snapshot):
    tasks = singles_suite()[:6]
    multis = multis_suite()[:2]
    report = run_bench(
        tasks,
        schema,
        retriever,
        lambda: PatternTableExtractor(schema),
        lambda: TemplateGenerator(schema),
        lambda: RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        multis=multis,
    )
    assert len(report.records) == 6
    assert report.pass_rate == 1.0
    assert report.quality().precision == 1.0
    assert [r.task_id for r in report.records] == [t.task_id for t in tasks]
    assert len(report.multi_records) == 2
    assert all(m.passed for m in report.multi_records)
    assert all(not m.reflected for m in report.multi_records)


def test_ablation_precision_rises_with_depth(schema, retriever, snapshot):
    act = TaskSpec("a", "Set the weight of net clk to 3", "action")
    qry = TaskSpec("q", "Print the weight of net clk", "query")
    plan = [
        (act, None),
        (qry, None),
        (act, DefectKind.UNKNOWN_METHOD),
        (act, DefectKind.UNKNOWN_METHOD),
        (qry, DefectKind.MISSING_OUTPUT),
        (qry, DefectKind.TIMEOUT_LOOP),
    ]
    points = {d: depth_quality(plan, schema, retriever, snapshot, d) for d in (1, 3, 4)}
    assert points[1].passes == 6
    assert points[1].precision == 0.5
    assert points[3].passes == 4
    assert points[3].precision == 0.75
    assert points[4].passes == 2
    assert points[4].precision == 1.0


def test_ablation_counts_unparseable_as_failing(schema, retriever, snapshot):
    plan = [
        (TaskSpec("a", "Set the weight of net clk to 3", "action"), DefectKind.SYNTAX)
    ]
    point = depth_quality(plan, schema, retriever, snapshot, 1)
    assert point.passes == 0
    assert point.precision is None

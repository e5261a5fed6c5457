"""Repair policy, loop guard, and escalation ladder."""

from __future__ import annotations

import pytest

from doubles import ScriptedExtractor, ScriptedGenerator
from structsynth.controller import (
    Action,
    ActionKind,
    SynthesisConfig,
    Trajectory,
    escalate,
    loop_guard,
    select_action,
    synthesize,
)
from structsynth.depgraph import DepGraph, EdgeKind, GraphEdge, GraphNode, NodeKind
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import (
    DefectKind,
    FaultInjectionGenerator,
    TemplateGenerator,
)
from structsynth.qas import analysis
from structsynth.fixtures import toy_schema
from structsynth.judges import RuleBasedJudge
from structsynth.qas.analysis import Candidate, analyze
from structsynth.runtime import min_steps
from structsynth.uncertainty import THRESHOLD
from structsynth.verifier import (
    L2_NULL_UNGUARDED,
    L2_USE_BEFORE_DEF,
    L3_NOT_IN_EVIDENCE,
    L3_UNKNOWN_METHOD,
    L4_STEP_BOUND,
    Issue,
    Severity,
    VerdictReport,
)


SCHEMA = toy_schema()


def verdict(layer: int, *codes: str, warning_codes: tuple[str, ...] = ()) -> VerdictReport:
    issues = [Issue(code=c, layer=layer, message=c) for c in codes]
    issues += [
        Issue(code=c, layer=3, message=c, severity=Severity.WARNING)
        for c in warning_codes
    ]
    passed = layer == 0
    return VerdictReport(passed=passed, failure_layer=layer, issues=tuple(issues))


def chain_graph() -> DepGraph:
    nodes = (
        GraphNode("d", NodeKind.OBJECT, "Design"),
        GraphNode("b", NodeKind.OBJECT, "Block"),
        GraphNode("n", NodeKind.OBJECT, "Net"),
    )
    edges = (
        GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock"),
        GraphEdge("b", "n", EdgeKind.ACQUISITION, "findNet"),
    )
    return DepGraph(nodes=nodes, edges=edges)


def edgeless_graph() -> DepGraph:
    return DepGraph(nodes=(GraphNode("d", NodeKind.OBJECT, "Design"),), edges=())


def trajectory_of(*verdicts: VerdictReport) -> Trajectory:
    t = Trajectory()
    for i, v in enumerate(verdicts):
        t.candidates.append(analyze(f"x{i} = {i}\n", SCHEMA))
        t.verdicts.append(v)
        t.evidence_versions.append(1)
    return t


def test_passing_verdict_accepts():
    action = select_action(trajectory_of(verdict(0)), chain_graph())
    assert action.kind is ActionKind.ACCEPT


def test_syntax_failure_regenerates_with_hints():
    action = select_action(trajectory_of(verdict(1, "L1_SYNTAX")), chain_graph())
    assert action.kind is ActionKind.REGENERATE
    assert action.hints == ("L1_SYNTAX: L1_SYNTAX",)
    assert not action.escalated


def test_first_causal_failure_regenerates():
    t = trajectory_of(verdict(2, L2_USE_BEFORE_DEF))
    assert select_action(t, chain_graph()).kind is ActionKind.REGENERATE


def test_persistent_causal_failure_re_extracts():
    t = trajectory_of(verdict(2, L2_USE_BEFORE_DEF), verdict(2, L2_NULL_UNGUARDED))
    assert select_action(t, chain_graph()).kind is ActionKind.GRAPH_RE_EXTRACT


def test_causal_run_interrupted_by_other_layer_regenerates():
    t = trajectory_of(verdict(2, "A"), verdict(3, "B"), verdict(2, "A"))
    assert select_action(t, chain_graph()).kind is ActionKind.REGENERATE


def test_first_api_mismatch_re_retrieves_blamed_edge():
    bad = VerdictReport(
        passed=False,
        failure_layer=3,
        issues=(
            Issue(
                code=L3_UNKNOWN_METHOD,
                layer=3,
                message="no such method",
                graph_region="b->n#findNet",
            ),
        ),
    )
    action = select_action(trajectory_of(bad), chain_graph())
    assert action.kind is ActionKind.EDGE_RE_RETRIEVE
    assert action.target_edge == "b->n#findNet"


def test_api_mismatch_without_region_targets_first_acquisition_edge():
    t = trajectory_of(verdict(3, L3_UNKNOWN_METHOD))
    action = select_action(t, chain_graph())
    assert action.kind is ActionKind.EDGE_RE_RETRIEVE
    assert action.target_edge == "d->b#getBlock"


def test_repeated_api_mismatch_regenerates():
    t = trajectory_of(verdict(3, L3_UNKNOWN_METHOD), verdict(3, L3_UNKNOWN_METHOD))
    action = select_action(t, chain_graph())
    assert action.kind is ActionKind.REGENERATE


def test_evidence_gap_warning_forces_re_retrieve():
    t = trajectory_of(
        verdict(3, L3_UNKNOWN_METHOD),
        verdict(3, L3_UNKNOWN_METHOD, warning_codes=(L3_NOT_IN_EVIDENCE,)),
    )
    assert select_action(t, chain_graph()).kind is ActionKind.EDGE_RE_RETRIEVE


def test_api_mismatch_on_edgeless_graph_regenerates():
    t = trajectory_of(verdict(3, L3_UNKNOWN_METHOD))
    assert select_action(t, edgeless_graph()).kind is ActionKind.REGENERATE


def test_semantic_failure_regenerates():
    t = trajectory_of(verdict(4, "L4_JUDGE_REJECTED"))
    assert select_action(t, chain_graph()).kind is ActionKind.REGENERATE


def _bulk_source(names: list[str]) -> Candidate:
    return analyze("".join(f"{n} = 1\n" for n in names), SCHEMA)


def test_loop_guard_fires_at_092():
    a = [f"x{i}" for i in range(24)]
    b = a[:23] + ["fresh"]
    t = Trajectory(
        candidates=[_bulk_source(a), _bulk_source(b)],
        verdicts=[verdict(2, "A"), verdict(2, "A")],
    )
    assert loop_guard(t)


def test_loop_guard_quiet_at_088():
    a = [f"x{i}" for i in range(24)]
    b = a[:22] + ["fresh"]
    t = Trajectory(
        candidates=[_bulk_source(a), _bulk_source(b)],
        verdicts=[verdict(2, "A"), verdict(2, "A")],
    )
    assert not loop_guard(t)


def test_loop_guard_needs_matching_fingerprint():
    src = analyze("x = 1\n", SCHEMA)
    twins = [src, src]
    t = Trajectory(candidates=twins, verdicts=[verdict(2, "A"), verdict(2, "B")])
    assert not loop_guard(t)
    t = Trajectory(candidates=twins, verdicts=[verdict(2, "A"), verdict(3, "A")])
    assert not loop_guard(t)
    t = Trajectory(candidates=twins, verdicts=[verdict(2, "A"), verdict(2, "A")])
    assert loop_guard(t)


def test_loop_guard_compares_code_multisets():
    src = analyze("x = 1\n", SCHEMA)
    va = verdict(3, "A", "A", "B")
    vb = verdict(3, "B", "A", "A")
    t = Trajectory(candidates=[src, src], verdicts=[va, vb])
    assert loop_guard(t)
    vc = verdict(3, "A", "B", "B")
    t = Trajectory(candidates=[src, src], verdicts=[va, vc])
    assert not loop_guard(t)


def test_loop_guard_ignores_candidates_before_window():
    src = analyze("x = 1\n", SCHEMA)
    t = Trajectory(
        candidates=[src, src],
        verdicts=[verdict(2, "A"), verdict(2, "A")],
        window_start=1,
    )
    assert not loop_guard(t)


def test_escalate_moves_past_last_action():
    t = trajectory_of(verdict(2, "A"), verdict(2, "A"))
    g = chain_graph()
    t.actions.append(Action(ActionKind.REGENERATE, "r"))
    a = escalate(t, g)
    assert a.kind is ActionKind.EDGE_RE_RETRIEVE
    assert a.escalated
    assert a.target_edge == "d->b#getBlock"

    t.actions[-1] = Action(ActionKind.EDGE_RE_RETRIEVE, "e")
    assert escalate(t, g).kind is ActionKind.GRAPH_RE_EXTRACT

    t.actions[-1] = Action(ActionKind.GRAPH_RE_EXTRACT, "g")
    assert escalate(t, g).kind is ActionKind.REGENERATE


def test_escalate_with_no_history_starts_from_regenerate():
    t = trajectory_of(verdict(2, "A"))
    assert escalate(t, chain_graph()).kind is ActionKind.EDGE_RE_RETRIEVE


def test_escalate_skips_retrieve_when_no_target():
    t = trajectory_of(verdict(2, "A"))
    t.actions.append(Action(ActionKind.REGENERATE, "r"))
    a = escalate(t, edgeless_graph())
    assert a.kind is ActionKind.GRAPH_RE_EXTRACT
    assert a.escalated


def test_synthesize_clean_task_accepts_immediately(schema, retriever):
    result = synthesize(
        prompt="Set the weight of net clk to 3",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=TemplateGenerator(schema),
        judge=RuleBasedJudge(),
    )
    assert result.accepted
    assert result.trajectory.actions == []
    assert len(result.trajectory.candidates) == 1
    assert result.uncertainty.combined <= THRESHOLD


def test_synthesize_heals_after_one_repair(schema, retriever):
    base = TemplateGenerator(schema)
    gen = FaultInjectionGenerator(
        base, DefectKind.USE_BEFORE_DEF, schema, heal_after=1
    )
    result = synthesize(
        prompt="Set the weight of net clk to 3",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=gen,
        judge=RuleBasedJudge(),
    )
    assert result.accepted
    kinds = [a.kind for a in result.trajectory.actions]
    assert kinds == [ActionKind.REGENERATE]
    assert len(result.trajectory.candidates) == 2
    assert result.trajectory.verdicts[0].failure_layer == 2
    assert result.trajectory.verdicts[1].passed


def test_synthesize_budget_zero_never_repairs(schema, retriever):
    gen = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=1
    )
    result = synthesize(
        prompt="Set the weight of net clk to 3",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=gen,
        judge=RuleBasedJudge(),
        config=SynthesisConfig(budget=0),
    )
    assert not result.accepted
    assert result.trajectory.actions == []
    assert result.verdict.failure_layer == 3


def test_synthesize_analyzes_a_re_emitted_program_once(schema, retriever, parse_calls):
    gen = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=2
    )
    result = synthesize(
        prompt="Set the weight of net clk to 3",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=gen,
        judge=RuleBasedJudge(),
    )
    first, again, healed = result.trajectory.candidates
    assert again is first  # the same text, so the same analysis
    assert healed.source != first.source
    assert parse_calls == [first.source, healed.source]
    assert [v.failure_layer for v in result.trajectory.verdicts] == [3, 3, 0]
    assert [(a.kind, a.escalated) for a in result.trajectory.actions] == [
        (ActionKind.EDGE_RE_RETRIEVE, False),
        (ActionKind.GRAPH_RE_EXTRACT, True),  # the loop guard saw the twins
    ]
    assert result.trajectory.evidence_versions == [1, 2, 3]
    assert result.accepted


# Lists the nets, then spins 19 times: a static bound of 1 + 1 + (1 + 19 * 3) = 60 steps.
SIXTY_STEPS = (
    "block = design.getBlock()\n"
    "for net in block.getNets():\n"
    "    print(net.getName())\n"
    "for i in range(19):\n"
    "    x = i\n"
    "    y = x\n"
)


@pytest.mark.parametrize("step_budget, accepted",
                         [(50, False), (59, False), (60, True), (None, True)])
def test_synthesize_rejects_a_program_over_the_step_budget_at_layer_four(
    schema, retriever, step_budget, accepted
):
    assert min_steps(analyze(SIXTY_STEPS, schema).script.statements) == 60
    config = SynthesisConfig() if step_budget is None else SynthesisConfig(step_budget=step_budget)
    result = synthesize(
        prompt="List all nets",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=ScriptedGenerator(sources=[SIXTY_STEPS]),
        judge=RuleBasedJudge(),
        config=config,
    )
    assert result.accepted is accepted
    if not accepted:
        assert result.verdict.failure_layer == 4
        assert result.verdict.codes() == (L4_STEP_BOUND,)


def test_graph_re_extract_resets_window_and_bumps_evidence(schema, retriever):
    gen = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=3
    )
    result = synthesize(
        prompt="Set the weight of net clk to 3",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=gen,
        judge=RuleBasedJudge(),
    )
    assert result.accepted
    kinds = [a.kind for a in result.trajectory.actions]
    assert kinds == [
        ActionKind.REGENERATE,
        ActionKind.EDGE_RE_RETRIEVE,
        ActionKind.GRAPH_RE_EXTRACT,
    ]
    assert [a.escalated for a in result.trajectory.actions] == [False, True, True]
    assert result.trajectory.window_start == 3
    assert result.trajectory.evidence_versions == [1, 1, 2, 3]


def test_failed_graph_re_extraction_keeps_the_first_graph(schema, retriever):
    prompt = "Set the weight of net clk to 3"
    first = PatternTableExtractor(schema).extract(prompt, None, ())
    extractor = ScriptedExtractor([first, "not a graph"])
    gen = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=3
    )
    result = synthesize(
        prompt=prompt,
        schema=schema,
        retriever=retriever,
        extractor=extractor,
        generator=gen,
        judge=RuleBasedJudge(),
    )
    assert result.trajectory.actions[-1].kind is ActionKind.GRAPH_RE_EXTRACT
    assert len(extractor.calls) == 3  # one graph, then two unparseable responses
    assert result.graph is first
    assert result.accepted


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_stubborn_defect_exhausts_budget(schema, retriever, budget):
    gen = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=99
    )
    result = synthesize(
        prompt="Set the weight of net clk to 3",
        schema=schema,
        retriever=retriever,
        extractor=PatternTableExtractor(schema),
        generator=gen,
        judge=RuleBasedJudge(),
        config=SynthesisConfig(budget=budget),
    )
    assert not result.accepted
    assert len(result.trajectory.actions) == budget
    assert len(result.trajectory.candidates) == budget + 1


def test_synthesize_parses_and_types_each_candidate_once(schema, retriever, monkeypatch):
    def run(generator):
        return synthesize(
            prompt="Set the weight of net clk to 3",
            schema=schema,
            retriever=retriever,
            extractor=PatternTableExtractor(schema),
            generator=generator,
            judge=RuleBasedJudge(),
        )

    clean = run(TemplateGenerator(schema)).source
    calls = {"parse": 0, "infer_types": 0}
    for name in calls:
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(analysis, name, counted)
    result = run(ScriptedGenerator(["x = = 1\n", "ghost.getName()\n", clean]))
    assert [v.failure_layer for v in result.trajectory.verdicts] == [1, 2, 0]
    # One parse per candidate, one inference per parseable candidate.
    assert calls == {"parse": 3, "infer_types": 2}

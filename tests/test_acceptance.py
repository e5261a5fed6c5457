"""End-to-end behavior contracts for the whole package.

Each test pins one shipping guarantee with hand-derived expectations;
run pytest with -v to get one verdict line per contract.
"""

from __future__ import annotations

import random
import time

from doubles import ScriptedGenerator
from programs import random_conformant_program
from structsynth.bench import TaskSpec, filter_metrics, run_bench
from structsynth.controller import ActionKind, SynthesisConfig, synthesize
from structsynth.depgraph import (
    DepGraph,
    EdgeKind,
    GraphEdge,
    GraphNode,
    NodeKind,
    graph_metrics,
)
from structsynth.extractors import PatternTableExtractor
from structsynth.fixtures import make_scaled_snapshot
from structsynth.generators import (
    DEFECT_CODE,
    DefectKind,
    FaultInjectionGenerator,
    TemplateGenerator,
    apply_defect,
)
from structsynth.judges import RuleBasedJudge
from structsynth.orchestrator import RuleBasedReflector, run_episode, run_with_reflection
from structsynth.qas.analysis import analyze
from structsynth.retrieval import ApiDoc, EvidenceSet
from structsynth.runtime import ExecStatus, Session
from structsynth import uncertainty
from structsynth.uncertainty import compute_uncertainty
from structsynth.verifier import L4_STEP_BOUND, Issue, VerdictReport, verify_all
from suites import depth_quality, record, singles_suite, template_program

TOL = 1e-9
API_FAULTS = {"UnknownMethod", "BadAttribute", "NullAccess"}


def test_each_executed_task_costs_exactly_one_runtime_call(schema, retriever, snapshot):
    tasks = singles_suite()
    start = time.monotonic()
    report = run_bench(
        tasks,
        schema,
        retriever,
        extractor_factory=lambda: PatternTableExtractor(schema),
        generator_factory=lambda: TemplateGenerator(schema),
        judge_factory=RuleBasedJudge,
        session_factory=lambda: Session(snapshot, schema),
    )
    elapsed = time.monotonic() - start

    executed = [r for r in report.records if r.exec_status is not None]
    assert len(executed) == len(tasks)
    assert all(r.tool_calls == 1 for r in executed)
    assert sum(r.tool_calls for r in report.records) == len(executed)
    assert elapsed < 1.0

    # failed and timed-out executions bill exactly one call too
    session = Session(snapshot, schema, step_budget=12)
    assert session.execute("ghost.getName()\n").status is not ExecStatus.OK
    assert session.execute("x = = 1\n").status is not ExecStatus.OK
    assert session.execute("for spin in range(9):\n    noop = spin + 1\n").status is ExecStatus.TIMEOUT
    assert session.tool_calls == 3


def test_accepted_programs_never_raise_api_faults_at_runtime(schema, snapshot):
    start = time.monotonic()
    scaled = make_scaled_snapshot(schema)
    rng = random.Random(99)
    for i in range(500):
        source = random_conformant_program(rng)
        verdict = verify_all(analyze(source, schema), None, schema, max_layer=3)
        assert verdict.passed, (i, verdict.issues)
        result = Session(scaled, schema, step_budget=200_000).execute(source)
        assert result.status is ExecStatus.OK, (i, result.error_kind, result.error_message)
        assert result.error_kind not in API_FAULTS

    for task in singles_suite():
        source, graph = template_program(task.prompt, schema)
        verdict = verify_all(analyze(source, schema), graph, schema, RuleBasedJudge(), task.prompt)
        assert verdict.passed, (task.task_id, verdict.issues)
        result = Session(snapshot, schema).execute(source)
        assert result.status is ExecStatus.OK, (task.task_id, result.error_kind)
        assert result.error_kind not in API_FAULTS

    assert time.monotonic() - start < 30.0


def _verdict(layer: int) -> VerdictReport:
    if layer == 0:
        return VerdictReport(passed=True, failure_layer=0, issues=())
    probe = Issue(code=f"L{layer}_PROBE", layer=layer, message="planted")
    return VerdictReport(passed=False, failure_layer=layer, issues=(probe,))


def _evidence(*paths: str) -> EvidenceSet:
    docs = tuple(ApiDoc(doc_id=f"doc{i}", api_path=p, text=p) for i, p in enumerate(paths))
    return EvidenceSet(paths=paths, docs=docs)


S1 = "block = design.getBlock()\n"
S2 = S1 + "nets = block.getNets()\n"
S4 = S2 + "insts = block.getInsts()\n" + 'net = block.findNet("clk")\n'
S_NOCALL = "x = 1\n"
S_BADIMPORT = "import foo\n" + S2
S_UNPARSEABLE = "x = = 1\n"
S_MANYFAULTS = "import foo\nimport bar\nx = foo.A.B\ny = bar.C.D\ndesign.getBogus()\n"


def test_uncertainty_scores_match_hand_worked_fixtures(schema, monkeypatch):
    ev_b = _evidence("Design.getBlock")
    ev_bn = _evidence("Design.getBlock", "Block.getNets")
    ev_empty = _evidence()

    # columns: candidates, verdict layers, evidence,
    #          expected (trajectory risk, coverage risk)
    rows = [
        ([S1], [0], ev_b, (0.0, 0.0)),
        ([S_NOCALL], [2], ev_b, (0.0, 0.0)),
        ([S2], [0], ev_b, (0.0, 0.5)),
        ([S_BADIMPORT], [3], ev_bn, (0.0, 0.0)),
        ([S4], [3], ev_bn, (0.0, 0.5)),
        ([S1, S1], [2, 2], ev_b, (0.3 + 0.3, 0.0)),
        ([S2, S1], [2, 0], ev_b, (0.3 * 0.5, 0.0)),
        ([S1, S4], [1, 4], ev_b, (0.3 * 0.25 + 0.3 * 1.0, 0.75)),
        ([S_UNPARSEABLE], [1], ev_b, (0.0, 1.0)),
        ([S_UNPARSEABLE, S_UNPARSEABLE], [1, 1], ev_b, (0.6, 1.0)),
        ([S2], [0], ev_empty, (0.0, 1.0)),
        ([S_NOCALL], [0], ev_empty, (0.0, 0.0)),
        ([S1, S2, S2], [3, 2, 2], ev_b, (0.3 * 0.75 + 0.3 * 0.5, 0.5)),
        ([S_MANYFAULTS], [3], ev_empty, (0.0, 0.0)),
    ]
    assert len(rows) >= 12
    for candidates, layers, evidence, (traj, cov) in rows:
        verdicts = [_verdict(n) for n in layers]
        analyzed = [analyze(c, schema) for c in candidates]
        report = compute_uncertainty(analyzed, verdicts, evidence)
        trajectory_risk = 0.3 * report.stagnation + 0.3 * report.ineffectiveness
        assert abs(trajectory_risk - traj) < TOL, (candidates, layers)
        assert abs((1.0 - report.coverage) - cov) < TOL, (candidates, layers)
        expected = 0.3 * traj + 0.3 * cov
        assert abs(report.combined - expected) < TOL, (candidates, layers)
        assert report.filtered == (report.combined > uncertainty.THRESHOLD)

    # a score sitting exactly on the threshold is delivered, not filtered
    monkeypatch.setattr(uncertainty, "THRESHOLD", 0.15)
    boundary = compute_uncertainty([analyze(S2, schema)], [_verdict(0)], ev_b)
    assert boundary.combined == 0.15
    assert not boundary.filtered
    monkeypatch.setattr(uncertainty, "THRESHOLD", 0.1)
    assert compute_uncertainty([analyze(S2, schema)], [_verdict(0)], ev_b).filtered


def _obj(nid: str, type_name: str) -> GraphNode:
    return GraphNode(id=nid, kind=NodeKind.OBJECT, type_name=type_name)


def _graph(nodes, edges=()) -> DepGraph:
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges))


def _random_graph(rng: random.Random) -> DepGraph:
    types = ["Design", "Block", "Net", "Inst", "ITerm"]
    kinds = [NodeKind.OBJECT, NodeKind.OBJECT, NodeKind.CONDITION, NodeKind.ACTION]
    nodes = []
    for i in range(rng.randint(1, 6)):
        kind = rng.choice(kinds)
        tname = rng.choice(types) if kind is NodeKind.OBJECT else None
        nodes.append(GraphNode(id=f"n{i}", kind=kind, type_name=tname))
    edges = []
    seen = set()
    for _ in range(rng.randint(0, 8)):
        src, dst = rng.choice(nodes).id, rng.choice(nodes).id
        kind = rng.choice([EdgeKind.ACQUISITION, EdgeKind.DEPENDENCY])
        via = rng.choice([None, "getBlock", "getNets"])
        if src == dst or (src, dst, kind, via) in seen:
            continue
        seen.add((src, dst, kind, via))
        edges.append(GraphEdge(src, dst, kind, via))
    return _graph(nodes, edges)


def test_graph_scores_match_hand_worked_confusion_counts(schema):
    base_nodes = [_obj("d", "Design"), _obj("b", "Block"), _obj("n", "Net")]
    base_edges = [
        GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock"),
        GraphEdge("b", "n", EdgeKind.ACQUISITION, "getNets"),
    ]
    truth = _graph(base_nodes, base_edges)

    extra = _graph(
        base_nodes + [_obj("i", "Inst")],
        base_edges + [GraphEdge("b", "i", EdgeKind.ACQUISITION, "getInsts")],
    )
    short = _graph(base_nodes[:2], base_edges[:1])
    empty = _graph([])
    two = _graph([_obj("d", "Design"), _obj("b", "Block")],
                 [GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock")])
    flipped = _graph(two.nodes, [GraphEdge("b", "d", EdgeKind.ACQUISITION, "getBlock")])
    softened = _graph(two.nodes, [GraphEdge("d", "b", EdgeKind.DEPENDENCY, None)])
    cond = _graph([_obj("d", "Design"), GraphNode(id="c", kind=NodeKind.CONDITION)])
    act = _graph([_obj("d", "Design"), GraphNode(id="a", kind=NodeKind.ACTION)])
    doubled = _graph(
        base_nodes + [_obj("n2", "Net")],
        base_edges + [GraphEdge("b", "n2", EdgeKind.ACQUISITION, "findNet")],
    )

    def f1(p: float, r: float) -> float:
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    # columns: pred, truth, node (P, R), edge (P, R), exact
    pairs = [
        (truth, truth, (1.0, 1.0), (1.0, 1.0), True),
        (extra, truth, (3 / 4, 1.0), (2 / 3, 1.0), False),
        (short, truth, (1.0, 2 / 3), (1.0, 1 / 2), False),
        (empty, truth, (1.0, 0.0), (1.0, 0.0), False),
        (empty, empty, (1.0, 1.0), (1.0, 1.0), True),
        (flipped, two, (1.0, 1.0), (0.0, 0.0), False),
        (softened, two, (1.0, 1.0), (0.0, 0.0), False),
        (act, cond, (1 / 2, 1 / 2), (1.0, 1.0), False),
        (doubled, truth, (1.0, 1.0), (1.0, 1.0), True),
    ]
    assert len(pairs) >= 8
    for pred, ref, (np_, nr), (ep, er), exact in pairs:
        m = graph_metrics(pred, ref)
        assert (m.node_precision, m.node_recall, m.node_f1) == (np_, nr, f1(np_, nr))
        assert (m.edge_precision, m.edge_recall, m.edge_f1) == (ep, er, f1(ep, er))
        assert m.exact_match is exact

    rng = random.Random(7)
    for _ in range(100):
        a, b = _random_graph(rng), _random_graph(rng)
        ab, ba = graph_metrics(a, b), graph_metrics(b, a)
        assert ab.node_precision == ba.node_recall
        assert ab.node_recall == ba.node_precision
        assert ab.edge_precision == ba.edge_recall
        assert ab.edge_recall == ba.edge_precision
        assert ab.node_f1 == ba.node_f1
        assert ab.edge_f1 == ba.edge_f1
        assert ab.exact_match == ba.exact_match


def test_planted_defects_surface_at_their_home_layer(schema):
    # Each kind planted into each suite program. Wherever the plant changes
    # the program, the verdict rejects it with the kind's home code, at the
    # layer the verdict failed. The kinds that drop a None guard, a print or
    # a mutating call apply only to programs that have one.
    applies = dict.fromkeys(DefectKind, 0)
    judge = RuleBasedJudge()
    for task in singles_suite():
        clean, graph = template_program(task.prompt, schema)
        for kind in DefectKind:
            planted = apply_defect(clean, kind, schema)
            if planted == clean:
                continue
            applies[kind] += 1
            verdict = verify_all(analyze(planted, schema), graph, schema, judge, task.prompt)
            home = [i for i in verdict.errors() if i.code == DEFECT_CODE[kind]]
            assert home, (kind, task.prompt, verdict.issues)
            assert home[0].layer == verdict.failure_layer, (kind, task.prompt, verdict.issues)
            if kind is DefectKind.TIMEOUT_LOOP:
                assert [i.code for i in verdict.errors()] == [L4_STEP_BOUND], verdict.issues
    assert applies == {
        **dict.fromkeys(DefectKind, 46),
        DefectKind.NULL_UNGUARDED: 14,
        DefectKind.MISSING_OUTPUT: 28,
        DefectKind.MISSING_ACTION: 18,
    }


def _heal_run(schema, retriever, defect: DefectKind, heal_after: int, budget: int):
    generator = FaultInjectionGenerator(TemplateGenerator(schema), defect, schema, heal_after=heal_after)
    return synthesize(
        "Set weight of net clk to 2",
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator,
        RuleBasedJudge(),
        SynthesisConfig(budget=budget),
    )


def test_repair_policy_prescribes_the_expected_action_sequences(schema, retriever):
    for defect in (DefectKind.USE_BEFORE_DEF, DefectKind.UNKNOWN_METHOD):
        for heal_after in (1, 2, 3, 4):
            result = _heal_run(schema, retriever, defect, heal_after, budget=5)
            rerun = _heal_run(schema, retriever, defect, heal_after, budget=5)
            assert result.accepted, (defect, heal_after)
            assert len(result.trajectory.candidates) == heal_after + 1
            # every repair regenerates; only the hints it carries differ
            assert [a.kind for a in result.trajectory.actions] == (
                [ActionKind.REGENERATE] * heal_after
            ), (defect, heal_after)
            assert rerun.trajectory.actions == result.trajectory.actions

    # a generator that never heals burns the whole budget, one regeneration a round
    stuck = _heal_run(schema, retriever, DefectKind.USE_BEFORE_DEF, heal_after=99, budget=4)
    assert not stuck.accepted
    assert [a.kind for a in stuck.trajectory.actions] == [ActionKind.REGENERATE] * 4
    # five identical flow-layer verdicts: stagnation and ineffectiveness both
    # saturate, and the contract's cards back all 3 resolved calls (getBlock,
    # findNet and setWeight), so combined risk = 0.3 * 0.6 + 0.3 * 0
    assert stuck.uncertainty.coverage == 1.0
    assert abs(stuck.uncertainty.combined - 0.18) < TOL


def test_acceptance_rate_is_monotone_in_repair_budget(schema, retriever):
    prompts = [
        "Set weight of net clk to 2",
        "Print the weight of net rst",
        "Mark instance u1 as placed",
        "List all nets",
        "Print the name of instance u1",
        "Count the nets",
    ]
    defects = [
        DefectKind.SYNTAX,
        DefectKind.USE_BEFORE_DEF,
        DefectKind.MISSING_ACQUISITION,
        DefectKind.NULL_UNGUARDED,
        DefectKind.UNKNOWN_METHOD,
        DefectKind.BAD_ENUM,
        DefectKind.ARITY,
        DefectKind.MISSING_OUTPUT,
    ]
    rng = random.Random(20240817)
    population = [
        (rng.choice(prompts), rng.choice(defects), rng.randint(0, 6)) for _ in range(100)
    ]

    accepted_at: list[int] = []
    for budget in (1, 2, 3, 4, 5):
        accepted = 0
        for prompt, defect, heal_after in population:
            generator = FaultInjectionGenerator(
                TemplateGenerator(schema), defect, schema, heal_after=heal_after
            )
            result = synthesize(
                prompt,
                schema,
                retriever,
                PatternTableExtractor(schema),
                generator,
                RuleBasedJudge(),
                SynthesisConfig(budget=budget),
            )
            accepted += result.accepted
        accepted_at.append(accepted)

    assert all(a <= b for a, b in zip(accepted_at, accepted_at[1:])), accepted_at
    assert 0 < accepted_at[0] < accepted_at[-1] < len(population)


def test_uncertainty_filter_trades_recall_for_strict_precision_gain():
    population = [record(uncertainty=0.1)] * 8 + [
        record(exec_status="runtime_error", uncertainty=0.8)
    ] * 2
    baseline = filter_metrics(population, theta=1.0)
    tightened = filter_metrics(population, theta=0.5)

    # theta at the scale ceiling reproduces the unfiltered pass set exactly
    assert baseline.delivered == 10
    assert baseline.filtered_out == 0
    assert baseline.precision == 8 / 10
    assert baseline.false_pass_rate == 1.0 - 8 / 10

    assert tightened.delivered == 8
    assert tightened.filtered_out == 2
    assert tightened.precision == 1.0
    assert tightened.false_pass_rate == 0.0
    assert tightened.precision > baseline.precision
    assert tightened.false_pass_rate < baseline.false_pass_rate


def test_deeper_verification_strictly_raises_delivered_precision(schema, retriever, snapshot):
    def spec(tid: str, prompt: str, kind: str) -> TaskSpec:
        return TaskSpec(task_id=tid, prompt=prompt, kind=kind)

    clean = [
        spec("ok-1", "Set weight of net clk to 2", "action"),
        spec("ok-2", "Print the weight of net rst", "query"),
        spec("ok-3", "Mark instance u1 as placed", "action"),
        spec("ok-4", "List all nets", "query"),
        spec("ok-5", "Count the nets", "query"),
        spec("ok-6", "Print the name of instance u1", "query"),
        spec("ok-7", "Set the weight of net data to 7", "action"),
        spec("ok-8", "Print the names of all instances", "query"),
        spec("ok-9", "Mark every instance as firm", "action"),
        spec("ok-10", "Print the weights of all nets", "query"),
    ]
    hallucinated = [
        spec("um-1", "Set weight of net clk to 2", "action"),
        spec("um-2", "Print the weight of net rst", "query"),
        spec("um-3", "List all nets", "query"),
        spec("um-4", "Mark instance u1 as placed", "action"),
        spec("um-5", "Count the instances in this block", "query"),
        spec("um-6", "Print the weights of all nets", "query"),
    ]
    unguarded = [
        spec("null-1", "Set the weight of net ghost to 3", "action"),
        spec("null-2", "Set weight of net phantom to 1", "action"),
        spec("null-3", "Set the weight of net ghost to 9", "action"),
        spec("null-4", "Set weight of net wraith to 4", "action"),
    ]
    silent = [
        spec("mute-1", "Print the weight of net clk", "query"),
        spec("mute-2", "List all nets", "query"),
    ]
    spinning = [
        spec("spin-1", "Print the name of instance u1", "query"),
        spec("spin-2", "Count the nets", "query"),
        spec("spin-3", "List all instances", "query"),
    ]
    plan = (
        [(t, None) for t in clean]
        + [(t, DefectKind.UNKNOWN_METHOD) for t in hallucinated]
        + [(t, DefectKind.NULL_UNGUARDED) for t in unguarded]
        + [(t, DefectKind.MISSING_OUTPUT) for t in silent]
        + [(t, DefectKind.TIMEOUT_LOOP) for t in spinning]
    )

    points = {d: depth_quality(plan, schema, retriever, snapshot, d) for d in (1, 3, 4)}

    # syntax-only checking delivers every parseable program: 12 good of 25
    assert (points[1].passes, points[1].agree) == (25, 12)
    assert points[1].precision == 12 / 25
    # flow and alignment checks reject the hallucinated and unguarded programs
    assert (points[3].passes, points[3].agree) == (15, 12)
    assert points[3].precision == 12 / 15
    # the judge rejects silent and spinning programs; nothing bad survives
    assert (points[4].passes, points[4].agree) == (10, 10)
    assert points[4].precision == 1.0

    assert points[1].precision < points[3].precision <= points[4].precision


def test_multistep_episodes_cascade_share_state_and_recover_by_reflection(schema, retriever, snapshot):
    start = time.monotonic()
    extractor = PatternTableExtractor(schema)
    judge = RuleBasedJudge()

    # a rejected step halts the episode; nothing after it reaches the runtime
    list_nets = (
        "block = design.getBlock()\n"
        "nets = block.getNets()\n"
        "for net in nets:\n"
        "    print(net.getName())\n"
    )
    prompts = ["List all nets", "Print the weight of net clk", "Count the nets"]
    for _ in range(2):
        scripted = ScriptedGenerator(sources=[list_nets, "print(ghost)\n"])
        episode = run_episode(
            "cascade",
            prompts,
            schema,
            retriever,
            extractor,
            scripted,
            judge,
            Session(snapshot, schema),
            SynthesisConfig(budget=0),
        )
        assert [s.status for s in episode.steps] == ["ok", "rejected", "skipped"]
        assert episode.first_failure() == 1
        assert episode.tool_calls == 1
        assert not episode.passed

    # a mutation made by step 1 is visible to step 2 through the shared session
    session = Session(snapshot, schema)
    episode = run_episode(
        "propagate",
        ["Set the weight of net clk to 9", "Print the weight of net clk"],
        schema,
        retriever,
        extractor,
        TemplateGenerator(schema),
        judge,
        session,
    )
    assert [s.status for s in episode.steps] == ["ok", "ok"]
    assert episode.steps[1].execution.output == ("9",)
    assert episode.tool_calls == 2
    assert [s.execution.mutations for s in episode.steps] == [1, 0]

    # reflection turns a failed episode into a passing one on the second try:
    # with no repair budget, only the reflected diagnosis reaches the generator
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=1
    )
    outcome = run_with_reflection(
        "reflect",
        ["List all nets"],
        schema,
        retriever,
        extractor,
        generator,
        judge,
        lambda: Session(snapshot, schema),
        RuleBasedReflector(),
        SynthesisConfig(budget=0),
    )
    assert not outcome.first.passed
    assert list(outcome.hints) == [0] and outcome.hints[0].startswith("L2_USE_BEFORE_DEF: ")
    assert outcome.second is not None and outcome.second.passed
    assert outcome.passed

    assert time.monotonic() - start < 10.0

"""The synthesis loop: one extraction and one retrieval, then repair by regeneration."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from doubles import ScriptedExtractor, ScriptedGenerator
from structsynth.controller import ActionKind, SynthesisConfig, synthesize
from structsynth.depgraph import DepGraph, ExtractorFailure, MAX_ROUNDS
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import (
    DefectKind,
    FaultInjectionGenerator,
    TemplateGenerator,
)
from structsynth.qas import analysis
from structsynth.judges import RuleBasedJudge
from structsynth.qas.analysis import analyze
from structsynth.retrieval import Retriever
from structsynth.runtime import min_steps
from structsynth.uncertainty import THRESHOLD
from structsynth.verifier import L4_STEP_BOUND
from suites import OUT_OF_SCOPE_PROMPTS


@dataclass
class CountingRetriever:
    """Forwards to a real retriever and logs each call as (method, its first argument)."""

    inner: Retriever
    calls: list[tuple[str, object]] = field(default_factory=list)

    def retrieve(self, graph, schema):
        self.calls.append(("retrieve", graph))
        return self.inner.retrieve(graph, schema)

    def refresh(self, evidence, paths):
        self.calls.append(("refresh", evidence))
        return self.inner.refresh(evidence, paths)


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
        (ActionKind.REGENERATE, False),
        (ActionKind.REGENERATE, False),
    ]
    assert result.accepted


def test_synthesize_extracts_and_retrieves_once_however_many_repairs(schema, retriever):
    prompt = "Set the weight of net clk to 3"
    extractor = ScriptedExtractor([PatternTableExtractor(schema).extract(prompt, None, ())])
    counting = CountingRetriever(retriever)
    gen = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=3
    )
    result = synthesize(prompt, schema, counting, extractor, gen, RuleBasedJudge())
    assert result.accepted
    assert len(result.trajectory.actions) == 3
    assert len(extractor.calls) == 1
    assert counting.calls == [("retrieve", result.graph)]


def test_each_repair_sends_the_reflection_hint_and_the_last_verdicts_errors(
    schema, retriever
):
    clean = synthesize(
        "Set the weight of net clk to 3", schema, retriever,
        PatternTableExtractor(schema), TemplateGenerator(schema), RuleBasedJudge(),
    ).source
    sources = ["x = = 1\n", "ghost.getName()\n", clean]
    gen = ScriptedGenerator(list(sources))
    result = synthesize(
        "Set the weight of net clk to 3", schema, retriever,
        PatternTableExtractor(schema), gen, RuleBasedJudge(),
        reflection_hint="mind the net",
    )
    verdicts = result.trajectory.verdicts
    assert [v.failure_layer for v in verdicts] == [1, 2, 0]
    first, *repairs = gen.requests
    assert first.hints == ("mind the net",)
    assert first.previous is None
    assert len(repairs) == 2
    for request, verdict, previous in zip(repairs, verdicts, sources):
        errors = tuple(f"{i.code}: {i.message}" for i in verdict.errors())
        assert errors
        assert request.hints == ("mind the net",) + errors
        assert request.previous == previous
        assert request.graph is result.graph
        assert request.evidence is result.evidence
    assert repairs[0].hints[1].startswith("L1_SYNTAX: ")
    assert [a.hints for a in result.trajectory.actions] == [r.hints for r in repairs]


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
        assert [i.code for i in result.verdict.errors()] == [L4_STEP_BOUND]


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


@pytest.mark.parametrize("prompt", OUT_OF_SCOPE_PROMPTS)
def test_a_prompt_no_pattern_matches_is_refused_before_generation(schema, retriever, prompt):
    gen = ScriptedGenerator(["print(1)\n"])
    with pytest.raises(ExtractorFailure, match="no pattern matches the prompt"):
        synthesize(prompt, schema, retriever, PatternTableExtractor(schema), gen, RuleBasedJudge())
    assert gen.requests == []


def _all_nets_graph(net_type: str, via: str) -> DepGraph:
    """The graph of "Print the names of all nets" with the given net type and net edge."""
    return DepGraph.from_dict({
        "nodes": [{"id": "design", "type": "Design"}, {"id": "block", "type": "Block"},
                  {"id": "net", "type": net_type, "label": "show=getName"}],
        "edges": [{"src": "design", "dst": "block", "via": "getBlock"},
                  {"src": "block", "dst": "net", "via": via}],
    })


@pytest.mark.parametrize("graph, code", [
    (_all_nets_graph("Net", "getInsts"), "invalid_transition: Block.getInsts returns Inst"),
    (_all_nets_graph("Wire", "getNets"), "hallucinated_type: type 'Wire' is not in the API"),
], ids=["invalid-transition", "hallucinated-type"])
def test_a_graph_that_never_validates_is_refused_before_generation(
    schema, retriever, graph, code
):
    extractor = ScriptedExtractor([graph])
    gen = ScriptedGenerator(["print(1)\n"])
    with pytest.raises(ExtractorFailure, match=code):
        synthesize("Print the names of all nets", schema, retriever, extractor, gen,
                   RuleBasedJudge())
    assert len(extractor.calls) == MAX_ROUNDS
    assert gen.requests == []


def test_an_action_under_an_ownerless_condition_names_no_call(schema, retriever):
    """A condition node with no incoming edge validates; the action under it
    has no object to be called on, so the contract names no call for it."""
    prompt = "Print the names of all nets"
    base = PatternTableExtractor(schema).extract(prompt, None, ()).to_dict()
    g = DepGraph.from_dict({
        "nodes": base["nodes"] + [{"id": "cond", "kind": "condition", "label": "name=clk"},
                                  {"id": "act", "kind": "action", "label": "setWeight(2)"}],
        "edges": base["edges"] + [{"src": "cond", "dst": "act", "kind": "dependency"}],
    })
    result = synthesize(prompt, schema, retriever, ScriptedExtractor([g]),
                        TemplateGenerator(schema), RuleBasedJudge())
    assert result.graph is g
    assert result.evidence.paths == ("Design.getBlock", "Block.getNets", "Net.getName")
    assert result.uncertainty.coverage == 1.0

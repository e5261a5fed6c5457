"""Multi-step episodes: ordering, skip-on-failure, reflection retries."""

from __future__ import annotations

from doubles import CrashingSession, ScriptedGenerator, ScriptedReflector
from structsynth.controller import SynthesisConfig
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import (
    DefectKind,
    FaultInjectionGenerator,
    TemplateGenerator,
)
from structsynth.judges import RuleBasedJudge
from structsynth.orchestrator import (
    RuleBasedReflector,
    run_episode,
    run_with_reflection,
)
from structsynth.runtime import Session

LIST_NETS = (
    "block = design.getBlock()\n"
    "for net in block.getNets():\n"
    "    print(net.getName())\n"
)


def episode(prompts, schema, retriever, session, generator=None, config=None, **kw):
    return run_episode(
        "ep",
        prompts,
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator or TemplateGenerator(schema),
        RuleBasedJudge(),
        session,
        config or SynthesisConfig(),
        **kw,
    )


def test_steps_share_one_session(schema, retriever, snapshot):
    session = Session(snapshot, schema)
    result = episode(
        ["Set the weight of net clk to 9", "Print the weight of net clk"],
        schema,
        retriever,
        session,
    )
    assert result.passed
    assert [s.status for s in result.steps] == ["ok", "ok"]
    assert result.steps[1].execution.output == ("9",)
    assert result.tool_calls == 2
    assert result.first_failure() is None


def test_episode_executes_each_accepted_parse_without_parsing_again(
    schema, retriever, snapshot, parse_calls
):
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=1
    )
    session = Session(snapshot, schema)
    result = episode(
        ["Set the weight of net clk to 9", "Print the weight of net clk"],
        schema,
        retriever,
        session,
        generator=generator,
    )
    assert [s.status for s in result.steps] == ["ok", "ok"]
    candidates = [c.source for s in result.steps for c in s.synthesis.trajectory.candidates]
    assert len(candidates) == 3  # one planted defect, repaired once
    assert parse_calls == candidates  # one parse per candidate, none to execute
    assert result.tool_calls == 2


def test_each_step_analyzes_its_program_even_when_the_text_repeats(
    schema, retriever, snapshot, parse_calls
):
    result = episode(
        ["List all nets", "List all nets"],
        schema,
        retriever,
        Session(snapshot, schema),
        generator=ScriptedGenerator([LIST_NETS]),
    )
    assert [s.status for s in result.steps] == ["ok", "ok"]
    assert parse_calls == [LIST_NETS, LIST_NETS]  # no analysis outlives its synthesis


def test_first_failure_skips_remaining_steps(schema, retriever, snapshot):
    generator = ScriptedGenerator(sources=[LIST_NETS, "print(ghost)\n"])
    result = episode(
        [
            "List all nets in the block",
            "Print the weight of net clk",
            "List all nets in the block",
        ],
        schema,
        retriever,
        Session(snapshot, schema),
        generator=generator,
        config=SynthesisConfig(budget=0),
    )
    assert [s.status for s in result.steps] == ["ok", "rejected", "skipped"]
    assert result.first_failure() == 1
    assert not result.passed
    assert result.tool_calls == 1
    assert "layer 2" in result.steps[1].detail


def test_runtime_failure_marks_step_exec_failed(schema, retriever, snapshot):
    session = CrashingSession(snapshot, schema)
    result = episode(
        ["Set the weight of net clk to 3"], schema, retriever, session
    )
    assert [s.status for s in result.steps] == ["exec_failed"]
    assert result.steps[0].detail == "Crash"
    assert result.first_failure() == 0


def test_generator_collapse_marks_step_error(schema, retriever, snapshot):
    generator = ScriptedGenerator(sources=[""])
    result = episode(
        ["Set the weight of net clk to 3", "Print the weight of net clk"],
        schema,
        retriever,
        Session(snapshot, schema),
        generator=generator,
    )
    assert [s.status for s in result.steps] == ["error", "skipped"]
    assert "empty" in result.steps[0].detail


def test_empty_episode_never_passes(schema, retriever, snapshot):
    result = episode([], schema, retriever, Session(snapshot, schema))
    assert not result.passed
    assert result.steps == []


def test_reflected_retry_heals_from_the_diagnosis(schema, retriever, snapshot):
    # With no repair budget the first run sends the generator no diagnosis;
    # the retry's reflection hint carries the defect's home code, and it heals.
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=1
    )
    outcome = run_with_reflection(
        "m1",
        ["Set the weight of net clk to 3"],
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator,
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        reflector=RuleBasedReflector(),
        config=SynthesisConfig(budget=0),
    )
    assert [s.status for s in outcome.first.steps] == ["rejected"]
    assert outcome.first.tool_calls == 0
    diagnosis = outcome.first.steps[0].synthesis.verdict.diagnosis()
    assert outcome.hints == {0: "; ".join(diagnosis)}
    assert diagnosis[0].startswith("L2_USE_BEFORE_DEF: ")
    assert outcome.second is not None
    assert outcome.second.passed
    assert outcome.passed
    assert outcome.final is outcome.second
    assert outcome.total_tool_calls == outcome.first.tool_calls + outcome.second.tool_calls


def test_no_reflection_when_first_pass_succeeds(schema, retriever, snapshot):
    outcome = run_with_reflection(
        "m2",
        ["Set the weight of net clk to 3"],
        schema,
        retriever,
        PatternTableExtractor(schema),
        TemplateGenerator(schema),
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        reflector=RuleBasedReflector(),
    )
    assert outcome.first.passed
    assert outcome.second is None
    assert outcome.hints == {}
    assert outcome.total_tool_calls == outcome.first.tool_calls


def test_no_retry_without_hints(schema, retriever, snapshot):
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.UNKNOWN_METHOD, schema, heal_after=99
    )
    outcome = run_with_reflection(
        "m3",
        ["Set the weight of net clk to 3"],
        schema,
        retriever,
        PatternTableExtractor(schema),
        generator,
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        reflector=ScriptedReflector(hints={}),
        config=SynthesisConfig(budget=1),
    )
    assert not outcome.passed
    assert outcome.second is None


def test_hints_for_same_step_merge(schema, retriever, snapshot):
    failed = episode(
        ["Print the weight of net clk"],
        schema,
        retriever,
        Session(snapshot, schema),
        generator=ScriptedGenerator(sources=["print(ghost)\nprint(phantom)\n"]),
        config=SynthesisConfig(budget=0),
    )
    errors = failed.steps[0].synthesis.verdict.errors()
    assert [e.code for e in errors] == ["L2_USE_BEFORE_DEF"] * 2 + ["L2_EDGE_UNREALIZED"] * 2
    # one entry for the step: its hints joined in the order the verdict lists them
    assert RuleBasedReflector().reflect(failed) == {
        0: "; ".join(f"{e.code}: {e.message}" for e in errors)
    }


def test_rule_based_reflector_surfaces_verifier_errors(schema, retriever, snapshot):
    generator = FaultInjectionGenerator(
        TemplateGenerator(schema), DefectKind.USE_BEFORE_DEF, schema, heal_after=99
    )
    failed = episode(
        ["Set the weight of net clk to 3"],
        schema,
        retriever,
        Session(snapshot, schema),
        generator=generator,
        config=SynthesisConfig(budget=1),
    )
    hints = RuleBasedReflector().reflect(failed)
    assert list(hints) == [0]
    assert hints[0].startswith("L2_USE_BEFORE_DEF")


def test_rule_based_reflector_reports_runtime_failure(schema, retriever, snapshot):
    session = CrashingSession(snapshot, schema)
    failed = episode(
        ["Set the weight of net clk to 3"], schema, retriever, session
    )
    assert RuleBasedReflector().reflect(failed) == {0: "runtime failure Crash: injected crash"}


def test_rule_based_reflector_names_a_timeout(schema, retriever, snapshot):
    # a timeout has no error kind; the hint names the status instead
    failed = episode(
        ["Print the names of all nets"],
        schema,
        retriever,
        Session(snapshot, schema, step_budget=3),
        config=SynthesisConfig(step_budget=3),
    )
    assert [s.status for s in failed.steps] == ["exec_failed"]
    assert RuleBasedReflector().reflect(failed) == {
        0: "runtime failure timeout: step budget of 3 exceeded"
    }


def test_rule_based_reflector_quiet_on_success(schema, retriever, snapshot):
    passed = episode(
        ["Set the weight of net clk to 3"],
        schema,
        retriever,
        Session(snapshot, schema),
    )
    assert RuleBasedReflector().reflect(passed) == {}


def test_rule_based_reflector_handles_error_steps(schema, retriever, snapshot):
    failed = episode(
        ["List all nets in the block"],
        schema,
        retriever,
        Session(snapshot, schema),
        generator=ScriptedGenerator(sources=[""]),
    )
    # an errored step has no verdict and no execution to reflect on
    assert failed.steps[0].status == "error"
    assert RuleBasedReflector().reflect(failed) == {}


def test_no_retry_after_a_refused_first_step(schema, retriever, snapshot):
    class CountingExtractor(PatternTableExtractor):
        calls = 0

        def extract(self, prompt, previous, feedback):
            CountingExtractor.calls += 1
            return super().extract(prompt, previous, feedback)

    outcome = run_with_reflection(
        "m5",
        ["Delete instance u3", "Print the weight of net clk"],
        schema,
        retriever,
        CountingExtractor(schema),
        TemplateGenerator(schema),
        RuleBasedJudge(),
        lambda: Session(snapshot, schema),
        reflector=RuleBasedReflector(),
    )
    assert [s.status for s in outcome.first.steps] == ["error", "skipped"]
    assert outcome.second is None
    assert outcome.hints == {}
    assert CountingExtractor.calls == 2  # two rounds with no graph refuse the step; no rerun

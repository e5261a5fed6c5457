"""Multi-step episodes: sequential steps, shared state, one reflection round.

Steps run in order against a single live session, so earlier mutations are
visible to later steps. The first failing step terminates the episode; the
remaining steps are skipped outright. A failed episode may be retried once:
a reflector turns the first failure's diagnosis into hints and the whole
episode reruns from scratch on a fresh session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .controller import SynthesisConfig, SynthesisResult, synthesize
from .depgraph import ExtractorFailure, GraphExtractor
from .generators import GeneratorFailure
from .retrieval import Retriever
from .runtime import ExecStatus, ExecutionResult, Session
from .schema import ApiSchema


class StepOutcome(NamedTuple):
    prompt: str
    status: str  # ok | rejected | exec_failed | skipped | error
    synthesis: SynthesisResult | None = None
    execution: ExecutionResult | None = None
    detail: str = ""


@dataclass
class EpisodeResult:
    task_id: str
    steps: list[StepOutcome] = field(default_factory=list)
    tool_calls: int = 0

    @property
    def passed(self) -> bool:
        return bool(self.steps) and all(s.status == "ok" for s in self.steps)

    def first_failure(self) -> int | None:
        for i, s in enumerate(self.steps):
            if s.status not in ("ok", "skipped"):
                return i
        return None


def run_episode(
    task_id: str,
    prompts: Sequence[str],
    schema: ApiSchema,
    retriever: Retriever,
    extractor: GraphExtractor,
    generator,
    judge,
    session: Session,
    config: SynthesisConfig = SynthesisConfig(),
    hints: dict[int, str] | None = None,
) -> EpisodeResult:
    """Run each step to acceptance and execution; stop at the first failure."""
    episode = EpisodeResult(task_id=task_id)
    failed = False
    before = session.tool_calls
    for i, prompt in enumerate(prompts):
        if failed:
            episode.steps.append(StepOutcome(prompt, "skipped"))
            continue
        hint = (hints or {}).get(i)
        try:
            result = synthesize(
                prompt,
                schema,
                retriever,
                extractor,
                generator,
                judge,
                config,
                reflection_hint=hint,
            )
        except (GeneratorFailure, ExtractorFailure) as exc:
            episode.steps.append(StepOutcome(prompt, "error", detail=str(exc)))
            failed = True
            continue
        if not result.accepted:
            episode.steps.append(
                StepOutcome(prompt, "rejected", synthesis=result,
                            detail=f"failed at layer {result.verdict.failure_layer}")
            )
            failed = True
            continue
        execution = session.execute(result.candidate.script)
        if execution.status is not ExecStatus.OK:
            episode.steps.append(
                StepOutcome(prompt, "exec_failed", result, execution,
                            detail=execution.error_kind or execution.status.value)
            )
            failed = True
            continue
        episode.steps.append(StepOutcome(prompt, "ok", result, execution))
    episode.tool_calls = session.tool_calls - before
    return episode


class RuleBasedReflector:
    """Turns a failed episode into hints for its first failing step's retry.

    The hints are that step's diagnosis: its verdict's error lines, then its
    runtime failure. Each step is verified on its own, so a hint to any other
    step could not change the root's verdict. A root that errored (extraction
    refused, or the generator collapsed) has no verdict and no execution to
    diagnose, so it gets no hints and the episode is not retried.
    """

    def reflect(self, episode: EpisodeResult) -> dict[int, str]:
        """``{root: its hints joined by "; "}``, or ``{}`` with nothing to diagnose."""
        root = episode.first_failure()
        if root is None or episode.steps[root].synthesis is None:
            return {}
        outcome = episode.steps[root]
        hints = list(outcome.synthesis.verdict.diagnosis())
        ex = outcome.execution
        if ex is not None:
            hints.append(f"runtime failure {ex.error_kind or ex.status.value}: {ex.error_message}")
        return {root: "; ".join(hints)}


@dataclass
class ReflectionOutcome:
    first: EpisodeResult
    second: EpisodeResult | None
    hints: dict[int, str]

    @property
    def final(self) -> EpisodeResult:
        return self.second if self.second is not None else self.first

    @property
    def passed(self) -> bool:
        return self.final.passed

    @property
    def total_tool_calls(self) -> int:
        return self.first.tool_calls + (self.second.tool_calls if self.second is not None else 0)


def run_with_reflection(
    task_id: str,
    prompts: Sequence[str],
    schema: ApiSchema,
    retriever: Retriever,
    extractor: GraphExtractor,
    generator,
    judge,
    session_factory: Callable[[], Session],
    reflector=None,
    config: SynthesisConfig = SynthesisConfig(),
) -> ReflectionOutcome:
    """One episode, plus at most one reflected retry on a fresh session."""
    first = run_episode(
        task_id, prompts, schema, retriever, extractor, generator, judge,
        session_factory(), config,
    )
    hints = {} if first.passed or reflector is None else reflector.reflect(first)
    if not hints:
        return ReflectionOutcome(first, None, {})
    second = run_episode(
        task_id, prompts, schema, retriever, extractor, generator, judge,
        session_factory(), config, hints=hints,
    )
    return ReflectionOutcome(first, second, hints)

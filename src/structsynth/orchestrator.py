"""Multi-step episodes: sequential steps, shared state, one reflection round.

Steps run in order against a single live session, so earlier mutations are
visible to later steps. The first failing step terminates the episode; the
remaining steps are skipped outright. A failed episode may be retried once:
a reflector turns the failure into per-step hints and the whole episode
reruns from scratch on a fresh session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .controller import SynthesisConfig, SynthesisResult, synthesize
from .depgraph import ExtractorFailure, GraphExtractor, NodeKind
from .generators import GeneratorFailure
from .retrieval import Retriever
from .runtime import ExecStatus, ExecutionResult, Session
from .schema import ApiSchema
from .verifier import L2_EDGE_UNREALIZED


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


class StepHint(NamedTuple):
    step_index: int
    hint: str


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
    """Turns a failed episode into per-step hints for the retry pass.

    The earliest failing step is the root. Its verifier errors become hints
    for that step; unrealized acquisition edges additionally produce hints
    naming the source type, aimed at any earlier step whose graph already
    produced objects of that type.
    """

    def reflect(self, episode: EpisodeResult) -> tuple[StepHint, ...]:
        root = episode.first_failure()
        if root is None:
            return ()
        hints: list[StepHint] = []
        outcome = episode.steps[root]
        if outcome.synthesis is None:
            hints.append(StepHint(root, outcome.detail or "step errored; simplify"))
            return tuple(hints)
        verdict = outcome.synthesis.verdict
        for issue in verdict.errors():
            hints.append(StepHint(root, f"{issue.code}: {issue.message}"))
        if outcome.status == "exec_failed" and outcome.execution is not None:
            hints.append(
                StepHint(root, f"runtime failure {outcome.execution.error_kind}: "
                               f"{outcome.execution.error_message}")
            )
        g = outcome.synthesis.graph
        nmap = g.node_map()
        unrealized_srcs = set()
        for issue in verdict.errors():
            if issue.code == L2_EDGE_UNREALIZED and issue.graph_region:
                edge = g.find_edge(issue.graph_region)
                if edge is not None:
                    unrealized_srcs.add(nmap[edge.src].type_name)
        for i in range(root):
            prior = episode.steps[i].synthesis
            if prior is None:
                continue
            for n in prior.graph.nodes:
                if n.kind is NodeKind.OBJECT and n.type_name in unrealized_srcs:
                    hints.append(
                        StepHint(
                            i,
                            f"step {root + 1} needs a {n.type_name}; keep its "
                            "acquisition explicit",
                        )
                    )
        return tuple(hints)


@dataclass
class ReflectionOutcome:
    first: EpisodeResult
    second: EpisodeResult | None
    hints: tuple[StepHint, ...]
    total_tool_calls: int

    @property
    def final(self) -> EpisodeResult:
        return self.second if self.second is not None else self.first

    @property
    def passed(self) -> bool:
        return self.final.passed


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
    if first.passed or reflector is None:
        return ReflectionOutcome(first, None, (), first.tool_calls)
    hints = reflector.reflect(first)
    if not hints:
        return ReflectionOutcome(first, None, (), first.tool_calls)
    merged: dict[int, str] = {}
    for h in hints:
        merged[h.step_index] = (
            f"{merged[h.step_index]}; {h.hint}" if h.step_index in merged else h.hint
        )
    second = run_episode(
        task_id, prompts, schema, retriever, extractor, generator, judge,
        session_factory(), config, hints=merged,
    )
    return ReflectionOutcome(first, second, hints, first.tool_calls + second.tool_calls)

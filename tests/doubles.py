"""Test doubles for the pipeline's plug-in points: canned extractors, generators,
judges and a reflector that replay fixed answers, and a session whose tool calls
all crash, so tests can drive the loop around each stage deterministically.
Planted defects need no double: the package's ``FaultInjectionGenerator``
plants them and heals on their diagnosis."""

from __future__ import annotations

from dataclasses import dataclass, field

from structsynth.depgraph import DepGraph, ExtractorOutputError, Feedback
from structsynth.generators import GenerationRequest, GeneratorFailure
from structsynth.judges import JudgeContext, JudgeFailure, JudgeVerdict
from structsynth.orchestrator import EpisodeResult
from structsynth.runtime import ExecStatus, ExecutionResult, Session


@dataclass
class ScriptedJudge:
    """Replays canned verdicts, for exercising the pipeline around the judge."""

    verdicts: list[JudgeVerdict]
    _cursor: int = 0

    def judge(self, ctx: JudgeContext) -> JudgeVerdict:
        if not self.verdicts:
            raise JudgeFailure("no scripted verdicts")
        v = self.verdicts[min(self._cursor, len(self.verdicts) - 1)]
        self._cursor += 1
        return v


@dataclass
class ScriptedExtractor:
    """Replays canned responses; raw strings marked unparseable raise on arrival.

    Each response may be a DepGraph, a dict (decoded as a graph document), or
    a plain string (treated as a malformed response). The call log keeps the
    feedback each round received so tests can assert on the refinement loop.
    """

    responses: list
    calls: list[tuple[str, tuple[Feedback, ...]]] = field(default_factory=list)
    _cursor: int = 0

    def extract(
        self, prompt: str, previous: DepGraph | None, feedback: tuple[Feedback, ...]
    ) -> DepGraph:
        self.calls.append((prompt, feedback))
        if not self.responses:
            raise ExtractorOutputError("no scripted responses")
        item = self.responses[min(self._cursor, len(self.responses) - 1)]
        self._cursor += 1
        if isinstance(item, DepGraph):
            return item
        if isinstance(item, dict):
            return DepGraph.from_dict(item)
        raise ExtractorOutputError(f"unparseable extractor response: {item!r}")


@dataclass
class ScriptedGenerator:
    """Replays canned sources; the last one repeats once exhausted."""

    sources: list[str]
    requests: list[GenerationRequest] = field(default_factory=list)
    _cursor: int = 0

    def generate(self, request: GenerationRequest) -> str:
        self.requests.append(request)
        if not self.sources:
            raise GeneratorFailure("no scripted sources")
        src = self.sources[min(self._cursor, len(self.sources) - 1)]
        self._cursor += 1
        return src


@dataclass
class ScriptedReflector:
    """Replays a fixed hint map regardless of what failed."""

    hints: dict[int, str]

    def reflect(self, episode: EpisodeResult) -> dict[int, str]:
        return self.hints


class CrashingSession(Session):
    """A session whose every execute counts the tool call, then crashes before running."""

    def execute(self, program) -> ExecutionResult:
        self.tool_calls += 1
        return ExecutionResult(ExecStatus.RUNTIME_ERROR, (), "Crash", "injected crash", 0, 0)

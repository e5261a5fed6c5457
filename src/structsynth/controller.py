"""Repair controller: the synthesis loop.

The graph is extracted once per task, and the evidence retrieved once for it:
the cards of the calls the graph names, not of the prompt's words. Each repair
regenerates, passing the verifier's diagnosis: the reflection hint, if any,
and the error lines of the last verdict. What repairs a program is the
content of that feedback, not the kind of action taken (Self-Debugging,
Chen et al., ICLR 2024).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .depgraph import DepGraph, Feedback, GraphExtractor, extract_graph
from .generators import GenerationRequest, GeneratorFailure
from .qas.analysis import Candidate, analyze
from .retrieval import EvidenceSet, Retriever
from .runtime import STEP_BUDGET
from .schema import ApiSchema
from .uncertainty import UncertaintyReport, compute_uncertainty
from .verifier import VerdictReport, verify_all


class ActionKind(Enum):
    REGENERATE = "regenerate"


class Action(NamedTuple):
    """One repair round and the hints it sent to the generator."""

    kind: ActionKind
    hints: tuple[str, ...] = ()
    escalated: bool = False  # never set; perfbench's worker.counts_of reads it


@dataclass
class Trajectory:
    """Everything the loop produced, in order.

    Each distinct program text is analyzed once per synthesis: a re-emitted
    program appears again as the same ``Candidate`` object, with a verdict of
    its own.
    """

    candidates: list[Candidate] = field(default_factory=list)
    verdicts: list[VerdictReport] = field(default_factory=list)
    actions: list[Action] = field(default_factory=list)  # perfbench's worker.counts_of reads it


class SynthesisConfig(NamedTuple):
    budget: int = 4
    max_layer: int = 4
    step_budget: int = STEP_BUDGET


@dataclass
class SynthesisResult:
    candidate: Candidate  # the last candidate; run its parse, not its text
    verdict: VerdictReport
    trajectory: Trajectory
    graph: DepGraph
    evidence: EvidenceSet
    uncertainty: UncertaintyReport

    @property
    def source(self) -> str:
        return self.candidate.source

    @property
    def accepted(self) -> bool:
        return self.verdict.passed


def synthesize(
    prompt: str,
    schema: ApiSchema,
    retriever: Retriever,
    extractor: GraphExtractor,
    generator,
    judge,
    config: SynthesisConfig = SynthesisConfig(),
    reflection_hint: str | None = None,
) -> SynthesisResult:
    """Full single-task loop: extract, retrieve, generate, verify, repair."""
    seed = (Feedback("", "reflection", reflection_hint),) if reflection_hint else ()
    g = extract_graph(prompt, extractor, schema, seed_feedback=seed)
    evidence = retriever.retrieve(g, schema)
    base_hints = (reflection_hint,) if reflection_hint else ()

    trajectory = Trajectory()
    # ``analyze`` depends only on the source and the schema, which is fixed for
    # this call, so a re-emitted program reuses its earlier analysis. It is
    # still verified again, so each attempt has a verdict of its own.
    analyzed: dict[str, Candidate] = {}

    def attempt(hints: tuple[str, ...]) -> None:
        previous = trajectory.candidates[-1].source if trajectory.candidates else None
        request = GenerationRequest(prompt, g, evidence, hints, previous)
        for _ in range(2):
            source = generator.generate(request)
            if source.strip():
                break
        else:
            raise GeneratorFailure("generator returned empty output twice")
        candidate = analyzed.get(source)
        if candidate is None:
            candidate = analyzed[source] = analyze(source, schema)
        trajectory.candidates.append(candidate)
        trajectory.verdicts.append(
            verify_all(candidate, g, schema, judge, prompt,
                       max_layer=config.max_layer, step_budget=config.step_budget)
        )

    attempt(base_hints)
    while not trajectory.verdicts[-1].passed and len(trajectory.actions) < config.budget:
        action = Action(ActionKind.REGENERATE, base_hints + trajectory.verdicts[-1].diagnosis())
        trajectory.actions.append(action)
        attempt(action.hints)

    report = compute_uncertainty(trajectory.candidates, trajectory.verdicts, evidence)
    return SynthesisResult(
        candidate=trajectory.candidates[-1],
        verdict=trajectory.verdicts[-1],
        trajectory=trajectory,
        graph=g,
        evidence=evidence,
        uncertainty=report,
    )

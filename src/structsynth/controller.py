"""Repair controller: policy, loop guard, escalation ladder, and the main loop.

The controller inspects the latest verdict and picks the cheapest repair that
plausibly addresses it: regenerate for code-local problems, re-retrieve
evidence for a single API mismatch, re-extract the graph when causal failures
persist. A loop guard watches for near-identical consecutive candidates with
identical failure fingerprints and escalates past the action that stalled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .depgraph import DepGraph, ExtractorFailure, Feedback, GraphExtractor, extract_graph
from .generators import GenerationRequest, GeneratorFailure
from .qas.analysis import Candidate, analyze
from .retrieval import EvidenceSet, Retriever
from .runtime import STEP_BUDGET
from .schema import ApiSchema
from .uncertainty import UncertaintyReport, compute_uncertainty, jaccard
from .verifier import L3_NOT_IN_EVIDENCE, VerdictReport, verify_all


class ActionKind(Enum):
    REGENERATE = "regenerate"
    EDGE_RE_RETRIEVE = "edge_re_retrieve"
    GRAPH_RE_EXTRACT = "graph_re_extract"
    ACCEPT = "accept"


# Escalation ladder; the guard moves to the entry after the one that stalled.
_LADDER = (ActionKind.REGENERATE, ActionKind.EDGE_RE_RETRIEVE, ActionKind.GRAPH_RE_EXTRACT)

LOOP_SIMILARITY = 0.9  # Jaccard similarity at which two candidates are twins


class Action(NamedTuple):
    kind: ActionKind
    reason: str
    hints: tuple[str, ...] = ()
    target_edge: str | None = None
    escalated: bool = False


@dataclass
class Trajectory:
    """Everything the loop produced, in order.

    Each distinct program text is analyzed once per synthesis: a re-emitted
    program appears again as the same ``Candidate`` object, with a verdict of
    its own.
    """

    candidates: list[Candidate] = field(default_factory=list)
    verdicts: list[VerdictReport] = field(default_factory=list)
    actions: list[Action] = field(default_factory=list)
    evidence_versions: list[int] = field(default_factory=list)
    window_start: int = 0

    def window_verdicts(self) -> list[VerdictReport]:
        return self.verdicts[self.window_start :]


class SynthesisConfig(NamedTuple):
    budget: int = 4
    max_layer: int = 4
    step_budget: int = STEP_BUDGET


@dataclass
class SynthesisResult:
    candidate: Candidate  # the last candidate; run its parse, not its text
    verdict: VerdictReport
    accepted: bool
    trajectory: Trajectory
    graph: DepGraph
    evidence: EvidenceSet
    uncertainty: UncertaintyReport

    @property
    def source(self) -> str:
        return self.candidate.source


def _issue_hints(verdict: VerdictReport) -> tuple[str, ...]:
    return tuple(f"{i.code}: {i.message}" for i in verdict.errors())


def _trailing_run(trajectory: Trajectory) -> int:
    """Consecutive window verdicts ending now that share the last failure layer."""
    verdicts = trajectory.window_verdicts()
    if not verdicts:
        return 0
    layer = verdicts[-1].failure_layer
    run = 0
    for v in reversed(verdicts):
        if v.failure_layer != layer:
            break
        run += 1
    return run


def _retrieval_target(trajectory: Trajectory, g: DepGraph) -> str | None:
    """Edge to refresh evidence for: the blamed region, else the first edge."""
    for issue in trajectory.verdicts[-1].errors():
        if issue.graph_region is not None and g.find_edge(issue.graph_region) is not None:
            return issue.graph_region
    order = {nid: i for i, nid in enumerate(g.topo_order())}
    acq = sorted(
        g.acquisition_edges(),
        key=lambda e: (order.get(e.src, len(order)), order.get(e.dst, len(order))),
    )
    return DepGraph.edge_id(acq[0]) if acq else None


def select_action(trajectory: Trajectory, g: DepGraph) -> Action:
    """Policy choice for the next repair, before any loop-guard escalation."""
    verdict = trajectory.verdicts[-1]
    layer = verdict.failure_layer
    hints = _issue_hints(verdict)
    if verdict.passed:
        return Action(ActionKind.ACCEPT, "verifier passed")
    if layer == 1:
        return Action(ActionKind.REGENERATE, "syntax failure", hints)
    if layer == 2:
        if _trailing_run(trajectory) >= 2:
            return Action(
                ActionKind.GRAPH_RE_EXTRACT,
                "causal failures persist; the graph itself is suspect",
                hints,
            )
        return Action(ActionKind.REGENERATE, "causal flow failure", hints)
    if layer == 3:
        evidence_gap = any(i.code == L3_NOT_IN_EVIDENCE for i in verdict.issues)
        if _trailing_run(trajectory) == 1 or evidence_gap:
            target = _retrieval_target(trajectory, g)
            if target is not None:
                return Action(
                    ActionKind.EDGE_RE_RETRIEVE,
                    "API mismatch; refresh evidence for the blamed edge",
                    hints,
                    target_edge=target,
                )
        return Action(ActionKind.REGENERATE, "API mismatch persists", hints)
    return Action(ActionKind.REGENERATE, "semantic gap", hints)


def loop_guard(trajectory: Trajectory) -> bool:
    """True when the last two candidates are near-identical twins.

    Twins means Jaccard similarity of normalized statement sets at or above
    LOOP_SIMILARITY and an identical failure fingerprint (layer plus the
    multiset of error codes). Only the current policy window is consulted.
    """
    start = trajectory.window_start
    if len(trajectory.candidates) - start < 2:
        return False
    a, b = trajectory.candidates[-2], trajectory.candidates[-1]
    va, vb = trajectory.verdicts[-2], trajectory.verdicts[-1]
    if va.failure_layer != vb.failure_layer or va.codes() != vb.codes():
        return False
    return jaccard(a.statements, b.statements) >= LOOP_SIMILARITY


def escalate(trajectory: Trajectory, g: DepGraph) -> Action:
    """Replace a stalled policy choice with the next rung of the ladder."""
    last_kind = trajectory.actions[-1].kind if trajectory.actions else ActionKind.REGENERATE
    idx = _LADDER.index(last_kind) if last_kind in _LADDER else 0
    nxt = _LADDER[(idx + 1) % len(_LADDER)]
    hints = _issue_hints(trajectory.verdicts[-1])
    if nxt is ActionKind.EDGE_RE_RETRIEVE:
        target = _retrieval_target(trajectory, g)
        if target is None:
            nxt = ActionKind.GRAPH_RE_EXTRACT
        else:
            return Action(
                nxt, "loop guard escalation", hints, target_edge=target, escalated=True
            )
    return Action(nxt, "loop guard escalation", hints, escalated=True)


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
    g = extract_graph(prompt, extractor, schema, seed_feedback=seed).graph
    evidence = retriever.retrieve(prompt)
    base_hints = (reflection_hint,) if reflection_hint else ()

    trajectory = Trajectory()
    # ``analyze`` depends only on the source and the schema, which is fixed for
    # this call, so a re-emitted program reuses its earlier analysis. It is
    # still verified again: the graph or the evidence may have changed since.
    analyzed: dict[str, Candidate] = {}

    def generate(action_hints: tuple[str, ...], feedback: tuple[str, ...]) -> str:
        previous = trajectory.candidates[-1].source if trajectory.candidates else None
        request = GenerationRequest(
            prompt=prompt,
            graph=g,
            evidence=evidence,
            hints=base_hints + action_hints,
            previous=previous,
            feedback=feedback,
        )
        for _ in range(2):
            out = generator.generate(request)
            if out.strip():
                return out
        raise GeneratorFailure("generator returned empty output twice")

    def attempt(source: str) -> None:
        candidate = analyzed.get(source)
        if candidate is None:
            candidate = analyzed[source] = analyze(source, schema)
        trajectory.candidates.append(candidate)
        trajectory.verdicts.append(
            verify_all(candidate, g, schema, evidence, judge, prompt,
                       max_layer=config.max_layer, step_budget=config.step_budget)
        )
        trajectory.evidence_versions.append(evidence.version)

    attempt(generate((), ()))

    repairs_used = 0
    accepted = trajectory.verdicts[-1].passed
    while not accepted and repairs_used < config.budget:
        action = select_action(trajectory, g)
        if loop_guard(trajectory):
            action = escalate(trajectory, g)
        if action.kind is ActionKind.EDGE_RE_RETRIEVE:
            edge = g.find_edge(action.target_edge or "")
            focus = prompt
            if edge is not None:
                nmap = g.node_map()
                parts = (nmap[edge.src].type_name, edge.via_method, nmap[edge.dst].type_name)
                focus = " ".join(part for part in (prompt, *parts) if part)
            evidence = retriever.refresh(evidence, focus)
        elif action.kind is ActionKind.GRAPH_RE_EXTRACT:
            feedback = tuple(
                Feedback(i.graph_region or "", i.code, i.message)
                for i in trajectory.verdicts[-1].errors()
            ) + seed
            try:
                g = extract_graph(prompt, extractor, schema, seed_feedback=feedback).graph
            except ExtractorFailure:
                pass
            evidence = retriever.retrieve(prompt, version=evidence.version + 1)
            trajectory.window_start = len(trajectory.candidates)
        source = generate(action.hints, _issue_hints(trajectory.verdicts[-1]))
        trajectory.actions.append(action)
        attempt(source)
        repairs_used += 1
        accepted = trajectory.verdicts[-1].passed

    report = compute_uncertainty(trajectory.candidates, trajectory.verdicts, schema, evidence)
    return SynthesisResult(
        candidate=trajectory.candidates[-1],
        verdict=trajectory.verdicts[-1],
        accepted=accepted,
        trajectory=trajectory,
        graph=g,
        evidence=evidence,
        uncertainty=report,
    )

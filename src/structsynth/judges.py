"""Semantic judges: the final layer's pluggable task-intent check."""

from __future__ import annotations

from typing import NamedTuple

from .depgraph import DepGraph, NodeKind
from .qas.analysis import TypedScript
from .schema import ApiSchema


class JudgeFailure(Exception):
    """The judge could not produce a verdict at all."""


class Finding(NamedTuple):
    code: str
    message: str


class JudgeVerdict(NamedTuple):
    ok: bool
    findings: tuple[Finding, ...] = ()


class JudgeContext(NamedTuple):
    prompt: str
    source: str
    typed: TypedScript
    graph: DepGraph
    schema: ApiSchema


class RuleBasedJudge:
    """Checks the program's effects against the shape of the task.

    A graph with an action node describes a state-changing task: the program
    must perform at least one mutating call. Anything else is a query: the
    program must print at least once.
    """

    def judge(self, ctx: JudgeContext) -> JudgeVerdict:
        wants_action = any(n.kind is NodeKind.ACTION for n in ctx.graph.nodes)
        if wants_action:
            if not any(cs.mutates for cs in ctx.typed.call_sites):
                return JudgeVerdict(
                    ok=False,
                    findings=(
                        Finding(
                            "L4_INCOMPLETE",
                            "task requires a state change but the program mutates nothing",
                        ),
                    ),
                )
            return JudgeVerdict(ok=True)
        if not any(op.op == "print" for op in ctx.typed.operations):
            return JudgeVerdict(
                ok=False,
                findings=(
                    Finding("L4_NO_OUTPUT", "query task but the program prints nothing"),
                ),
            )
        return JudgeVerdict(ok=True)

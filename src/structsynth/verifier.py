"""Staged verification: syntax, causal flow, API alignment, semantics.

Layers run in order and stop at the first one that raises an error-severity
issue; the report records that layer as the failure layer, with 0 meaning the
program survived every layer it was asked to run. Warnings accumulate across
layers and never fail a program. The verifier reads the program, the task's
graph and the schema, never the retrieved evidence: how much of the program
documentation backs is judged once, by ``uncertainty.compute_coverage``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import kinds
from .depgraph import DepGraph
from .judges import JudgeContext, JudgeFailure
from .qas.analysis import Candidate, TypedScript
from .qas.nodes import expr_to_source
from .qas.parser import Script, SyntaxFailure
from .runtime import STEP_BUDGET, min_steps
from .schema import ApiSchema, valid_import

L1_SYNTAX = "L1_SYNTAX"
L2_USE_BEFORE_DEF = "L2_USE_BEFORE_DEF"
L2_EDGE_UNREALIZED = "L2_EDGE_UNREALIZED"
L2_NULL_UNGUARDED = "L2_NULL_UNGUARDED"
L3_UNKNOWN_METHOD = "L3_UNKNOWN_METHOD"
L3_BAD_ARITY = "L3_BAD_ARITY"
L3_BAD_ARG_TYPE = "L3_BAD_ARG_TYPE"
L3_BAD_ATTRIBUTE = "L3_BAD_ATTRIBUTE"
L3_NOT_ITERABLE = "L3_NOT_ITERABLE"
L3_BAD_OPERAND = "L3_BAD_OPERAND"
L3_UNKNOWN_ENUM = "L3_UNKNOWN_ENUM"
L3_INVALID_IMPORT = "L3_INVALID_IMPORT"
L4_JUDGE_UNAVAILABLE = "L4_JUDGE_UNAVAILABLE"
L4_STEP_BOUND = "L4_STEP_BOUND"

# The code L3 reports for an operation the kind table rejects; L3_BAD_OPERAND otherwise.
_OPERATION_CODES = {"for": L3_NOT_ITERABLE, "print": L3_BAD_ARITY, "len": L3_BAD_ARITY,
                    "range": L3_BAD_ARITY, "method": L3_UNKNOWN_METHOD,
                    "attribute": L3_BAD_ATTRIBUTE}


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class Issue(NamedTuple):
    code: str
    layer: int
    message: str
    severity: Severity = Severity.ERROR
    location: tuple[int, int] | None = None
    graph_region: str | None = None


@dataclass(frozen=True)
class VerdictReport:
    passed: bool
    failure_layer: int
    issues: tuple[Issue, ...]
    layers_run: tuple[int, ...] = field(compare=False, default=())

    def errors(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity is Severity.ERROR)

    def diagnosis(self) -> tuple[str, ...]:
        """One ``CODE: message`` line per error: the form repair hints take."""
        return tuple(f"{i.code}: {i.message}" for i in self.errors())


def verify_syntax(script: Script | SyntaxFailure) -> tuple[Issue, ...]:
    """Layer 1: one issue per parse error."""
    if isinstance(script, SyntaxFailure):
        return tuple(
            Issue(L1_SYNTAX, 1, e.message, location=(e.line, e.column)) for e in script.errors
        )
    return ()


def _realized(ts: TypedScript, src: str, dst: str, via: str | None) -> bool:
    """True when a call on a ``src`` receiver realizes the acquisition edge:
    a call of ``via`` when the edge names one, else a call returning ``dst``."""
    return any(
        cs.receiver_type.base == src
        and (cs.method == via if via is not None
             else cs.returns is not None and cs.returns.base == dst)
        for cs in ts.call_sites
    )


def verify_causal(ts: TypedScript, g: DepGraph | None, schema: ApiSchema) -> tuple[Issue, ...]:
    """Layer 2: definedness, nullability discipline, and graph realization."""
    issues: list[Issue] = []
    for use in ts.undefined_uses:
        issues.append(
            Issue(
                L2_USE_BEFORE_DEF,
                2,
                f"{use.name!r} used with no dominating definition ({use.reason})",
                location=use.location,
            )
        )
    for op in ts.operations:
        if op.op in ("method", "attribute") and kinds.may_be_none(op.operands[0]):
            issues.append(
                Issue(
                    L2_NULL_UNGUARDED,
                    2,
                    f"{expr_to_source(op.node)}: the receiver may be None",
                    location=op.node.location,
                )
            )
    if g is not None:
        nmap = g.node_map()
        for e in g.acquisition_edges():
            src, dst = nmap[e.src].type_name, nmap[e.dst].type_name
            if not _realized(ts, src, dst, e.via_method):
                via = f" via {e.via_method}" if e.via_method else ""
                issues.append(
                    Issue(
                        L2_EDGE_UNREALIZED,
                        2,
                        f"no call realizes {src}->{dst}{via}",
                        graph_region=DepGraph.edge_id(e),
                    )
                )
    return tuple(issues)


def verify_api_alignment(ts: TypedScript, schema: ApiSchema) -> tuple[Issue, ...]:
    """Layer 3: every name exists in the API; every operation gets kinds it supports."""
    issues: list[Issue] = []
    for name in ts.imports:
        if not valid_import(schema, name):
            issues.append(Issue(L3_INVALID_IMPORT, 3, f"import {name} names nothing in the API"))
    for cs in ts.call_sites:
        base = cs.receiver_type.base
        if cs.receiver_type.many or not schema.is_object_type(base):
            continue
        sig = schema.method(base, cs.method)
        if sig is None:
            issues.append(
                Issue(
                    L3_UNKNOWN_METHOD,
                    3,
                    f"{base} has no method {cs.method!r}",
                    location=cs.location,
                )
            )
            continue
        if len(cs.arg_types) != sig.arity:
            issues.append(
                Issue(
                    L3_BAD_ARITY,
                    3,
                    f"{base}.{cs.method} takes {sig.arity} argument(s), got {len(cs.arg_types)}",
                    location=cs.location,
                )
            )
        else:
            for param, arg in zip(sig.params, cs.arg_types):
                arg_kinds = kinds.kinds(arg, schema) or ()
                if not all(kinds.accepts(param.type, k, arg.base, schema) for k in arg_kinds):
                    issues.append(
                        Issue(
                            L3_BAD_ARG_TYPE,
                            3,
                            f"{base}.{cs.method} argument {param.name!r} expects "
                            f"{param.type.base}, got {kinds.describe(arg)}",
                            location=cs.location,
                        )
                    )
    for op in ts.operations:
        if op.allowed:
            continue
        code = _OPERATION_CODES.get(op.op, L3_BAD_OPERAND)
        if op.op == "attribute":
            receiver = op.operands[0].without_null()
            if kinds.kinds(receiver, schema) <= {kinds.MODULE, kinds.NAMESPACE}:
                code = L3_UNKNOWN_ENUM
            message = f"{kinds.describe(receiver)} has no attribute {op.node.attr!r}"
        else:
            shown = ", ".join(kinds.describe(t) for t in op.operands)
            message = f"{expr_to_source(op.node)}: {op.op} does not take {shown}"
        issues.append(Issue(code, 3, message, location=op.node.location))
    return tuple(issues)


def verify_step_bound(script: Script, step_budget: int) -> tuple[Issue, ...]:
    """Layer 4, before the judge: the program cannot finish within the step budget."""
    bound = min_steps(script.statements)
    if bound <= step_budget:
        return ()
    return (Issue(L4_STEP_BOUND, 4,
                  f"needs at least {bound} steps to finish; the budget is {step_budget}"),)


def verify_semantic(
    ts: TypedScript,
    g: DepGraph,
    schema: ApiSchema,
    judge,
    prompt: str,
    source: str,
) -> tuple[Issue, ...]:
    """Layer 4: hand the program to the semantic judge."""
    ctx = JudgeContext(prompt=prompt, source=source, typed=ts, graph=g, schema=schema)
    try:
        verdict = judge.judge(ctx)
    except JudgeFailure as exc:
        return (Issue(L4_JUDGE_UNAVAILABLE, 4, str(exc), severity=Severity.WARNING),)
    severity = Severity.WARNING if verdict.ok else Severity.ERROR
    return tuple(Issue(f.code, 4, f.message, severity=severity) for f in verdict.findings)


def verify_all(
    candidate: Candidate,
    graph: DepGraph | None,
    schema: ApiSchema,
    judge=None,
    prompt: str = "",
    *,
    max_layer: int = 4,
    step_budget: int = STEP_BUDGET,
) -> VerdictReport:
    """Run the staged pipeline up to max_layer and report the outcome.

    L1 always runs; L2 and L3 need a typed program, and L4 also needs a judge
    and a graph. The layers run in order and stop at the first one with an
    error-severity issue, or after max_layer.
    """
    ts = candidate.typed
    checks = [lambda: verify_syntax(candidate.script)]
    if ts is not None:
        checks.append(lambda: verify_causal(ts, graph, schema))
        checks.append(lambda: verify_api_alignment(ts, schema))
        if judge is not None and graph is not None:
            checks.append(
                lambda: verify_step_bound(candidate.script, step_budget)
                or verify_semantic(ts, graph, schema, judge, prompt, candidate.source)
            )
    issues: list[Issue] = []
    for layer, check in enumerate(checks, 1):
        found = check()
        issues.extend(found)
        if any(i.severity is Severity.ERROR for i in found):
            return VerdictReport(False, layer, tuple(issues), tuple(range(1, layer + 1)))
        if layer >= max_layer:
            break
    return VerdictReport(True, 0, tuple(issues), tuple(range(1, layer + 1)))

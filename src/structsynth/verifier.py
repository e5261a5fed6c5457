"""Staged verification: syntax, causal flow, API alignment, semantics.

Layers run in order and stop at the first one that raises an error-severity
issue; the report records that layer as the failure layer, with 0 meaning the
program survived every layer it was asked to run. Warnings accumulate across
layers and never fail a program. Evidence gaps are always warnings: missing
documentation is a retrieval problem, not proof the call is wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .depgraph import DepGraph, EdgeKind
from .judges import JudgeContext, JudgeFailure
from .qas.analysis import BUILTINS, Candidate, TypedScript
from .qas.parser import Script, SyntaxFailure
from .retrieval import EvidenceSet
from .schema import ApiSchema, valid_enum_ref, valid_import

L1_SYNTAX = "L1_SYNTAX"
L2_USE_BEFORE_DEF = "L2_USE_BEFORE_DEF"
L2_EDGE_UNREALIZED = "L2_EDGE_UNREALIZED"
L2_NULL_UNGUARDED = "L2_NULL_UNGUARDED"
L3_UNKNOWN_METHOD = "L3_UNKNOWN_METHOD"
L3_BAD_ARITY = "L3_BAD_ARITY"
L3_BAD_ATTRIBUTE = "L3_BAD_ATTRIBUTE"
L3_NOT_ITERABLE = "L3_NOT_ITERABLE"
L3_UNKNOWN_ENUM = "L3_UNKNOWN_ENUM"
L3_INVALID_IMPORT = "L3_INVALID_IMPORT"
L3_NOT_IN_EVIDENCE = "L3_NOT_IN_EVIDENCE"
L4_JUDGE_UNAVAILABLE = "L4_JUDGE_UNAVAILABLE"

# Value types the runtime gives no methods, like any collection.
_SCALARS = frozenset({"string", "int", "float", "bool"})


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Issue:
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
    timings: dict[str, float] = field(compare=False, default_factory=dict)

    def errors(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity is Severity.ERROR)

    def warnings(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity is Severity.WARNING)

    def codes(self) -> tuple[str, ...]:
        """Error codes as a sorted multiset; the loop guard's fingerprint."""
        return tuple(sorted(i.code for i in self.errors()))


def verify_syntax(script: Script | SyntaxFailure) -> tuple[Issue, ...]:
    """Layer 1: one issue per parse error."""
    if isinstance(script, SyntaxFailure):
        return tuple(
            Issue(L1_SYNTAX, 1, e.message, location=(e.line, e.column)) for e in script.errors
        )
    return ()


def _edge_realizations(ts: TypedScript, g: DepGraph) -> dict[str, tuple[int, int] | None]:
    """First source location realizing each acquisition edge, or None."""
    nmap = g.node_map()
    first: dict[str, tuple[int, int] | None] = {}
    for e in g.acquisition_edges():
        eid = DepGraph.edge_id(e)
        src_t = nmap[e.src].type_name
        dst_t = nmap[e.dst].type_name
        best: tuple[int, int] | None = None
        for cs in ts.call_sites:
            if cs.receiver_type.base != src_t:
                continue
            if e.via_method is not None:
                if cs.method != e.via_method:
                    continue
            elif cs.returns is None or cs.returns.base != dst_t:
                continue
            if best is None or cs.location < best:
                best = cs.location
        first[eid] = best
    return first


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
    for cs in ts.call_sites:
        if cs.receiver_type.nullable and schema.is_object_type(cs.receiver_type.base):
            issues.append(
                Issue(
                    L2_NULL_UNGUARDED,
                    2,
                    f"{cs.receiver_text} may be None when calling {cs.method}",
                    location=cs.location,
                )
            )
    for ar in ts.attribute_reads:
        if ar.receiver_type.nullable and schema.is_object_type(ar.receiver_type.base):
            issues.append(
                Issue(
                    L2_NULL_UNGUARDED,
                    2,
                    f"{ar.receiver_text} may be None when reading {ar.attribute}",
                    location=ar.location,
                )
            )
    if g is not None:
        first = _edge_realizations(ts, g)
        nmap = g.node_map()
        for e in g.acquisition_edges():
            eid = DepGraph.edge_id(e)
            if first[eid] is None:
                via = f" via {e.via_method}" if e.via_method else ""
                issues.append(
                    Issue(
                        L2_EDGE_UNREALIZED,
                        2,
                        f"no call realizes {nmap[e.src].type_name}->"
                        f"{nmap[e.dst].type_name}{via}",
                        graph_region=eid,
                    )
                )
        for e in g.acquisition_edges():
            for f in g.acquisition_edges():
                if e.dst != f.src:
                    continue
                le, lf = first[DepGraph.edge_id(e)], first[DepGraph.edge_id(f)]
                if le is not None and lf is not None and lf < le:
                    issues.append(
                        Issue(
                            L2_EDGE_UNREALIZED,
                            2,
                            f"{nmap[f.src].type_name}->{nmap[f.dst].type_name} realized "
                            "before its prerequisite acquisition",
                            location=lf,
                            graph_region=DepGraph.edge_id(f),
                        )
                    )
    return tuple(issues)


def _call_edge(g: DepGraph | None, receiver: str, method: str) -> str | None:
    """Graph region blamed for a call: its own edge, else the receiver's."""
    if g is None:
        return None
    nmap = g.node_map()
    for e in g.acquisition_edges():
        if nmap[e.src].type_name == receiver and e.via_method == method:
            return DepGraph.edge_id(e)
    for e in g.acquisition_edges():
        if nmap[e.dst].type_name == receiver:
            return DepGraph.edge_id(e)
    return None


def verify_api_alignment(
    ts: TypedScript,
    schema: ApiSchema,
    evidence: EvidenceSet | None = None,
    g: DepGraph | None = None,
) -> tuple[Issue, ...]:
    """Layer 3: every name the program touches must exist in the API."""
    issues: list[Issue] = []
    for name in ts.imports:
        if not valid_import(schema, name):
            issues.append(Issue(L3_INVALID_IMPORT, 3, f"import {name} names nothing in the API"))
    for ref in ts.enum_refs:
        if not valid_enum_ref(schema, ref.name):
            issues.append(
                Issue(L3_UNKNOWN_ENUM, 3, f"{ref.name} is not a known enum constant",
                      location=ref.location)
            )
    for cs in ts.call_sites:
        base = cs.receiver_type.base
        if cs.receiver_type.many or base in _SCALARS:
            shown = f"a {base} collection" if cs.receiver_type.many else base
            issues.append(
                Issue(L3_UNKNOWN_METHOD, 3, f"{shown} has no method {cs.method!r}",
                      location=cs.location)
            )
            continue
        if not schema.is_object_type(base):
            continue
        sig = schema.method(base, cs.method)
        if sig is None:
            issues.append(
                Issue(
                    L3_UNKNOWN_METHOD,
                    3,
                    f"{base} has no method {cs.method!r}",
                    location=cs.location,
                    graph_region=_call_edge(g, base, cs.method),
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
        if evidence is not None and not evidence.covers(base, cs.method):
            issues.append(
                Issue(
                    L3_NOT_IN_EVIDENCE,
                    3,
                    f"{base}.{cs.method} is not backed by retrieved documentation",
                    severity=Severity.WARNING,
                    location=cs.location,
                )
            )
    for bc in ts.builtin_calls:
        arity, kind = BUILTINS[bc.name]
        if len(bc.arg_types) != arity:
            issues.append(
                Issue(L3_BAD_ARITY, 3, f"{bc.name} takes {arity} argument(s)",
                      location=bc.location)
            )
        elif kind == "many" and not (
            bc.arg_types[0].many or bc.arg_types[0].base in ("string", "?")
        ):
            issues.append(
                Issue(L3_BAD_ARITY, 3, f"{bc.name} expects a collection", location=bc.location)
            )
        elif kind == "int" and (bc.arg_types[0].many or bc.arg_types[0].base not in ("int", "?")):
            issues.append(
                Issue(L3_BAD_ARITY, 3, f"{bc.name} expects an int", location=bc.location)
            )
    for loop in ts.loop_iterables:
        it = loop.iterable_type
        if not (it.many or it.is_unknown):
            issues.append(
                Issue(L3_NOT_ITERABLE, 3,
                      f"for-loop over {loop.iterable_text} needs a collection, got {it.base}",
                      location=loop.location)
            )
    for ar in ts.attribute_reads:
        base = ar.receiver_type.base
        if schema.is_object_type(base) and schema.attribute(base, ar.attribute) is None:
            issues.append(
                Issue(
                    L3_BAD_ATTRIBUTE,
                    3,
                    f"{base} has no attribute {ar.attribute!r}",
                    location=ar.location,
                )
            )
    return tuple(issues)


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
    evidence: EvidenceSet | None = None,
    judge=None,
    prompt: str = "",
    *,
    max_layer: int = 4,
) -> VerdictReport:
    """Run the staged pipeline up to max_layer and report the outcome."""
    issues: list[Issue] = []
    layers_run: list[int] = []
    timings: dict[str, float] = {}

    def timed(layer: int, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[f"L{layer}"] = time.perf_counter() - t0
        layers_run.append(layer)
        return out

    def report(failed_at: int) -> VerdictReport:
        return VerdictReport(
            passed=failed_at == 0,
            failure_layer=failed_at,
            issues=tuple(issues),
            layers_run=tuple(layers_run),
            timings=timings,
        )

    issues.extend(timed(1, lambda: verify_syntax(candidate.script)))
    ts = candidate.typed
    if ts is None:
        return report(1)
    if max_layer < 2:
        return report(0)

    causal_issues = timed(2, lambda: verify_causal(ts, graph, schema))
    issues.extend(causal_issues)
    if any(i.severity is Severity.ERROR for i in causal_issues):
        return report(2)
    if max_layer < 3:
        return report(0)

    api_issues = timed(3, lambda: verify_api_alignment(ts, schema, evidence, graph))
    issues.extend(api_issues)
    if any(i.severity is Severity.ERROR for i in api_issues):
        return report(3)
    if max_layer < 4 or judge is None or graph is None:
        return report(0)

    sem_issues = timed(
        4, lambda: verify_semantic(ts, graph, schema, judge, prompt, candidate.source)
    )
    issues.extend(sem_issues)
    if any(i.severity is Severity.ERROR for i in sem_issues):
        return report(4)
    return report(0)

"""Program generators: graph-driven templates and fault injection.

The template generator renders a dependency graph into a runnable script,
walking acquisition edges outward from the root bindings. It reads labels only
as ``DepGraph.elements`` resolves them: a name fills its finder's argument, a
shown member is printed, ``count`` counts its node's loop, a condition tests
its getter against its literal and an action makes its call. Broken graphs
render into broken-but-honest programs and are left for the verifier to
reject, which is exactly what repair loops need.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .depgraph import DepGraph, GraphEdge, GraphNode, LabelElement, NodeKind
from .qas import nodes as qn
from .qas.analysis import infer_types
from .qas.parser import SyntaxFailure, parse
from .retrieval import EvidenceSet
from .schema import ApiSchema, MethodSig


class GeneratorFailure(Exception):
    """The generator produced nothing usable twice in a row."""


class GenerationRequest(NamedTuple):
    prompt: str
    graph: DepGraph
    evidence: EvidenceSet | None = None
    hints: tuple[str, ...] = ()
    previous: str | None = None


_KEYWORDS = {"import", "for", "in", "if", "else", "True", "False", "None",
             "print", "len", "range", "count", "noop"}


def _ident(raw: str) -> str:
    name = re.sub(r"[^A-Za-z0-9_]", "_", raw) or "v"
    if name[0].isdigit() or name in _KEYWORDS:
        name = "v_" + name
    return name


class TemplateGenerator:
    """Deterministic renderer from dependency graphs to scripts."""

    def __init__(self, schema: ApiSchema):
        self.schema = schema

    def generate(self, request: GenerationRequest) -> str:
        g = request.graph
        out_acq: dict[str, list[GraphEdge]] = defaultdict(list)
        for e in sorted(g.acquisition_edges(), key=lambda e: e.dst):
            out_acq[e.src].append(e)
        incoming = {e.dst for e in g.acquisition_edges()}
        own: dict[str | None, list[LabelElement]] = defaultdict(list)
        for el in g.elements(self.schema):
            own[el.owner].append(el)

        roots_by_type: dict[str, str] = {}
        for var, tname in sorted(self.schema.roots.items()):
            roots_by_type.setdefault(tname, var)
        names: dict[str, str] = {}
        for n in g.nodes:
            if n.kind is NodeKind.OBJECT:
                root = n.id not in incoming and roots_by_type.get(n.type_name or "")
                names[n.id] = root or _ident(n.id)

        module = min(self.schema.modules) if self.schema.modules else None
        ctx = _RenderCtx(g, g.node_map(), out_acq, own, names, module)
        for n in g.nodes:
            if n.kind is NodeKind.OBJECT and n.id not in incoming:
                self._render_node(n.id, 0, ctx)
        lines = ([f"import {module}"] if ctx.enum_used else []) + ctx.lines
        return "\n".join(lines) + ("\n" if lines else "")

    def _render_node(self, nid: str, indent: int, ctx: "_RenderCtx") -> None:
        """An object's direct calls, its conditions (one ``if`` per test around
        the calls that hold under the condition) and its shown members,
        printed where every condition holds, then the objects acquired from it."""
        v = ctx.names[nid]
        shows: list[str] = []
        calls: dict[str | None, list[str]] = defaultdict(list)  # by the condition they hold under
        tests: dict[str, list[str]] = defaultdict(list)  # by condition
        for el in ctx.own[nid]:
            if el.role == "show":
                shows.append(f"print({v}.{el.member}())")
            elif el.role == "read":
                shows.append(f"print({v}.{el.member})")
            elif el.role == "call":
                args = ", ".join(self._literal(a, ctx) for a in el.literal or ())
                calls[el.guard].append(f"{v}.{el.member}({args})")
            elif el.role == "test" and el.member is None:
                tests[el.node].append("False")  # a condition that tests nothing
            elif el.role == "test":
                tests[el.node].append(f"{v}.{el.member}() == {self._literal(el.literal[0], ctx)}")
        ctx.lines.extend("    " * indent + call for call in calls[None])
        for cid, conds in tests.items():
            inner = indent
            for test in conds:
                ctx.lines.append(f"{'    ' * inner}if {test}:")
                inner += 1
            ctx.lines.extend("    " * inner + line for line in calls[cid] + shows or ["noop = 0"])
        if not tests:
            ctx.lines.extend("    " * indent + show for show in shows)
        for e in ctx.out_acq[nid]:
            self._render_edge(e, indent, ctx)

    def _literal(self, text: str, ctx: "_RenderCtx") -> str:
        """A label literal as source; an enum constant is addressed through the module."""
        if ctx.module is not None and text.partition(".")[0] in self.schema.enums:
            ctx.enum_used = True
            return f"{ctx.module}.{text}"
        return text

    def _render_edge(self, e: GraphEdge, indent: int, ctx: "_RenderCtx") -> None:
        pad = "    " * indent
        dst_v = ctx.names[e.dst]
        methods = ctx.g.realizers(e, self.schema)
        if not methods:
            return
        sig = self.schema.method(ctx.nmap[e.src].type_name or "", methods[0])
        mine = ctx.own[e.dst]
        name = next((el.literal[0] for el in mine if el.role == "name"), None)
        call = f"{ctx.names[e.src]}.{methods[0]}({_args_for(sig, name)})"
        counting = any(el.role == "count" for el in mine)
        if sig is not None and sig.returns.many:
            if counting:
                ctx.lines.append(f"{pad}count = 0")
            ctx.lines.append(f"{pad}for {dst_v} in {call}:")
            body_start = len(ctx.lines)
            if counting:
                ctx.lines.append(f"{pad}    count = count + 1")
            self._render_node(e.dst, indent + 1, ctx)
            if len(ctx.lines) == body_start:
                ctx.lines.append(pad + "    noop = 0")
            if counting:
                ctx.lines.append(f"{pad}print(count)")
        elif sig is not None and sig.returns.nullable:
            ctx.lines.append(f"{pad}{dst_v} = {call}")
            guard_at = len(ctx.lines)
            ctx.lines.append(f"{pad}if {dst_v} != None:")
            body_start = len(ctx.lines)
            self._render_node(e.dst, indent + 1, ctx)
            if len(ctx.lines) == body_start:
                del ctx.lines[guard_at]
        else:
            ctx.lines.append(f"{pad}{dst_v} = {call}")
            self._render_node(e.dst, indent, ctx)


@dataclass
class _RenderCtx:
    g: DepGraph
    nmap: dict[str, GraphNode]
    out_acq: dict[str, list[GraphEdge]]
    own: dict[str | None, list[LabelElement]]
    names: dict[str, str]
    module: str | None
    lines: list[str] = field(default_factory=list)
    enum_used: bool = False


def _args_for(sig: MethodSig | None, name: str | None) -> str:
    """Finder arguments: the node's quoted name for a string, else a placeholder."""
    if sig is None or sig.arity == 0:
        return ""
    rendered = []
    for p in sig.params:
        if p.type.base == "string":
            rendered.append(name or '"x"')
        elif p.type.base in ("int", "float"):
            rendered.append("0")
        else:
            rendered.append("None")
    return ", ".join(rendered)


class DefectKind(Enum):
    SYNTAX = "syntax"
    USE_BEFORE_DEF = "use_before_def"
    MISSING_ACQUISITION = "missing_acquisition"
    NULL_UNGUARDED = "null_unguarded"
    UNKNOWN_METHOD = "unknown_method"
    BAD_ENUM = "bad_enum"
    ARITY = "arity"
    MISSING_OUTPUT = "missing_output"
    MISSING_ACTION = "missing_action"
    TIMEOUT_LOOP = "timeout_loop"


# The verifier code each defect class is planted to raise: its home code.
DEFECT_CODE: dict[DefectKind, str] = {
    DefectKind.SYNTAX: "L1_SYNTAX",
    DefectKind.USE_BEFORE_DEF: "L2_USE_BEFORE_DEF",
    DefectKind.MISSING_ACQUISITION: "L2_EDGE_UNREALIZED",
    DefectKind.NULL_UNGUARDED: "L2_NULL_UNGUARDED",
    DefectKind.UNKNOWN_METHOD: "L3_UNKNOWN_METHOD",
    DefectKind.BAD_ENUM: "L3_UNKNOWN_ENUM",
    DefectKind.ARITY: "L3_BAD_ARITY",
    DefectKind.MISSING_OUTPUT: "L4_NO_OUTPUT",
    DefectKind.MISSING_ACTION: "L4_INCOMPLETE",
    DefectKind.TIMEOUT_LOOP: "L4_STEP_BOUND",
}


def _first_root_var(schema: ApiSchema) -> str:
    return min(schema.roots)


# What a dropped statement becomes: a harmless assignment.
_NOOP = (qn.Assign("noop", qn.IntLit(0)),)


def _rewrite(statements: tuple, replace) -> tuple:
    """The statements, each one that ``replace`` maps to a tuple swapped for it.

    ``replace`` returns None to keep a statement; a kept loop or branch has
    its bodies rewritten the same way.
    """
    out = []
    for s in statements:
        new = replace(s)
        if new is not None:
            out.extend(new)
            continue
        if isinstance(s, qn.ForStmt):
            s = s._replace(body=_rewrite(s.body, replace))
        elif isinstance(s, qn.IfStmt):
            s = s._replace(body=_rewrite(s.body, replace), orelse=_rewrite(s.orelse, replace))
        out.append(s)
    return tuple(out)


def _unguarded(s) -> tuple | None:
    """A test against None gives way to its body, itself unguarded."""
    if isinstance(s, qn.IfStmt) and _is_null_test(s.test):
        return _rewrite(s.body, _unguarded)
    return None


def _is_null_test(test) -> bool:
    return (
        isinstance(test, qn.BinOp)
        and test.op in ("==", "!=")
        and (isinstance(test.left, qn.NoneLit) or isinstance(test.right, qn.NoneLit))
    )


def _unprinted(s) -> tuple | None:
    """A call of ``print`` is dropped."""
    if (
        isinstance(s, qn.ExprStmt)
        and isinstance(s.value, qn.Call)
        and isinstance(s.value.func, qn.Name)
        and s.value.func.id == "print"
    ):
        return _NOOP
    return None


def apply_defect(source: str, kind: DefectKind, schema: ApiSchema) -> str:
    """Transform a clean program so it fails at the defect's home layer."""
    if kind is DefectKind.SYNTAX:
        return source + "x = = 1\n"
    if kind is DefectKind.USE_BEFORE_DEF:
        return "ghost = missing_var.getName()\n" + source
    if kind is DefectKind.UNKNOWN_METHOD:
        return source + f"{_first_root_var(schema)}.frobnicate()\n"
    if kind is DefectKind.ARITY:
        root_var = _first_root_var(schema)
        root_type = schema.roots[root_var]
        decl = schema.type_decl(root_type)
        mname = min(decl.methods) if decl and decl.methods else "getBlock"
        return source + f"{root_var}.{mname}(1, 2, 3)\n"
    if kind is DefectKind.BAD_ENUM:
        module = min(schema.modules) if schema.modules else "api"
        ename = min(schema.enums) if schema.enums else "Status"
        return source + f"import {module}\nbad = {module}.{ename}.WIBBLE\n"

    parsed = parse(source)
    if isinstance(parsed, SyntaxFailure):
        return source
    if kind is DefectKind.MISSING_ACQUISITION:
        stmts = list(parsed.statements)
        for i, s in enumerate(stmts):
            if isinstance(s, qn.Assign) and isinstance(s.value, qn.Call):
                del stmts[i]
                break
        return qn.module_to_source(tuple(stmts))
    if kind is DefectKind.NULL_UNGUARDED:
        return qn.module_to_source(_rewrite(parsed.statements, _unguarded))
    if kind is DefectKind.MISSING_OUTPUT:
        return qn.module_to_source(_rewrite(parsed.statements, _unprinted))
    if kind is DefectKind.MISSING_ACTION:
        ts = infer_types(parsed, schema)
        mutating_locs = {cs.location for cs in ts.call_sites if cs.mutates}

        def unacted(s) -> tuple | None:
            mutates = (
                isinstance(s, qn.ExprStmt)
                and isinstance(s.value, qn.Call)
                and s.value.location in mutating_locs
            )
            return _NOOP if mutates else None

        return qn.module_to_source(_rewrite(parsed.statements, unacted))
    if kind is DefectKind.TIMEOUT_LOOP:
        stripped = qn.module_to_source(_rewrite(parsed.statements, _unprinted))
        return stripped + "for spin in range(2000000):\n    noop = spin + 1\n"
    raise ValueError(f"unhandled defect kind: {kind}")


@dataclass
class FaultInjectionGenerator:
    """Wraps a generator, injecting one defect until its diagnosis has come often enough.

    A stand-in rule for a model that repairs from feedback: the defect heals
    after heal_after requests whose hints carry its home code, and a bare
    retry changes nothing. Until then the output is the same defective
    program each time, so a repair loop's rounds and verdicts are fully
    deterministic.
    """

    base: object
    defect: DefectKind
    schema: ApiSchema
    heal_after: int = 1
    repairs_seen: int = 0

    def generate(self, request: GenerationRequest) -> str:
        code = DEFECT_CODE[self.defect]
        if any(code in hint for hint in request.hints):
            self.repairs_seen += 1
        clean = self.base.generate(request)
        if self.repairs_seen >= self.heal_after:
            return clean
        return apply_defect(clean, self.defect, self.schema)

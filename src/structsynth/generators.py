"""Program generators: graph-driven templates and fault injection.

The template generator renders a dependency graph into a runnable script,
walking acquisition edges outward from the root bindings. Object node labels
steer rendering: ``name=<x>`` fills finder arguments, ``show=<what>`` prints a
method result, an attribute, or a count. Action node labels spell the call.
Broken graphs render into broken-but-honest programs and are left for the
verifier to reject, which is exactly what repair loops need.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .depgraph import DepGraph, EdgeKind, GraphEdge, GraphNode, NodeKind
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
    feedback: tuple[str, ...] = ()


_KEYWORDS = {"import", "for", "in", "if", "else", "True", "False", "None",
             "print", "len", "range", "count", "noop"}


def _ident(raw: str) -> str:
    name = re.sub(r"[^A-Za-z0-9_]", "_", raw) or "v"
    if name[0].isdigit() or name in _KEYWORDS:
        name = "v_" + name
    return name


def _parse_label(label: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in label.split():
        if "=" in token:
            key, _, value = token.partition("=")
            out[key] = value
    return out


class TemplateGenerator:
    """Deterministic renderer from dependency graphs to scripts."""

    def __init__(self, schema: ApiSchema):
        self.schema = schema

    def generate(self, request: GenerationRequest) -> str:
        g = request.graph
        nmap = g.node_map()
        out_acq: dict[str, list[GraphEdge]] = defaultdict(list)
        dep_children: dict[str, list[str]] = defaultdict(list)
        incoming_acq: set[str] = set()
        for e in g.edges:
            if e.kind is EdgeKind.ACQUISITION:
                out_acq[e.src].append(e)
                incoming_acq.add(e.dst)
            else:
                dep_children[e.src].append(e.dst)
        for edges in out_acq.values():
            edges.sort(key=lambda e: e.dst)
        for kids in dep_children.values():
            kids.sort()

        roots_by_type: dict[str, str] = {}
        for var, tname in sorted(self.schema.roots.items()):
            roots_by_type.setdefault(tname, var)
        names: dict[str, str] = {}
        for n in g.nodes:
            if n.kind is not NodeKind.OBJECT:
                continue
            if n.id not in incoming_acq and n.type_name in roots_by_type:
                names[n.id] = roots_by_type[n.type_name]
            else:
                names[n.id] = _ident(n.id)

        module = min(self.schema.modules) if self.schema.modules else None
        lines: list[str] = []
        if module is not None and self._mentions_enum(g):
            lines.append(f"import {module}")
        ctx = _RenderCtx(g, nmap, out_acq, dep_children, names, module, lines)
        for n in g.nodes:
            if n.kind is NodeKind.OBJECT and n.id not in incoming_acq:
                self._render_node(n.id, 0, ctx)
        return "\n".join(lines) + ("\n" if lines else "")

    def _mentions_enum(self, g: DepGraph) -> bool:
        for n in g.nodes:
            if n.kind is NodeKind.ACTION:
                for ename in self.schema.enums:
                    if f"{ename}." in n.label:
                        return True
        return False

    def _render_node(self, nid: str, indent: int, ctx: "_RenderCtx") -> None:
        pad = "    " * indent
        node = ctx.nmap[nid]
        v = ctx.names[nid]
        label = _parse_label(node.label)
        conds = [d for d in ctx.dep_children[nid] if ctx.nmap[d].kind is NodeKind.CONDITION]
        acts = [d for d in ctx.dep_children[nid] if ctx.nmap[d].kind is NodeKind.ACTION]
        show = label.get("show")
        if conds:
            for cid in conds:
                wanted = _parse_label(ctx.nmap[cid].label).get("name", "")
                ctx.lines.append(f'{pad}if {v}.getName() == "{wanted}":')
                body_start = len(ctx.lines)
                for aid in ctx.dep_children[cid]:
                    if ctx.nmap[aid].kind is NodeKind.ACTION:
                        call = self._action_call(v, ctx.nmap[aid].label, ctx.module)
                        ctx.lines.append(pad + "    " + call)
                if show is not None and show != "count":
                    self._emit_show(v, node, show, indent + 1, ctx)
                if len(ctx.lines) == body_start:
                    ctx.lines.append(pad + "    noop = 0")
        else:
            for aid in acts:
                ctx.lines.append(pad + self._action_call(v, ctx.nmap[aid].label, ctx.module))
            if show is not None and show != "count":
                self._emit_show(v, node, show, indent, ctx)
        for e in ctx.out_acq[nid]:
            self._render_edge(e, indent, ctx)

    def _emit_show(self, v: str, node: GraphNode, show: str,
                   indent: int, ctx: "_RenderCtx") -> None:
        pad = "    " * indent
        tname = node.type_name or ""
        for part in show.split("|"):
            if part == "count":
                continue
            if self.schema.method(tname, part) is not None:
                ctx.lines.append(f"{pad}print({v}.{part}())")
            else:
                ctx.lines.append(f"{pad}print({v}.{part})")

    def _render_edge(self, e: GraphEdge, indent: int, ctx: "_RenderCtx") -> None:
        pad = "    " * indent
        src_v = ctx.names[e.src]
        dst = ctx.nmap[e.dst]
        dst_v = ctx.names[e.dst]
        src_t = ctx.nmap[e.src].type_name or ""
        method = e.via_method or self._pick_method(src_t, dst.type_name or "")
        sig = self.schema.method(src_t, method) if method else None
        if method is None:
            return
        args = self._args_for(sig, _parse_label(dst.label).get("name"))
        call = f"{src_v}.{method}({args})"
        counting = _parse_label(dst.label).get("show") == "count"
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

    def _pick_method(self, src_t: str, dst_t: str) -> str | None:
        decl = self.schema.type_decl(src_t)
        if decl is None:
            return None
        for mname in sorted(decl.methods):
            if decl.methods[mname].returns.base == dst_t:
                return mname
        return None

    def _args_for(self, sig: MethodSig | None, name_label: str | None) -> str:
        if sig is None or sig.arity == 0:
            return ""
        rendered = []
        for p in sig.params:
            if p.type.base == "string":
                rendered.append(f'"{name_label or "x"}"')
            elif p.type.base in ("int", "float"):
                rendered.append("0")
            else:
                rendered.append("None")
        return ", ".join(rendered)

    def _action_call(self, v: str, label: str, module: str | None) -> str:
        call = label.strip()
        if "(" not in call:
            call = call + "()"
        if module is not None:
            for ename in self.schema.enums:
                call = re.sub(
                    rf"(?<![\w.])({re.escape(ename)}\.)", rf"{module}.\1", call
                )
        return f"{v}.{call}"


@dataclass
class _RenderCtx:
    g: DepGraph
    nmap: dict[str, GraphNode]
    out_acq: dict[str, list[GraphEdge]]
    dep_children: dict[str, list[str]]
    names: dict[str, str]
    module: str | None
    lines: list[str]


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


# Verification layer each defect class is expected to surface at.
DEFECT_LAYER: dict[DefectKind, int] = {
    DefectKind.SYNTAX: 1,
    DefectKind.USE_BEFORE_DEF: 2,
    DefectKind.MISSING_ACQUISITION: 2,
    DefectKind.NULL_UNGUARDED: 2,
    DefectKind.UNKNOWN_METHOD: 3,
    DefectKind.BAD_ENUM: 3,
    DefectKind.ARITY: 3,
    DefectKind.MISSING_OUTPUT: 4,
    DefectKind.MISSING_ACTION: 4,
    DefectKind.TIMEOUT_LOOP: 4,
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
    """Wraps a generator, injecting one defect until enough repairs happened.

    The defect persists for heal_after repair rounds: identical defective
    output each time, which is what drives a repair controller's loop guard
    and escalation ladder in a fully deterministic way.
    """

    base: object
    defect: DefectKind
    schema: ApiSchema
    heal_after: int = 1
    repairs_seen: int = 0

    def generate(self, request: GenerationRequest) -> str:
        if request.previous is not None:
            self.repairs_seen += 1
        clean = self.base.generate(request)
        if self.repairs_seen >= self.heal_after:
            return clean
        return apply_defect(clean, self.defect, self.schema)

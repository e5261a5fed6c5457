"""Differential soundness fuzzing: a program that passes L1-L3 hits no API fault.

The verifier and the interpreter are two readings of one language's rules, so
each is an oracle for the other, as in Csmith (Yang et al., PLDI 2011). Seeds
are random conformant programs, their planted defects and the programs in
``HOLES``; Hypothesis mutates their syntax trees. Every mutant that layers 1
to 3 accept runs once. A runtime error fails the test unless it is a value
fault, which no static kind rule can see: division by zero, an index out of
range, a ``find*`` miss, or the step budget running out. Every mutant that
runs to the end takes at least the steps that L4's static bound predicts,
and exactly that many, one per statement, when it has no branch or loop.
"""

from __future__ import annotations

import random
import re
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from programs import random_conformant_program
from structsynth.generators import DefectKind, apply_defect
from structsynth.qas import nodes as qn
from structsynth.qas.analysis import analyze
from structsynth.qas.parser import SyntaxFailure, parse
from structsynth.runtime import ExecStatus, Session, min_steps
from structsynth.verifier import verify_all
from test_verifier import HOLES

_VALUE_FAULT = re.compile(r"division by zero|index -?\d+ out of range|nothing named .* found")

_EXPRS = (qn.Name, qn.IntLit, qn.FloatLit, qn.StringLit, qn.BoolLit, qn.NoneLit, qn.Attribute,
          qn.Index, qn.Call, qn.UnaryOp, qn.BinOp)
_NAMES = ("design", "block", "net", "inst", "count", "x", "odb", "nets1", "msg1")
_ATTRIBUTES = ("name", "weight", "PlacementStatus", "PLACED", "FIRM", "ghost")
_METHODS = ("getBlock", "getNets", "getInsts", "findNet", "getName", "setWeight",
            "setPlacementStatus", "setPeer", "frobnicate")
_OPERATORS = ("+", "-", "*", "/", "%", "<", ">=", "==", "!=")
_LEAVES = (
    qn.IntLit(0), qn.IntLit(2), qn.FloatLit(1.5), qn.StringLit("clk"), qn.BoolLit(True),
    qn.NoneLit(), qn.Attribute(qn.Attribute(qn.Name("odb"), "PlacementStatus"), "FIRM"),
    *(qn.Name(n) for n in _NAMES),
)


def _nodes(node, kinds: tuple) -> list:
    """Every node of one of ``kinds`` under ``node``, in pre-order."""
    out = [node] if isinstance(node, kinds) else []
    for name in node._fields:
        value = getattr(node, name)
        # A node is a tuple too, so it is told apart from a tuple of nodes first.
        for child in (value,) if isinstance(value, qn.Node) or not isinstance(value, tuple) else value:
            if isinstance(child, qn.Node):
                out += _nodes(child, kinds)
    return out


def _rewrite(node, target, make):
    """``node`` with the subtree ``target`` (found by identity) replaced by ``make(target)``."""
    if node is target:
        return make(node)
    changed = {}
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, qn.Node):
            new = _rewrite(value, target, make)
            if new is not value:
                changed[name] = new
        elif isinstance(value, tuple):
            new = tuple(_rewrite(c, target, make) if isinstance(c, qn.Node) else c for c in value)
            if any(a is not b for a, b in zip(new, value)):
                changed[name] = new
    return node._replace(**changed) if changed else node


@st.composite
def expressions(draw, pool: tuple, depth: int = 2):
    """A node from ``pool``, or an operation over smaller expressions."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(pool))
    inner = expressions(pool, depth - 1)
    shape = draw(st.sampled_from(("binop", "index", "neg", "attr", "method", "call", "builtin")))
    if shape == "binop":
        return qn.BinOp(draw(st.sampled_from(_OPERATORS)), draw(inner), draw(inner))
    if shape == "index":
        return qn.Index(draw(inner), draw(inner))
    if shape == "neg":
        return qn.UnaryOp("-", draw(inner))
    if shape == "attr":
        return qn.Attribute(draw(inner), draw(st.sampled_from(_ATTRIBUTES)))
    if shape == "method":
        args = tuple(draw(st.lists(inner, max_size=2)))
        return qn.Call(qn.Attribute(draw(inner), draw(st.sampled_from(_METHODS))), args)
    if shape == "call":
        return qn.Call(draw(inner), ())
    return qn.Call(qn.Name(draw(st.sampled_from(("print", "len", "range")))), (draw(inner),))


@st.composite
def statements(draw, pool: tuple):
    expr = expressions(pool)
    shape = draw(st.sampled_from(("assign", "expr", "for", "if")))
    if shape == "assign":
        return qn.Assign(draw(st.sampled_from(_NAMES)), draw(expr))
    if shape == "expr":
        return qn.ExprStmt(draw(expr))
    body = (qn.ExprStmt(qn.Call(qn.Name("print"), (draw(expr),))),)
    if shape == "for":
        return qn.ForStmt(draw(st.sampled_from(_NAMES)), draw(expr), body)
    return qn.IfStmt(draw(expr), body)


@st.composite
def mutants(draw, schema) -> str:
    """A seed program after one to three syntax-tree mutations.

    A mutation replaces an expression with one built from literals, names and
    the program's own subexpressions; wraps an expression in an operation;
    inserts a statement; or deletes one.
    """
    source = random_conformant_program(random.Random(draw(st.integers(0, 10_000))))
    origin = draw(st.sampled_from(("conformant", "defect", "hole")))
    if origin == "defect":
        source = apply_defect(source, draw(st.sampled_from(list(DefectKind))), schema)
    elif origin == "hole":
        source = draw(st.sampled_from([h[1] for h in HOLES]))
    script = parse(source)
    if isinstance(script, SyntaxFailure):
        return source
    root = qn.IfStmt(qn.BoolLit(True), script.statements)  # one node that holds them all
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(("replace", "wrap", "insert", "delete")))
        blocks = _nodes(root, (qn.IfStmt, qn.ForStmt))
        block = draw(st.sampled_from(blocks))
        if action in ("replace", "wrap"):
            target = draw(st.sampled_from(_nodes(root, _EXPRS)))
            pool = (target,) if action == "wrap" else _LEAVES + tuple(_nodes(root, _EXPRS))
            new = draw(expressions(pool))
            root = _rewrite(root, target, lambda _: new)
        elif action == "insert":
            at = draw(st.integers(0, len(block.body)))
            stmt = draw(statements(_LEAVES + tuple(_nodes(root, _EXPRS))))
            root = _rewrite(root, block, lambda b: b._replace(body=b.body[:at] + (stmt,)
                                                              + b.body[at:]))
        elif len(block.body) > 1:
            at = draw(st.integers(0, len(block.body) - 1))
            root = _rewrite(root, block, lambda b: b._replace(body=b.body[:at]
                                                              + b.body[at + 1:]))
    return qn.module_to_source(root.body)


def _is_value_fault(message: str) -> bool:
    return _VALUE_FAULT.search(message) is not None


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_programs_passing_layers_one_to_three_raise_no_api_fault(peer_schema, peer_snapshot,
                                                                  data):
    source = data.draw(mutants(peer_schema))
    candidate = analyze(source, peer_schema)
    if not verify_all(candidate, None, peer_schema).passed:
        return
    result = Session(peer_snapshot, peer_schema, step_budget=5_000).execute(source)
    if result.status is ExecStatus.RUNTIME_ERROR:
        assert _is_value_fault(result.error_message), (
            f"passed L1-L3, then {result.error_kind}: {result.error_message}\n{source}"
        )
    if result.status is ExecStatus.OK:
        statements = candidate.script.statements
        assert min_steps(statements) <= result.steps, source
        if not any(isinstance(s, (qn.IfStmt, qn.ForStmt)) for s in statements):
            assert min_steps(statements) == result.steps == len(statements), source


def test_value_faults_are_told_apart_by_message(schema, snapshot):
    faults = {
        "print(1 / 0)\n": True,
        'print("ab"[5])\n': True,
        "print(design.getBlock()[0])\n": False,
        'print("a" + 1)\n': False,
    }
    for source, is_value in faults.items():
        result = Session(snapshot, schema).execute(source)
        assert result.error_kind == "TypeError"
        assert _is_value_fault(result.error_message) is is_value, source

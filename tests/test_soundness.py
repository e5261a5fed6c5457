"""Differential soundness fuzzing: a program that passes L1-L3 hits no API fault.

The verifier and the interpreter are two readings of one language's rules, so
each is an oracle for the other, as in Csmith (Yang et al., PLDI 2011). Seeds
are random conformant programs, their planted defects and the programs in
``HOLES``, and seeded draws mutate their syntax trees. Each seed from 0 to 299
gives one mutant from ``random.Random(seed)`` alone, so the mutants do not
move when the package or this file changes. Every mutant that layers 1 to 3
accept runs once. A runtime error fails the test unless it is a value
fault, which no static kind rule can see: division by zero, an index out of
range, a ``find*`` miss, or the step budget running out. Every mutant that
runs to the end takes at least the steps that L4's static bound predicts,
and exactly that many, one per statement, when it has no branch or loop.
Every accepted mutant also meets what L3 checks of the text itself: each
method call resolves on a single schema object, and each import is valid.
"""

from __future__ import annotations

import random
import re

from programs import random_conformant_program
from structsynth.generators import DefectKind, apply_defect
from structsynth.qas import nodes as qn
from structsynth.qas.analysis import analyze
from structsynth.qas.parser import SyntaxFailure, parse
from structsynth.runtime import ExecStatus, Session, min_steps
from structsynth.schema import valid_import
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


def expressions(rng: random.Random, pool: tuple, depth: int = 2):
    """A node from ``pool``, or an operation over smaller expressions."""
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(pool)

    def inner():
        return expressions(rng, pool, depth - 1)

    shape = rng.choice(("binop", "index", "neg", "attr", "method", "call", "builtin"))
    if shape == "binop":
        return qn.BinOp(rng.choice(_OPERATORS), inner(), inner())
    if shape == "index":
        return qn.Index(inner(), inner())
    if shape == "neg":
        return qn.UnaryOp("-", inner())
    if shape == "attr":
        return qn.Attribute(inner(), rng.choice(_ATTRIBUTES))
    if shape == "method":
        args = tuple(inner() for _ in range(rng.randint(0, 2)))
        return qn.Call(qn.Attribute(inner(), rng.choice(_METHODS)), args)
    if shape == "call":
        return qn.Call(inner(), ())
    return qn.Call(qn.Name(rng.choice(("print", "len", "range"))), (inner(),))


def statements(rng: random.Random, pool: tuple):
    shape = rng.choice(("assign", "expr", "for", "if"))
    if shape == "assign":
        return qn.Assign(rng.choice(_NAMES), expressions(rng, pool))
    if shape == "expr":
        return qn.ExprStmt(expressions(rng, pool))
    body = (qn.ExprStmt(qn.Call(qn.Name("print"), (expressions(rng, pool),))),)
    if shape == "for":
        return qn.ForStmt(rng.choice(_NAMES), expressions(rng, pool), body)
    return qn.IfStmt(expressions(rng, pool), body)


def mutant(rng: random.Random, schema) -> str:
    """A seed program after one to three syntax-tree mutations.

    A mutation replaces an expression with one built from literals, names and
    the program's own subexpressions; wraps an expression in an operation;
    inserts a statement; or deletes one.
    """
    source = random_conformant_program(rng)
    origin = rng.choice(("conformant", "defect", "hole"))
    if origin == "defect":
        source = apply_defect(source, rng.choice(list(DefectKind)), schema)
    elif origin == "hole":
        source = rng.choice([h[1] for h in HOLES])
    script = parse(source)
    if isinstance(script, SyntaxFailure):
        return source
    root = qn.IfStmt(qn.BoolLit(True), script.statements)  # one node that holds them all
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(("replace", "wrap", "insert", "delete"))
        block = rng.choice(_nodes(root, (qn.IfStmt, qn.ForStmt)))
        if action in ("replace", "wrap"):
            target = rng.choice(_nodes(root, _EXPRS))
            pool = (target,) if action == "wrap" else _LEAVES + tuple(_nodes(root, _EXPRS))
            new = expressions(rng, pool)
            root = _rewrite(root, target, lambda _: new)
        elif action == "insert":
            at = rng.randint(0, len(block.body))
            stmt = statements(rng, _LEAVES + tuple(_nodes(root, _EXPRS)))
            root = _rewrite(root, block, lambda b: b._replace(body=b.body[:at] + (stmt,)
                                                              + b.body[at:]))
        elif len(block.body) > 1:
            at = rng.randint(0, len(block.body) - 1)
            root = _rewrite(root, block, lambda b: b._replace(body=b.body[:at]
                                                              + b.body[at + 1:]))
    return qn.module_to_source(root.body)


def _is_value_fault(message: str) -> bool:
    return _VALUE_FAULT.search(message) is not None


def _broken_promise(source: str, schema, snapshot) -> str | None:
    """What a program that passes L1-L3 breaks of their promise; None if nothing or rejected."""
    candidate = analyze(source, schema)
    if not verify_all(candidate, None, schema).passed:
        return None
    for cs in candidate.typed.call_sites:
        if cs.returns is None or cs.receiver_type.many:
            return f"call site {cs.method!r} has no single schema signature"
        if not schema.is_object_type(cs.receiver_type.base):
            return f"call site {cs.method!r} has a receiver of type {cs.receiver_type.base}"
    if not all(valid_import(schema, name) for name in candidate.typed.imports):
        return f"invalid import among {candidate.typed.imports}"
    result = Session(snapshot, schema, step_budget=5_000).execute(source)
    if result.status is ExecStatus.RUNTIME_ERROR and not _is_value_fault(result.error_message):
        return f"passed L1-L3, then {result.error_kind}: {result.error_message}"
    if result.status is ExecStatus.OK:
        statements = candidate.script.statements
        if min_steps(statements) > result.steps:
            return f"min_steps {min_steps(statements)} exceeds the {result.steps} steps run"
        straight = not any(isinstance(s, (qn.IfStmt, qn.ForStmt)) for s in statements)
        if straight and not min_steps(statements) == result.steps == len(statements):
            return f"straight-line: min_steps {min_steps(statements)}, {result.steps} steps"
    return None


def test_programs_passing_layers_one_to_three_raise_no_api_fault(peer_schema, peer_snapshot):
    for seed in range(300):
        source = mutant(random.Random(seed), peer_schema)
        broken = _broken_promise(source, peer_schema, peer_snapshot)
        assert broken is None, f"seed {seed}: {broken}\n{source}"


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

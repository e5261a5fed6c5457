from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from structsynth.fixtures import random_conformant_program
from structsynth.qas.analysis import infer_types, normalize_statements
from structsynth.qas.nodes import (
    Assign,
    Attribute,
    BinOp,
    Call,
    ExprStmt,
    ForStmt,
    IfStmt,
    ImportStmt,
    IntLit,
    Name,
    NoneLit,
    StringLit,
)
from structsynth.qas.parser import Script, SyntaxFailure, parse
from structsynth.schema import TypeRef

CANONICAL = """import odb
block = design.getBlock()
net = block.findNet("clk")
if net != None:
    net.setWeight(2)
for inst in block.getInsts():
    if inst.getName() == "u1":
        inst.setPlacementStatus(odb.PlacementStatus.PLACED)
print(len(block.getNets()))
"""


def test_parse_canonical_structure():
    script = parse(CANONICAL)
    assert isinstance(script, Script)
    s = script.statements
    assert len(s) == 6
    assert s[0] == ImportStmt("odb")
    assert s[1] == Assign("block", Call(Attribute(Name("design"), "getBlock"), ()))
    assert s[2] == Assign(
        "net", Call(Attribute(Name("block"), "findNet"), (StringLit("clk"),))
    )
    assert s[3] == IfStmt(
        test=BinOp("!=", Name("net"), NoneLit()),
        body=(ExprStmt(Call(Attribute(Name("net"), "setWeight"), (IntLit(2),))),),
    )
    assert isinstance(s[4], ForStmt)
    assert isinstance(s[5], ExprStmt)


def test_parse_records_locations():
    script = parse(CANONICAL)
    assert script.statements[0].line == 1
    assert script.statements[2].line == 3
    guarded = script.statements[3].body[0]
    assert guarded.line == 5
    assert guarded.col == 5


def test_to_source_is_canonical_on_canonical_input():
    script = parse(CANONICAL)
    assert script.to_source() == CANONICAL


def test_to_source_normalizes_spacing():
    script = parse("x   =   1  +  2\n")
    assert script.to_source() == "x = 1 + 2\n"


def test_parse_error_reports_position():
    failure = parse("x = = 1\n")
    assert isinstance(failure, SyntaxFailure)
    assert failure.errors[0].line == 1
    assert failure.errors[0].column >= 1


def test_parse_collects_multiple_errors():
    failure = parse("x = = 1\ny = 2\nz = )\n")
    assert isinstance(failure, SyntaxFailure)
    assert len(failure.errors) >= 2
    assert [e.line for e in failure.errors[:2]] == [1, 3]


def test_parse_else_branch():
    script = parse("if x == 1:\n    y = 1\nelse:\n    y = 2\n")
    assert isinstance(script, Script)
    stmt = script.statements[0]
    assert isinstance(stmt, IfStmt)
    assert len(stmt.body) == 1
    assert len(stmt.orelse) == 1
    assert script.to_source() == "if x == 1:\n    y = 1\nelse:\n    y = 2\n"


def test_precedence_round_trip():
    # Parens required by precedence survive; redundant ones are dropped.
    script = parse("x = (a + b) * c\ny = a + b * c\nz = ((a))\n")
    assert script.to_source() == "x = (a + b) * c\ny = a + b * c\nz = a\n"


def test_string_escapes_round_trip():
    script = parse('x = "a\\"b\\n"\n')
    assert isinstance(script, Script)
    again = parse(script.to_source())
    assert again.statements == script.statements


def test_structural_equality_ignores_locations():
    a = parse('x = f(1)\ny = 2\n')
    b = parse('\n\nx = f(1)\n\ny = 2\n')
    assert a.statements == b.statements


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_idempotent_on_generated_programs(seed):
    source = random_conformant_program(random.Random(seed))
    script = parse(source)
    assert isinstance(script, Script)
    once = script.to_source()
    again = parse(once)
    assert isinstance(again, Script)
    assert again.statements == script.statements
    assert again.to_source() == once


def test_normalize_statements_ignores_formatting():
    a = parse("x = 1\nif x == 1:\n    y = x + 2\n")
    b = parse("x  =  1\nif  x == 1 :\n        y = x+2\n")
    assert normalize_statements(a) == normalize_statements(b)
    assert "y = x + 2" in normalize_statements(a)


def test_infer_types_canonical(schema):
    ts = infer_types(parse(CANONICAL), schema)
    assert ts.undefined_uses == ()
    assert ts.imports == ("odb",)
    sites = {(c.receiver_text, c.method): c for c in ts.call_sites}
    assert sites[("block", "findNet")].receiver_type == TypeRef("Block")
    # findNet's nullability is visible where the guard reads the binding...
    guard = next(op for op in ts.operations if op.op == "!=")
    assert guard.operands == (TypeRef("Net", nullable=True), TypeRef("void", nullable=True))
    # ...but discharged inside the None guard.
    assert not sites[("net", "setWeight")].receiver_type.nullable
    assert sites[("net", "setWeight")].mutates
    assert sites[("inst", "setPlacementStatus")].receiver_type == TypeRef("Inst")
    assert [op.op for op in ts.operations if op.op != "method"] == [
        "!=", "for", "==", "attribute", "attribute", "len", "print"
    ]
    assert sum(op.op == "method" for op in ts.operations) == len(ts.call_sites) == 7
    assert [e.name for e in ts.enum_refs] == ["odb.PlacementStatus.PLACED"]


def test_infer_types_flags_undefined(schema):
    ts = infer_types(parse("ghost.getName()\n"), schema)
    assert len(ts.undefined_uses) == 1
    assert ts.undefined_uses[0].name == "ghost"
    assert ts.undefined_uses[0].reason == "undefined"


def test_infer_types_loop_definitions_do_not_dominate(schema):
    src = "block = design.getBlock()\nfor net in block.getNets():\n    x = 1\nprint(x)\n"
    ts = infer_types(parse(src), schema)
    assert any(u.name == "x" for u in ts.undefined_uses)


def test_infer_types_unguarded_nullable_receiver(schema):
    src = 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(2)\n'
    ts = infer_types(parse(src), schema)
    site = next(c for c in ts.call_sites if c.method == "setWeight")
    assert site.receiver_type.nullable


def test_infer_types_loop_var_is_element_type(schema):
    src = "block = design.getBlock()\nfor net in block.getNets():\n    print(net.getName())\n"
    ts = infer_types(parse(src), schema)
    site = next(c for c in ts.call_sites if c.method == "getName")
    assert site.receiver_type == TypeRef("Net")


def test_infer_types_enum_chain_is_not_undefined(schema):
    src = "import odb\nx = odb.PlacementStatus.PLACED\n"
    ts = infer_types(parse(src), schema)
    assert ts.undefined_uses == ()
    assert [e.name for e in ts.enum_refs] == ["odb.PlacementStatus.PLACED"]

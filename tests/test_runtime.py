"""Mock runtime: snapshot conformance, dispatch, accounting, failure kinds."""

from __future__ import annotations

import copy
import json

import pytest

from structsynth.fixtures import fixture_path, make_scaled_snapshot, toy_snapshot
from structsynth.qas import nodes as qn
from structsynth.qas.analysis import analyze
from structsynth.qas.parser import SyntaxFailure, parse
from structsynth.runtime import (
    ExecStatus,
    ExecutionResult,
    Session,
    Snapshot,
    SnapshotError,
    min_steps,
    snapshot_from_dict,
)
from structsynth.schema import ParseError, schema_from_dict
from structsynth.verifier import verify_all


def fresh_session(snapshot, schema, **kwargs) -> Session:
    return Session(snapshot, schema, **kwargs)


def run(session: Session, source: str):
    return session.execute(source)


def test_snapshot_document_needs_objects_list(schema):
    with pytest.raises(ParseError):
        snapshot_from_dict({"roots": {}}, schema)


def test_snapshot_conformance_collects_all_violations(schema):
    raw = {
        "objects": [
            {"id": "g1", "type": "Gadget"},
            {"id": "d1", "type": "Design", "children": {"getBlock": ["missing"]}},
            {"id": "b1", "type": "Block", "children": {"getName": ["d1"]}},
        ],
        "roots": {"design": "d1", "librarian": "d1"},
    }
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(raw, schema)
    locations = {v.location for v in exc.value.violations}
    assert "g1" in locations
    assert "d1.children.getBlock" in locations
    assert "b1.children.getName" in locations
    assert "roots.librarian" in locations


def test_snapshot_child_type_must_match_return_type(schema):
    raw = {
        "objects": [
            {"id": "d1", "type": "Design", "children": {"getBlock": ["n1"]}},
            {"id": "n1", "type": "Net"},
        ],
        "roots": {"design": "d1"},
    }
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(raw, schema)
    assert any("getBlock" in v.location for v in exc.value.violations)


def test_snapshot_duplicate_ids_rejected(schema):
    raw = {
        "objects": [
            {"id": "d1", "type": "Design"},
            {"id": "d1", "type": "Design"},
        ],
        "roots": {"design": "d1"},
    }
    with pytest.raises(SnapshotError):
        snapshot_from_dict(raw, schema)


def test_snapshot_requires_a_record_per_root_type(schema):
    raw = {"objects": [{"id": "n1", "type": "Net"}]}
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(raw, schema)
    assert any("root type Design" in v.message for v in exc.value.violations)


def test_unbound_root_binds_to_first_record_of_type(schema):
    raw = {
        "objects": [
            {"id": "d9", "type": "Design"},
            {"id": "d2", "type": "Design"},
        ]
    }
    snap = snapshot_from_dict(raw, schema)
    assert snap.roots == {"design": "d2"}


def test_root_with_wrong_type_is_a_violation(schema):
    raw = {
        "objects": [
            {"id": "d1", "type": "Design"},
            {"id": "n1", "type": "Net"},
        ],
        "roots": {"design": "n1"},
    }
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(raw, schema)
    assert any("want Design" in v.message for v in exc.value.violations)


def test_snapshot_interns_one_ref_per_record_outside_equality_and_repr(schema):
    raw = json.loads(fixture_path("toy_snapshot.json").read_text())
    first, second = snapshot_from_dict(raw, schema), snapshot_from_dict(raw, schema)
    assert first == second and repr(first) == repr(second)
    assert first.refs is not second.refs
    assert {oid: (r.id, r.type) for oid, r in first.refs.items()} == {
        oid: (oid, rec.type) for oid, rec in first.objects.items()
    }
    assert "refs" not in repr(first) and "ObjRef" not in repr(first)
    unequal_refs = Snapshot(first.objects, first.roots)
    object.__setattr__(unequal_refs, "refs", {})
    assert unequal_refs == first


def test_session_reads_interned_refs(snapshot, schema):
    session = fresh_session(snapshot, schema)
    assert session.ref("n1") is snapshot.refs["n1"]
    made = session.materialize("Block")
    assert session.ref(made.id) is made and made.id not in snapshot.refs


def test_canonical_trace(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "block = design.getBlock()\n"
        'net = block.findNet("clk")\n'
        "net.setWeight(5)\n"
        "print(net.weight)\n",
    )
    assert result.status is ExecStatus.OK
    assert result.output == ("5",)
    assert result.mutations == 1
    assert session.object("n1").fields["weight"] == 5


def test_getters_read_children_and_fields(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "block = design.getBlock()\n"
        "for net in block.getNets():\n"
        "    print(net.getName())\n",
    )
    assert result.status is ExecStatus.OK
    assert result.output == ("clk", "rst", "data")


def test_find_miss_returns_none_for_nullable(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "block = design.getBlock()\n"
        'net = block.findNet("nope")\n'
        "print(net)\n",
    )
    assert result.status is ExecStatus.OK
    assert result.output == ("None",)


def test_method_call_on_none_is_null_access(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "block = design.getBlock()\n"
        'net = block.findNet("nope")\n'
        "print(net.getName())\n",
    )
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert result.error_kind == "NullAccess"


def test_missing_single_child_materializes(schema):
    snap = snapshot_from_dict({"objects": [{"id": "d1", "type": "Design"}]}, schema)
    session = fresh_session(snap, schema)
    result = run(session, "block = design.getBlock()\nprint(block.getNets())\n")
    assert result.status is ExecStatus.OK
    assert result.output == ("[]",)
    assert session.object("auto_block_1").type == "Block"
    assert session.object("d1").children["getBlock"] == ["auto_block_1"]


def test_unknown_method_and_bad_attribute(snapshot, schema):
    session = fresh_session(snapshot, schema)
    first = run(session, "design.optimize()\n")
    assert first.error_kind == "UnknownMethod"
    second = run(
        session, "block = design.getBlock()\nnets = block.getNets()\nprint(nets[0].area)\n"
    )
    assert second.error_kind == "BadAttribute"


def test_arity_and_arg_type_checks(snapshot, schema):
    session = fresh_session(snapshot, schema)
    arity = run(
        session,
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(1, 2)\n',
    )
    assert arity.error_kind == "TypeError"
    assert "1 argument" in arity.error_message
    typed = run(
        session,
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight("heavy")\n',
    )
    assert typed.error_kind == "TypeError"
    assert "expects int" in typed.error_message


def test_enum_argument_checking(snapshot, schema):
    session = fresh_session(snapshot, schema)
    good = run(
        session,
        "import odb\n"
        "block = design.getBlock()\n"
        "for inst in block.getInsts():\n"
        "    inst.setPlacementStatus(odb.PlacementStatus.PLACED)\n",
    )
    assert good.status is ExecStatus.OK
    assert good.mutations == 2
    bad = run(
        session,
        "block = design.getBlock()\n"
        "for inst in block.getInsts():\n"
        "    inst.setPlacementStatus(3)\n",
    )
    assert bad.error_kind == "TypeError"


def test_import_and_enum_failures(snapshot, schema):
    session = fresh_session(snapshot, schema)
    assert run(session, "import nosuch\n").error_kind == "ImportError"
    assert run(session, "import odb\nx = odb.Bogus\n").error_kind == "EnumError"
    missing = run(session, "import odb\nx = odb.PlacementStatus.NOPE\n")
    assert missing.error_kind == "EnumError"


def test_name_error_for_undefined_variable(snapshot, schema):
    result = run(fresh_session(snapshot, schema), "print(ghost)\n")
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert result.error_kind == "NameError"


def test_syntax_error_reports_line(snapshot, schema):
    result = run(fresh_session(snapshot, schema), "x = = 1\n")
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert result.error_kind == "SyntaxError"
    assert "line 1" in result.error_message


def test_step_budget_times_out(snapshot, schema):
    session = fresh_session(snapshot, schema, step_budget=25)
    result = run(session, "for i in range(100):\n    print(i)\n")
    assert result.status is ExecStatus.TIMEOUT
    assert result.steps == 26
    assert "step budget of 25" in result.error_message
    assert len(result.output) > 0


def test_print_formatting(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "import odb\n"
        "block = design.getBlock()\n"
        'net = block.findNet("clk")\n'
        "print(net)\n"
        "print(block.getNets())\n"
        "print(odb.PlacementStatus.FIRM)\n"
        "print(1.5)\n"
        "print(True)\n"
        "print(len(block.getInsts()))\n",
    )
    assert result.status is ExecStatus.OK
    assert result.output == (
        "<Net n1>",
        "[<Net n1>, <Net n2>, <Net n3>]",
        "PlacementStatus.FIRM",
        "1.5",
        "True",
        "2",
    )


def test_arithmetic_and_comparisons(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "print(2 + 3 * 4)\nprint(1 < 2)\nprint(-5)\nprint(10 / 4)\n",
    )
    assert result.status is ExecStatus.OK
    assert result.output == ("14", "True", "-5", "2.5")
    assert run(session, "x = 1 / 0\n").error_kind == "TypeError"


# An int past float range (10**450), and one past the range of ``len`` (10**26).
_GROW = "x = 1\nfor i in range(30):\n    x = x * 1000000000000000\n"
_HUGE = "x = 100000000000000000000000000\n"

# Every statement and expression kind and every runtime error path, pinned to
# exact results: (status, output, error kind, error message, steps, mutations).
INTERPRETER_CASES = [
    pytest.param(
        'print(7)\nprint(2.5)\nprint("s")\nprint(True)\nprint(False)\nprint(None)\n',
        ("ok", ("7", "2.5", "s", "True", "False", "None"), None, "", 6, 0),
        id="literals",
    ),
    pytest.param("x = 3\ny = x\nprint(y)\n", ("ok", ("3",), None, "", 3, 0), id="assign-name"),
    pytest.param("design.getBlock()\n", ("ok", (), None, "", 1, 0), id="expr-stmt"),
    pytest.param(
        "import odb\nprint(odb)\nprint(odb.PlacementStatus)\n",
        ("ok", ("<module odb>", "<enum PlacementStatus>"), None, "", 3, 0),
        id="import-module",
    ),
    pytest.param(
        "import odb.PlacementStatus\nprint(odb.PlacementStatus.PLACED)\n",
        ("ok", ("PlacementStatus.PLACED",), None, "", 2, 0),
        id="import-dotted",
    ),
    pytest.param(
        "for n in design.getBlock().getNets():\n    print(n.name)\n",
        ("ok", ("clk", "rst", "data"), None, "", 7, 0),
        id="for-list",
    ),
    pytest.param(
        "for i in range(3):\n    print(i * 2)\n",
        ("ok", ("0", "2", "4"), None, "", 7, 0),
        id="for-range",
    ),
    pytest.param(
        "for i in range(0):\n    print(i)\nprint(len(range(0)))\n",
        ("ok", ("0",), None, "", 2, 0),
        id="for-empty",
    ),
    pytest.param(
        "for i in range(2):\n    for j in range(2):\n        print(i + j)\n",
        ("ok", ("0", "1", "1", "2"), None, "", 13, 0),
        id="nested-for",
    ),
    pytest.param(
        'x = 2\nif x > 1:\n    print("big")\nelse:\n    print("small")\nif x < 1:\n'
        '    print("small")\nelse:\n    print("big")\n',
        ("ok", ("big", "big"), None, "", 5, 0),
        id="if-else",
    ),
    pytest.param(
        'if 0:\n    print(1)\nif "":\n    print(2)\nif None:\n    print(3)\nif design:\n'
        "    print(4)\n",
        ("ok", ("4",), None, "", 5, 0),
        id="if-no-else",
    ),
    pytest.param(
        'x = 1\nif x > 2:\n    print(1)\nif x == "1":\n    print(2)\nif x - 1:\n    print(3)\n'
        "print(4)\n",
        ("ok", ("4",), None, "", 5, 0),
        id="if-false-no-else",
    ),
    pytest.param(
        "import odb\nif odb:\n    print(1)\nif odb.PlacementStatus.PLACED:\n    print(2)\n"
        "if design.getBlock().getNets():\n    print(3)\nif range(0):\n    print(4)\n",
        ("ok", ("1", "2", "3"), None, "", 8, 0),
        id="truthy-values",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nprint(net.name)\n'
        "print(net.weight)\n",
        ("ok", ("clk", "1"), None, "", 4, 0),
        id="attribute-field",
    ),
    pytest.param(
        "block = design.getBlock()\nfor i in block.getInsts():\n    print(i.name)\n"
        'print(block.findNet("rst").weight)\n',
        ("ok", ("u1", "u2", "2"), None, "", 7, 0),
        id="attribute-default",
    ),
    pytest.param(
        "nets = design.getBlock().getNets()\nprint(nets[1])\nprint(nets[-1].name)\n",
        ("ok", ("<Net n2>", "data"), None, "", 3, 0),
        id="index-list",
    ),
    pytest.param(
        'x = "abc"\nprint(x[0])\nprint(x[-1])\n',
        ("ok", ("a", "c"), None, "", 3, 0),
        id="index-string",
    ),
    pytest.param("print(range(5)[3])\n", ("ok", ("3",), None, "", 1, 0), id="index-range"),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nprint(net.getName())\n',
        ("ok", ("clk",), None, "", 3, 0),
        id="get-field",
    ),
    pytest.param(
        "print(design.getBlock().getInsts())\n",
        ("ok", ("[<Inst i1>, <Inst i2>]",), None, "", 1, 0),
        id="get-many",
    ),
    pytest.param(
        'print(design.getBlock().findNet("data"))\n',
        ("ok", ("<Net n3>",), None, "", 1, 0),
        id="find-hit",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("nope")\nprint(net)\nprint(net == None)\n',
        ("ok", ("None", "True"), None, "", 4, 0),
        id="find-miss",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(4)\n'
        "print(net.weight)\nnet.setWeight(6)\nprint(net.getName())\n",
        ("ok", ("4", "clk"), None, "", 6, 2),
        id="set-int",
    ),
    pytest.param(
        "import odb\nfor i in design.getBlock().getInsts():\n"
        "    i.setPlacementStatus(odb.PlacementStatus.FIRM)\n",
        ("ok", (), None, "", 6, 2),
        id="set-enum",
    ),
    pytest.param(
        'print(len("abcd"))\nprint(len(design.getBlock().getNets()))\nprint(range(4))\n',
        ("ok", ("4", "3", "range(4)"), None, "", 3, 0),
        id="builtins",
    ),
    pytest.param(
        "print(-3)\nprint(-2.5)\nx = 4\nprint(-x)\nprint(--x)\n",
        ("ok", ("-3", "-2.5", "-4", "4"), None, "", 5, 0),
        id="unary",
    ),
    pytest.param(
        "print(1 + 2)\nprint(5 - 7)\nprint(3 * 4)\nprint(7 / 2)\nprint(1.5 + 2)\nprint(2 * 2.0)\n"
        "print(1 + 2 * 3 - 4 / 2)\n",
        ("ok", ("3", "-2", "12", "3.5", "3.5", "4.0", "5.0"), None, "", 7, 0),
        id="arith",
    ),
    pytest.param(
        'print("a" + "b")\nx = "n: " + design.getBlock().findNet("clk").getName()\nprint(x)\n',
        ("ok", ("ab", "n: clk"), None, "", 3, 0),
        id="concat",
    ),
    pytest.param(
        "print(1 < 2)\nprint(2 <= 2)\nprint(3 > 4)\nprint(3 >= 4)\nprint(1 == 1.0)\n"
        "print(1 != 2)\n",
        ("ok", ("True", "True", "False", "False", "True", "True"), None, "", 6, 0),
        id="compare-numbers",
    ),
    pytest.param(
        'print("a" < "b")\nprint("b" >= "a")\nprint("a" == "a")\nprint("a" != "a")\n',
        ("ok", ("True", "True", "True", "False"), None, "", 4, 0),
        id="compare-strings",
    ),
    pytest.param(
        'print("a" == 1)\nprint(1 != "a")\n',
        ("ok", ("False", "True"), None, "", 2, 0),
        id="compare-mixed-literals",
    ),
    pytest.param(
        'print(1 == "1")\nprint(True == 1)\nprint(True == True)\nprint(None == None)\n'
        "print(design == design)\nprint(design.getBlock() == design)\nimport odb\n"
        "print(odb.PlacementStatus.PLACED == odb.PlacementStatus.PLACED)\n"
        "print(odb.PlacementStatus.PLACED != odb.PlacementStatus.FIRM)\n",
        ("ok", ("False", "False", "True", "True", "True", "False", "True", "True"), None,
         "", 9, 0),
        id="equals-mixed",
    ),
    pytest.param(
        'import odb\nn = None\ni = 1\nb = True\nr = design\ne = odb.PlacementStatus.PLACED\n'
        's = "PlacementStatus.PLACED"\nprint(n == "None")\nprint(i == "1")\nprint(b == "True")\n'
        'print(r == "d1")\nprint(e == "PlacementStatus.PLACED")\n'
        'print(s == "PlacementStatus.PLACED")\nprint(s == "PLACED")\n',
        ("ok", ("False", "False", "False", "False", "False", "True", "False"), None, "", 14, 0),
        id="equals-string-literal",
    ),
    pytest.param(
        'import odb\nn = None\ni = 1\nb = True\nr = design\ne = odb.PlacementStatus.PLACED\n'
        's = "PlacementStatus.PLACED"\nprint(n != "None")\nprint(i != "1")\nprint(b != "True")\n'
        'print(r != "d1")\nprint(e != "PlacementStatus.PLACED")\n'
        'print(s != "PlacementStatus.PLACED")\nprint(s != "PLACED")\n',
        ("ok", ("True", "True", "True", "True", "True", "False", "True"), None, "", 14, 0),
        id="not-equals-string-literal",
    ),
    pytest.param(
        'print(design.getBlock().findNet("clk").getName() == "clk")\nprint(len("ab") == "2")\n'
        'print(design.getBlock().findNet("rst").name != "clk")\n',
        ("ok", ("True", "False", "True"), None, "", 3, 0),
        id="string-literal-right-of-a-call",
    ),
    pytest.param(
        "print(design.getBlock().getNets())\nprint(range(2))\n",
        ("ok", ("[<Net n1>, <Net n2>, <Net n3>]", "range(2)"), None, "", 2, 0),
        id="print-collections",
    ),
    pytest.param(
        'x = "s"\nprint(x)\nprint("t")\ny = 3\nprint(y)\nprint(None)\nprint(design)\n'
        "print(design.getBlock().getNets())\nprint(design.getBlock().getInsts()[0])\n",
        ("ok", ("s", "t", "3", "None", "<Design d1>", "[<Net n1>, <Net n2>, <Net n3>]",
                "<Inst i1>"), None, "", 9, 0),
        id="print-values",
    ),
    pytest.param(
        "print(ghost)\n",
        ("runtime_error", (), "NameError", "name 'ghost' is not defined", 1, 0),
        id="name-error",
    ),
    pytest.param(
        "print(undefined)\n",
        ("runtime_error", (), "NameError", "name 'undefined' is not defined", 1, 0),
        id="name-error-print",
    ),
    pytest.param(
        "ghost.getName()\n",
        ("runtime_error", (), "NameError", "name 'ghost' is not defined", 1, 0),
        id="name-error-receiver",
    ),
    pytest.param(
        "x = None\nx.getName(y)\n",
        ("runtime_error", (), "NameError", "name 'y' is not defined", 2, 0),
        id="name-error-argument-before-null",
    ),
    pytest.param(
        "frob(1)\n",
        ("runtime_error", (), "NameError", "name 'frob' is not defined", 1, 0),
        id="name-error-call",
    ),
    pytest.param(
        "x = 1\nprint(ghost + 1)\n",
        ("runtime_error", (), "NameError", "name 'ghost' is not defined", 2, 0),
        id="name-error-left-of-literal",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("nope")\nprint(net.name)\n',
        ("runtime_error", (), "NullAccess", "attribute 'name' read on None", 3, 0),
        id="null-attribute",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("nope")\nprint(net.getName())\n',
        ("runtime_error", (), "NullAccess", "method 'getName' called on None", 3, 0),
        id="null-call",
    ),
    pytest.param(
        "print(design.area)\n",
        ("runtime_error", (), "BadAttribute", "Design has no attribute 'area'", 1, 0),
        id="bad-attribute-object",
    ),
    pytest.param(
        'x = "ab"\nprint(x.name)\n',
        ("runtime_error", (), "BadAttribute", "attribute 'name' on ab", 2, 0),
        id="bad-attribute-scalar",
    ),
    pytest.param(
        "print(design.getBlock().getNets().name)\n",
        ("runtime_error", (), "BadAttribute",
         "attribute 'name' on [<Net n1>, <Net n2>, <Net n3>]", 1, 0),
        id="bad-attribute-collection",
    ),
    pytest.param(
        "import odb\nx = odb.Bogus\n",
        ("runtime_error", (), "EnumError", "module 'odb' has no member 'Bogus'", 2, 0),
        id="enum-error-module",
    ),
    pytest.param(
        "import odb\nx = odb.PlacementStatus.NOPE\n",
        ("runtime_error", (), "EnumError", "PlacementStatus has no constant 'NOPE'", 2, 0),
        id="enum-error-constant",
    ),
    pytest.param(
        "design.optimize()\n",
        ("runtime_error", (), "UnknownMethod", "Design has no method 'optimize'", 1, 0),
        id="unknown-method-object",
    ),
    pytest.param(
        "x = 1\nx.frob()\n",
        ("runtime_error", (), "UnknownMethod", "1 has no methods", 2, 0),
        id="unknown-method-scalar",
    ),
    pytest.param(
        "import odb\nx = odb.PlacementStatus.PLACED\nprint(x.getName())\n",
        ("runtime_error", (), "UnknownMethod", "PlacementStatus.PLACED has no methods", 3, 0),
        id="unknown-method-enum",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(1, 2)\n',
        ("runtime_error", (), "TypeError", "Net.setWeight takes 1 argument(s), got 2", 3, 0),
        id="arity",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight("heavy")\n',
        ("runtime_error", (), "TypeError",
         "Net.setWeight argument 'weight' expects int, got heavy", 3, 0),
        id="arg-type-int",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(True)\n',
        ("runtime_error", (), "TypeError",
         "Net.setWeight argument 'weight' expects int, got True", 3, 0),
        id="arg-type-bool-for-int",
    ),
    pytest.param(
        "print(design.getBlock().findNet(5))\n",
        ("runtime_error", (), "TypeError",
         "Block.findNet argument 'name' expects string, got 5", 1, 0),
        id="arg-type-string",
    ),
    pytest.param(
        "for i in design.getBlock().getInsts():\n    i.setPlacementStatus(3)\n",
        ("runtime_error", (), "TypeError",
         "Inst.setPlacementStatus argument 'status' expects PlacementStatus, got 3", 3, 0),
        id="arg-type-enum",
    ),
    pytest.param(
        'x = "ab"\nprint(x["a"])\n',
        ("runtime_error", (), "TypeError", "index must be an int", 2, 0),
        id="index-not-int",
    ),
    pytest.param(
        "x = 5\nprint(x[0])\n",
        ("runtime_error", (), "TypeError", "value is not indexable", 2, 0),
        id="not-indexable",
    ),
    pytest.param(
        'x = "ab"\nprint(x[5])\n',
        ("runtime_error", (), "TypeError", "index 5 out of range", 2, 0),
        id="index-out-of-range",
    ),
    pytest.param(
        'print(-"a")\n',
        ("runtime_error", (), "TypeError", "unary minus needs a number", 1, 0),
        id="unary-minus",
    ),
    pytest.param(
        'print(1 < "a")\n',
        ("runtime_error", (), "TypeError", "cannot order 1 and a", 1, 0),
        id="ordering",
    ),
    pytest.param(
        'print(1 - "a")\n',
        ("runtime_error", (), "TypeError", "bad operands for '-'", 1, 0),
        id="bad-operands",
    ),
    pytest.param(
        'print("a" + 1)\n',
        ("runtime_error", (), "TypeError", "bad operands for '+'", 1, 0),
        id="bad-operands-concat",
    ),
    pytest.param(
        "print(1 / 0)\n",
        ("runtime_error", (), "TypeError", "division by zero", 1, 0),
        id="division-by-zero",
    ),
    pytest.param(
        "x = 1\nx[0](2)\n",
        ("runtime_error", (), "TypeError", "value is not callable", 2, 0),
        id="not-callable",
    ),
    pytest.param(
        "import nosuch\n",
        ("runtime_error", (), "ImportError", "no module named 'nosuch'", 1, 0),
        id="import-error",
    ),
    pytest.param(
        "for x in 5:\n    print(x)\n",
        ("runtime_error", (), "TypeError", "for-loop needs a collection", 1, 0),
        id="for-not-collection",
    ),
    pytest.param(
        "import odb\nfor x in odb:\n    print(x)\n",
        ("runtime_error", (), "TypeError", "for-loop needs a collection", 2, 0),
        id="for-over-module",
    ),
    pytest.param(
        "for i in range(5):\n    print(10 / (2 - i))\n",
        ("runtime_error", ("5.0", "10.0"), "TypeError", "division by zero", 7, 0),
        id="for-one-statement-aborts",
    ),
    pytest.param(
        'net = design.getBlock().findNet("clk")\nfor i in range(5):\n'
        "    net.setWeight(4 % (2 - i))\n",
        ("runtime_error", (), "TypeError", "division by zero", 8, 2),
        id="for-one-statement-aborts-after-writes",
    ),
    pytest.param(
        "print(1, 2)\n",
        ("runtime_error", (), "TypeError", "print takes 1 argument", 1, 0),
        id="print-arity",
    ),
    pytest.param(
        "print(len(5))\n",
        ("runtime_error", (), "TypeError", "len takes one collection", 1, 0),
        id="len-arg",
    ),
    pytest.param(
        'print(range("a"))\n',
        ("runtime_error", (), "TypeError", "range takes one int", 1, 0),
        id="range-arg",
    ),
    pytest.param(
        "print(range(True))\n",
        ("runtime_error", (), "TypeError", "range takes one int", 1, 0),
        id="range-bool",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(9)\n'
        "print(net.weight)\nprint(ghost)\n",
        ("runtime_error", ("9",), "NameError", "name 'ghost' is not defined", 5, 1),
        id="output-then-fail",
    ),
    pytest.param(
        "for i in range(100000):\n    x = i\n",
        ("timeout", (), None, "step budget of 100000 exceeded", 100001, 0),
        id="timeout",
    ),
    pytest.param(
        _GROW + "print(x / 2)\n",
        ("runtime_error", (), "TypeError", "number out of float range in '/'", 63, 0),
        id="overflow-divide",
    ),
    pytest.param(
        _GROW + "print(x + 0.5)\n",
        ("runtime_error", (), "TypeError", "number out of float range in '+'", 63, 0),
        id="overflow-mixed-add",
    ),
    pytest.param(
        _GROW + "print(1.5 % x)\n",
        ("runtime_error", (), "TypeError", "number out of float range in '%'", 63, 0),
        id="overflow-modulo",
    ),
    pytest.param(
        _GROW + "y = x * 2.0\n",
        ("runtime_error", (), "TypeError", "number out of float range in '*'", 63, 0),
        id="overflow-mixed-multiply",
    ),
    pytest.param(
        "x = 3\nfor i in range(26):\n    x = x * x\nprint(x > 2)\n",
        ("runtime_error", (), "TypeError", "int product of more than 4300 digits", 30, 0),
        id="overflow-square",
    ),
    pytest.param(
        _HUGE + "print(len(range(x)))\n",
        ("ok", ("100000000000000000000000000",), None, "", 2, 0),
        id="huge-range-len",
    ),
    pytest.param(
        _HUGE + "print(range(x))\n",
        ("ok", ("range(100000000000000000000000000)",), None, "", 2, 0),
        id="huge-range-print",
    ),
]

# Programs that once let Python's OverflowError out of ``Session.execute``.
_OVERFLOW_CASES = [case for case in INTERPRETER_CASES if case.id.startswith(("overflow", "huge"))]


@pytest.mark.parametrize("source, expected", INTERPRETER_CASES)
def test_interpreter_results_are_pinned(snapshot, schema, source, expected):
    r = run(fresh_session(snapshot, schema), source)
    got = (r.status.value, r.output, r.error_kind, r.error_message, r.steps, r.mutations)
    assert got == expected


@pytest.mark.parametrize(
    "source",
    [pytest.param(case.values[0], id=case.id) for case in INTERPRETER_CASES]
    + [pytest.param("x = = 1\nprint(2)\n", id="unparseable")],
)
def test_execute_runs_a_parse_outcome_like_its_text(snapshot, schema, source):
    parsed = parse(source)
    by_text, by_parse = fresh_session(snapshot, schema), fresh_session(snapshot, schema)
    expected = by_text.execute(source)
    assert by_parse.execute(parsed) == expected
    assert by_text.tool_calls == by_parse.tool_calls == 1
    if isinstance(parsed, SyntaxFailure):
        assert (expected.error_kind, expected.error_message) == (
            "SyntaxError", "line 1: unexpected '='"
        )


@pytest.mark.parametrize("source, expected", INTERPRETER_CASES)
def test_min_steps_bounds_the_pinned_steps(source, expected):
    if expected[0] != "ok":
        return
    statements, steps = parse(source).statements, expected[4]
    assert min_steps(statements) <= steps
    if not any(isinstance(s, (qn.IfStmt, qn.ForStmt)) for s in statements):
        assert min_steps(statements) == steps  # straight-line: the bound is exact


@pytest.mark.parametrize("source", [pytest.param(c.values[0], id=c.id) for c in _OVERFLOW_CASES])
def test_numbers_beyond_float_or_len_range_abort_or_print(snapshot, schema, source):
    assert verify_all(analyze(source, schema), None, schema, max_layer=3).passed
    assert isinstance(fresh_session(snapshot, schema).execute(source), ExecutionResult)


@pytest.fixture(scope="module")
def driver_schema():
    """The toy schema plus ``Net.getDriver() -> Inst``, a single child no snapshot sets."""
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    raw["types"]["Net"]["methods"]["getDriver"] = {"returns": {"base": "Inst"}}
    return schema_from_dict(raw)


@pytest.fixture(scope="module")
def scaled_snapshot(driver_schema):
    return make_scaled_snapshot(driver_schema)


# The interpreter on the 1,261-object design, pinned like INTERPRETER_CASES.
SCALED_CASES = [
    pytest.param(
        "count = 0\nfor n in design.getBlock().getNets():\n    count = count + 1\nprint(count)\n",
        ("ok", ("581",), None, "", 1165, 0),
        id="count-nets",
    ),
    pytest.param(
        "import odb\nblock = design.getBlock()\nfor inst in block.getInsts():\n"
        "    inst.setPlacementStatus(odb.PlacementStatus.PLACED)\nprint(len(block.getInsts()))\n",
        ("ok", ("624",), None, "", 1252, 624),
        id="place-insts",
    ),
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("net_9999")\nif net != None:\n'
        '    print(net.name)\nelse:\n    print("missing")\n',
        ("ok", ("missing",), None, "", 4, 0),
        id="find-miss",
    ),
    pytest.param(
        'block = design.getBlock()\nlast = block.findNet("net_0581")\nnets = block.getNets()\n'
        "print(nets[580] == last)\nprint(nets[579] == last)\nprint(last)\nlast.setWeight(5)\n"
        "print(nets[580].weight)\n",
        ("ok", ("True", "False", "<Net n581>", "5"), None, "", 8, 1),
        id="ref-equals-find",
    ),
    pytest.param(
        'net = design.getBlock().findNet("clk")\nfirst = net.getDriver()\n'
        "second = net.getDriver()\nprint(first == second)\nprint(first)\nprint(second.name)\n",
        ("ok", ("True", "<Inst auto_inst_1>", ""), None, "", 6, 0),
        id="materialized-child",
    ),
    pytest.param(
        'block = design.getBlock()\nx = block.findNet("clk")\nfor i in range(3):\n'
        "    print(x.getName())\n    if i == 0:\n        x = block.getInsts()[0]\n"
        "    else:\n        x = block\n",
        ("runtime_error", ("clk", "u1"), "UnknownMethod", "Block has no method 'getName'", 13, 0),
        id="receiver-changes-type",
    ),
]


@pytest.mark.parametrize("source, expected", SCALED_CASES)
def test_interpreter_results_at_design_scale_are_pinned(
    scaled_snapshot, driver_schema, source, expected
):
    r = run(fresh_session(scaled_snapshot, driver_schema), source)
    got = (r.status.value, r.output, r.error_kind, r.error_message, r.steps, r.mutations)
    assert got == expected


@pytest.fixture(scope="module")
def strict_find_schema():
    """The toy schema with ``Block.findNet`` non-nullable and a second Net list on Block."""
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    block = raw["types"]["Block"]["methods"]
    block["findNet"]["returns"] = {"base": "Net"}
    block["getClockNets"] = {"returns": {"base": "Net", "many": True}}
    return schema_from_dict(raw)


@pytest.fixture(scope="module")
def strict_find_snapshot(strict_find_schema):
    """Two nets named clk: n1 under getNets, n2 under getClockNets."""
    return snapshot_from_dict({"objects": [
        {"id": "d1", "type": "Design", "children": {"getBlock": ["b1"]}},
        {"id": "b1", "type": "Block",
         "children": {"getNets": ["n1", "n3"], "getClockNets": ["n2"]}},
        {"id": "n1", "type": "Net", "fields": {"name": "clk", "weight": 1}},
        {"id": "n2", "type": "Net", "fields": {"name": "clk", "weight": 2}},
        {"id": "n3", "type": "Net", "fields": {"name": "rst", "weight": 3}},
    ]}, strict_find_schema)


@pytest.mark.parametrize("source, expected", [
    pytest.param(
        'block = design.getBlock()\nnet = block.findNet("nope")\nprint("unreached")\n',
        ("runtime_error", (), "TypeError", "nothing named 'nope' found", 2, 0),
        id="miss-aborts",
    ),
    pytest.param(
        'block = design.getBlock()\nprint(block.findNet("clk"))\nprint(block.findNet("rst"))\n',
        ("ok", ("<Net n2>", "<Net n3>"), None, "", 3, 0),
        id="child-lists-searched-in-name-order",
    ),
    pytest.param(
        'block = design.getBlock()\nblock.findNet("clk").setWeight(7)\n'
        'print(block.findNet("clk").weight)\n',
        ("ok", ("7",), None, "", 3, 1),
        id="match-read-after-a-write",
    ),
])
def test_find_with_a_non_nullable_return(strict_find_snapshot, strict_find_schema, source,
                                         expected):
    r = run(fresh_session(strict_find_snapshot, strict_find_schema), source)
    got = (r.status.value, r.output, r.error_kind, r.error_message, r.steps, r.mutations)
    assert got == expected


def test_min_steps_counts_literal_loops_and_the_cheaper_branch(snapshot, schema):
    loop = "for i in range(3):\n    print(i * 2)\n"  # 1 + 3 * (1 + 1) steps, as pinned below
    assert min_steps(parse(loop).statements) == 7
    spin = "for i in range(100000):\n    x = i\n"
    assert min_steps(parse(spin).statements) == 200_001
    branches = "if 1 > 2:\n    print(1 + 2 + 3)\n    print(5)\nelse:\n    print(4)\n"
    assert min_steps(parse(branches).statements) == 1 + 1
    assert run(fresh_session(snapshot, schema), branches).steps == 1 + 1
    taken = branches.replace("1 > 2", "1 < 2")
    assert min_steps(parse(taken).statements) == 1 + 1
    assert run(fresh_session(snapshot, schema), taken).steps == 1 + 2
    not_literal = "n = 5\nfor i in range(n):\n    print(i)\nfor b in design.getBlock():\n    x = 1\n"
    assert min_steps(parse(not_literal).statements) == 1 + 1 + 1  # zero iterations each


def test_step_budget_boundary(snapshot, schema):
    source = "for i in range(3):\n    print(i * 2)\n"  # 7 steps
    within = run(fresh_session(snapshot, schema, step_budget=7), source)
    assert (within.status, within.steps, within.output) == (ExecStatus.OK, 7, ("0", "2", "4"))
    over = run(fresh_session(snapshot, schema, step_budget=6), source)
    assert (over.status, over.steps, over.output) == (ExecStatus.TIMEOUT, 7, ("0", "2"))
    assert over.error_message == "step budget of 6 exceeded"


@pytest.mark.parametrize("source", [
    "print(" + " + ".join(str(i) for i in range(30)) + ")\n",
    'print(design.getBlock().findNet("clk").getName() == "clk")\n',
    "x = -(len(design.getBlock().getNets()) * 2 - 1)\n",
], ids=["thirty-term-sum", "chained-calls", "nested-builtins"])
def test_a_statement_is_one_step_however_deep_its_expression(snapshot, schema, source):
    result = run(fresh_session(snapshot, schema), source)
    assert (result.status, result.steps) == (ExecStatus.OK, 1)
    assert min_steps(parse(source).statements) == 1
    over = run(fresh_session(snapshot, schema, step_budget=0), source)
    assert (over.status, over.steps, over.output) == (ExecStatus.TIMEOUT, 1, ())


def test_step_budget_boundary_at_design_scale(scaled_snapshot, driver_schema):
    source, expected = SCALED_CASES[0].values  # count-nets: 1 + 1 + 581 * 2 + 1 steps
    steps = expected[4]
    assert steps == 1 + 1 + 581 * 2 + 1
    within = run(fresh_session(scaled_snapshot, driver_schema, step_budget=steps), source)
    assert (within.status, within.steps, within.output) == (ExecStatus.OK, steps, ("581",))
    over = run(fresh_session(scaled_snapshot, driver_schema, step_budget=steps - 1), source)
    assert (over.status, over.steps, over.output) == (ExecStatus.TIMEOUT, steps, ())
    assert over.error_message == f"step budget of {steps - 1} exceeded"


def _budgets_below(steps: int) -> list[int]:
    """Budgets 0-11, which cover the first statements and the first loop iterations
    of every pinned program, and the last five below ``steps``."""
    return sorted({*range(min(steps, 12)), *range(max(steps - 5, 0), steps)})


def _assert_times_out_on_the_way(result, budget, expected):
    """A run cut at ``budget`` stops one step past it, partway to the pinned ``expected``."""
    output, mutations = expected[1], expected[5]
    assert (result.status, result.steps) == (ExecStatus.TIMEOUT, budget + 1)
    assert result.error_message == f"step budget of {budget} exceeded"
    assert result.output == output[: len(result.output)]
    assert result.mutations <= mutations


@pytest.mark.parametrize("source, expected", INTERPRETER_CASES)
def test_every_budget_below_the_pinned_steps_times_out_on_the_way(
    snapshot, schema, source, expected
):
    steps = expected[4]
    budgets = range(steps) if steps <= 1_000 else _budgets_below(steps)
    for budget in budgets:
        result = run(fresh_session(snapshot, schema, step_budget=budget), source)
        _assert_times_out_on_the_way(result, budget, expected)


@pytest.mark.parametrize("source, expected", SCALED_CASES)
def test_budgets_below_the_pinned_steps_at_design_scale_time_out_on_the_way(
    scaled_snapshot, driver_schema, source, expected
):
    for budget in _budgets_below(expected[4]):
        result = run(fresh_session(scaled_snapshot, driver_schema, step_budget=budget), source)
        _assert_times_out_on_the_way(result, budget, expected)


def test_modulo(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(session, "print(7 % 3)\nprint(-7 % 3)\nprint(7.5 % 2)\nx = 5 % 2\nprint(x)\n")
    assert result.status is ExecStatus.OK
    assert result.output == ("1", "2", "1.5", "1")
    zero = run(session, "print(5 % 0)\n")
    assert (zero.error_kind, zero.error_message) == ("TypeError", "division by zero")
    text = run(session, 'print("a" % 2)\n')
    assert (text.error_kind, text.error_message) == ("TypeError", "bad operands for '%'")


def test_printing_an_int_of_more_than_4300_digits_aborts(snapshot, schema, int_str_limit):
    # Doubling, since a product past 4,300 digits would abort before the print.
    double = "x = 1\nfor i in range(14300):\n    x = x + x\n"  # 2**14300: 4,305 digits
    result = run(fresh_session(snapshot, schema), double + "print(x)\n")
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert (result.error_kind, result.error_message) == (
        "TypeError", "cannot print an int of more than 4300 digits"
    )
    # 4,000 digits still print, whatever Python's own int-string limit is
    grow = "x = 1\nfor i in range(266):\n    x = x * 1000000000000000\n"
    fits = run(fresh_session(snapshot, schema), grow + "print(x * 1000)\n")
    assert fits.output == ("1" + "0" * 3993,)


def test_tool_calls_increment_on_every_status(snapshot, schema):
    session = fresh_session(snapshot, schema, step_budget=5)
    run(session, "x = 1\n")
    run(session, "x = = 1\n")
    run(session, "print(ghost)\n")
    run(session, "for i in range(100):\n    x = i\n")
    assert session.tool_calls == 4


def test_failed_run_reports_its_mutations_and_keeps_its_writes(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "block = design.getBlock()\n"
        'net = block.findNet("clk")\n'
        "net.setWeight(9)\n"
        "print(ghost)\n",
    )
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert result.mutations == 1
    assert session.object("n1").fields["weight"] == 9


def test_sessions_do_not_share_state(snapshot, schema):
    a = fresh_session(snapshot, schema)
    b = fresh_session(snapshot, schema)
    run(a, 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(7)\n')
    assert a.object("n1").fields["weight"] == 7
    assert b.object("n1").fields.get("weight") == 1
    assert snapshot.objects["n1"].fields.get("weight") == 1
    run(b, 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(3)\n')
    assert a.object("n1").fields["weight"] == 7
    assert b.object("n1").fields["weight"] == 3


def test_sessions_materialize_apart(schema):
    snap = snapshot_from_dict({"objects": [{"id": "d1", "type": "Design"}]}, schema)
    a = fresh_session(snap, schema)
    b = fresh_session(snap, schema)
    assert run(a, "print(design.getBlock())\n").output == ("<Block auto_block_1>",)
    assert b.object("d1").children == {}
    assert run(b, "print(design.getBlock())\n").output == ("<Block auto_block_1>",)
    assert a.object("auto_block_1") is not b.object("auto_block_1")
    assert snap.objects["d1"].children == {}
    assert "auto_block_1" not in snap.objects


def test_new_session_shares_every_snapshot_record(snapshot, schema):
    session = fresh_session(snapshot, schema)
    assert all(session.object(oid) is rec for oid, rec in snapshot.objects.items())


def test_first_write_copies_only_that_record(snapshot, schema):
    session = fresh_session(snapshot, schema)
    run(session, 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(5)\n')
    copied = [oid for oid, rec in snapshot.objects.items() if session.object(oid) is not rec]
    assert copied == ["n1"]
    assert session.object("n1").fields == {"name": "clk", "weight": 5}
    assert snapshot.objects["n1"].fields == {"name": "clk", "weight": 1}


@pytest.mark.parametrize(
    "objects, source, status",
    [
        (
            None,
            'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(11)\n',
            ExecStatus.OK,
        ),
        (
            [{"id": "d1", "type": "Design"}],
            "block = design.getBlock()\nprint(block.getNets())\n",
            ExecStatus.OK,
        ),
        (
            None,
            'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(13)\n'
            "print(ghost)\n",
            ExecStatus.RUNTIME_ERROR,
        ),
    ],
    ids=["set", "materialize", "write-then-fail"],
)
def test_session_leaves_snapshot_unchanged(snapshot, schema, objects, source, status):
    snap = snapshot if objects is None else snapshot_from_dict({"objects": objects}, schema)
    before = copy.deepcopy(snap)
    assert run(fresh_session(snap, schema), source).status is status
    assert snap == before


def test_roots_are_bound_in_environment(snapshot, schema):
    result = run(fresh_session(snapshot, schema), "print(design)\n")
    assert result.output == ("<Design d1>",)


def test_string_operations(snapshot, schema):
    session = fresh_session(snapshot, schema)
    result = run(
        session,
        "block = design.getBlock()\n"
        'net = block.findNet("clk")\n'
        'print("net: " + net.getName())\n'
        'print(net.getName() == "clk")\n',
    )
    assert result.status is ExecStatus.OK
    assert result.output == ("net: clk", "True")


@pytest.fixture(scope="module")
def tags_schema():
    """The toy schema plus a many-valued string attribute and getter on Net."""
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    raw["types"]["Net"]["attributes"]["tags"] = {"base": "string", "many": True}
    raw["types"]["Net"]["methods"]["getTags"] = {"returns": {"base": "string", "many": True}}
    return schema_from_dict(raw)


def test_unset_many_value_reads_as_an_empty_list(tags_schema):
    source = (
        "for net in design.getBlock().getNets():\n"
        "    for t in net.tags:\n"
        "        print(t)\n"
        "    for t in net.getTags():\n"
        "        print(t)\n"
        "    print(len(net.tags))\n"
    )
    assert verify_all(analyze(source, tags_schema), None, tags_schema).passed
    result = run(fresh_session(toy_snapshot(tags_schema), tags_schema), source)
    assert (result.status, result.output) == (ExecStatus.OK, ("0", "0", "0"))


def _toy_with_net_fields(fields: dict) -> dict:
    raw = json.loads(fixture_path("toy_snapshot.json").read_text())
    raw["objects"][2]["fields"].update(fields)
    return raw


@pytest.mark.parametrize("fields, location", [
    ({"weight": "heavy"}, "n1.fields.weight"),
    ({"weight": True}, "n1.fields.weight"),
    ({"weight": None}, "n1.fields.weight"),
    ({"name": 7}, "n1.fields.name"),
])
def test_snapshot_field_values_must_fit_declared_scalar_types(schema, fields, location):
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(_toy_with_net_fields(fields), schema)
    assert [v.location for v in exc.value.violations] == [location]


def _toy_reshaped(edit) -> dict:
    raw = json.loads(fixture_path("toy_snapshot.json").read_text())
    edit(raw, raw["objects"][0])
    return raw


@pytest.mark.parametrize("edit, location, message", [
    (lambda raw, d1: d1.update(children=["b1"]), "objects[0].children", "needs a JSON object"),
    (lambda raw, d1: d1.update(fields="abc"), "objects[0].fields", "needs a JSON object"),
    (lambda raw, d1: raw.update(roots=["d1"]), "roots", "needs a JSON object"),
    (lambda raw, d1: d1.update(children={"getBlock": "b1"}), "objects[0].children.getBlock",
     "needs a list of ids"),
], ids=["children-list", "fields-string", "roots-list", "child-ids-string"])
def test_snapshot_of_the_wrong_shape_is_a_violation(schema, edit, location, message):
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(_toy_reshaped(edit), schema)
    assert [(v.location, v.message) for v in exc.value.violations] == [(location, message)]


def test_snapshot_field_check_leaves_undeclared_fields_and_lists(schema, tags_schema):
    snapshot_from_dict(_toy_with_net_fields({"colour": 1, "weight": 2}), schema)
    assert toy_snapshot(schema) and make_scaled_snapshot(schema)
    snapshot_from_dict(_toy_with_net_fields({"tags": ["a", "b"]}), tags_schema)
    with pytest.raises(SnapshotError):
        snapshot_from_dict(_toy_with_net_fields({"tags": "a"}), tags_schema)
    with pytest.raises(SnapshotError):
        snapshot_from_dict(_toy_with_net_fields({"tags": ["a", 1]}), tags_schema)


@pytest.fixture(scope="module")
def status_schema():
    """The toy schema plus ``Inst.placementStatus`` and ``Inst.getPlacementStatus()``."""
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    raw["types"]["Inst"]["attributes"]["placementStatus"] = {"base": "PlacementStatus"}
    raw["types"]["Inst"]["methods"]["getPlacementStatus"] = {
        "returns": {"base": "PlacementStatus"}
    }
    return schema_from_dict(raw)


def _toy_with_status(status) -> dict:
    """The toy snapshot with instance i1's ``placementStatus`` field set; i2 leaves it unset."""
    raw = json.loads(fixture_path("toy_snapshot.json").read_text())
    raw["objects"][5]["fields"]["placementStatus"] = status
    return raw


@pytest.mark.parametrize("status", [
    7, "PlacementStatus.WIBBLE", "PLACED", "Other.PLACED", True, None, ["PlacementStatus.FIRM"],
])
def test_snapshot_enum_fields_must_name_a_constant_of_their_enum(status_schema, status):
    with pytest.raises(SnapshotError) as exc:
        snapshot_from_dict(_toy_with_status(status), status_schema)
    assert [(v.location, v.message) for v in exc.value.violations] == [
        ("i1.fields.placementStatus", f"declared PlacementStatus, holds {status!r}")
    ]


def test_enum_fields_read_alike_through_attribute_and_getter(status_schema):
    source = (
        "import odb\n"
        "for inst in design.getBlock().getInsts():\n"
        "    print(inst.placementStatus)\n"
        "    print(inst.placementStatus == odb.PlacementStatus.FIRM)\n"
        "    print(inst.getPlacementStatus() == odb.PlacementStatus.FIRM)\n"
        "    inst.setPlacementStatus(inst.placementStatus)\n"
        "    inst.setPlacementStatus(inst.getPlacementStatus())\n"
    )
    assert verify_all(analyze(source, status_schema), None, status_schema, max_layer=3).passed
    snap = snapshot_from_dict(_toy_with_status("PlacementStatus.FIRM"), status_schema)
    result = run(fresh_session(snap, status_schema), source)
    # i2 leaves the field unset, so it reads the enum's first constant.
    assert (result.status, result.output, result.mutations) == (ExecStatus.OK, (
        "PlacementStatus.FIRM", "True", "True", "PlacementStatus.PLACED", "False", "False",
    ), 4)

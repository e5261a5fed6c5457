"""Mock runtime: snapshot conformance, dispatch, accounting, failure kinds."""

from __future__ import annotations

import copy

import pytest

from structsynth.runtime import (
    ExecStatus,
    Session,
    Snapshot,
    SnapshotError,
    snapshot_from_dict,
)
from structsynth.schema import ParseError


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
    assert session.mutations == 1
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


def test_tool_calls_increment_on_every_status(snapshot, schema):
    session = fresh_session(snapshot, schema, step_budget=5)
    run(session, "x = 1\n")
    run(session, "x = = 1\n")
    run(session, "print(ghost)\n")
    run(session, "for i in range(100):\n    x = i\n")
    assert session.tool_calls == 4


def test_failed_run_does_not_accumulate_session_mutations(snapshot, schema):
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
    assert session.mutations == 0


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


def test_crash_injection_is_seeded(snapshot, schema):
    certain = fresh_session(snapshot, schema, crash_probability=1.0, seed=7)
    result = run(certain, "x = 1\n")
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert result.error_kind == "Crash"
    assert certain.tool_calls == 1

    def statuses(seed: int) -> list[str]:
        s = fresh_session(snapshot, schema, crash_probability=0.5, seed=seed)
        return [run(s, "x = 1\n").status.value for _ in range(20)]

    assert statuses(3) == statuses(3)
    assert ExecStatus.RUNTIME_ERROR.value in statuses(3)
    assert ExecStatus.OK.value in statuses(3)


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

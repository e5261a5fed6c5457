"""The kind table agrees with the runtime on every operation and every kind."""

from __future__ import annotations

import itertools

import pytest

from structsynth.qas.analysis import analyze
from structsynth.runtime import ExecStatus, Session
from structsynth.verifier import verify_all

# One expression of each value kind.
VALUES = {
    "object": "design",
    "string": '"ab"',
    "int": "1",
    "float": "1.5",
    "bool": "True",
    "None": "None",
    "collection": "design.getBlock().getNets()",
    "enum constant": "odb.PlacementStatus.FIRM",
    "enum namespace": "odb.PlacementStatus",
    "module": "odb",
}
BINARY = ("==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%")
UNARY = ("-{}", "{}()", "print({})", "len({})", "range({})", "{}.name", "{}.getName()",
         "net.setWeight({})")


def _agrees(schema, snapshot, expression: str) -> None:
    source = f"import odb\nfor net in design.getBlock().getNets():\n    x = {expression}\n"
    passed = verify_all(analyze(source, schema), None, schema).passed
    result = Session(snapshot, schema).execute(source)
    assert passed == (result.status is ExecStatus.OK), (source, result.error_message)


@pytest.mark.parametrize("op", BINARY)
def test_binary_operators_agree_with_the_runtime(schema, snapshot, op):
    for left, right in itertools.product(VALUES.values(), repeat=2):
        _agrees(schema, snapshot, f"({left}) {op} ({right})")


@pytest.mark.parametrize("shape", UNARY)
def test_one_operand_operations_agree_with_the_runtime(schema, snapshot, shape):
    for value in VALUES.values():
        _agrees(schema, snapshot, shape.format(value))


def test_indexing_agrees_with_the_runtime(schema, snapshot):
    for value, index in itertools.product(VALUES.values(), repeat=2):
        _agrees(schema, snapshot, f"({value})[{index}]")


def test_iteration_agrees_with_the_runtime(schema, snapshot):
    for value in VALUES.values():
        source = f"import odb\nfor item in {value}:\n    print(item)\n"
        passed = verify_all(analyze(source, schema), None, schema).passed
        assert passed == (Session(snapshot, schema).execute(source).status is ExecStatus.OK)

from __future__ import annotations

import json

import pytest

from structsynth.fixtures import fixture_path
from structsynth.schema import (
    SchemaError,
    TypeRef,
    UNKNOWN,
    schema_from_dict,
    valid_import,
)


def test_toy_schema_counts(schema):
    assert sorted(schema.types) == ["Block", "Design", "ITerm", "Inst", "Net"]
    methods = sum(len(t.methods) for t in schema.types.values())
    attributes = sum(len(t.attributes) for t in schema.types.values())
    assert methods == 8
    assert attributes == 3
    assert schema.enums == {"PlacementStatus": ("PLACED", "FIRM")}
    assert schema.roots == {"design": "Design"}
    assert schema.modules == frozenset({"odb"})


def test_method_lookup(schema):
    sig = schema.method("Block", "findNet")
    assert sig is not None
    assert sig.arity == 1
    assert sig.params[0].type.base == "string"
    assert sig.returns == TypeRef("Net", nullable=True)
    assert not sig.mutates
    assert schema.method("Block", "nope") is None
    assert schema.method("Ghost", "findNet") is None


def test_mutating_methods_marked(schema):
    assert schema.method("Net", "setWeight").mutates
    assert schema.method("Inst", "setPlacementStatus").mutates
    assert not schema.method("Design", "getBlock").mutates


def test_attribute_lookup(schema):
    assert schema.attribute("Net", "weight") == TypeRef("int")
    assert schema.attribute("Net", "ghost") is None
    assert schema.attribute("Ghost", "weight") is None


def test_typeref_flags():
    many = TypeRef("Net", many=True)
    assert many.element() == TypeRef("Net")
    assert TypeRef("Net").element() == UNKNOWN
    assert TypeRef("Net", nullable=True).without_null() == TypeRef("Net")
    assert UNKNOWN.is_unknown


def test_typeref_dict_round_trip():
    for raw, ref in (
        ({"base": "Net"}, TypeRef("Net")),
        ({"base": "Net", "many": True}, TypeRef("Net", many=True)),
        ({"base": "Net", "nullable": True}, TypeRef("Net", nullable=True)),
    ):
        assert TypeRef.from_dict(raw) == ref


def test_valid_import(schema):
    assert valid_import(schema, "odb")
    assert valid_import(schema, "odb.PlacementStatus")
    assert valid_import(schema, "odb.PlacementStatus.PLACED")
    assert not valid_import(schema, "Net")
    assert not valid_import(schema, "odb.Ghost")
    assert not valid_import(schema, "odb.PlacementStatus.WIBBLE")
    assert not valid_import(schema, "pandas")


def _minimal_raw() -> dict:
    return {
        "version": "t",
        "types": {"Design": {"methods": {"getName": {"returns": {"base": "string"}}}}},
        "roots": {"design": "Design"},
    }


def test_schema_violations_are_exhaustive():
    raw = _minimal_raw()
    raw["types"]["Design"]["methods"]["bad"] = {"returns": {"base": "Ghost"}}
    raw["roots"]["extra"] = "Missing"
    with pytest.raises(SchemaError) as err:
        schema_from_dict(raw)
    locations = {v.location for v in err.value.violations}
    assert "types.Design.methods.bad.returns" in locations
    assert "roots.extra" in locations
    assert len(err.value.violations) == 2


def test_schema_requires_roots():
    raw = _minimal_raw()
    raw["roots"] = {}
    with pytest.raises(SchemaError) as err:
        schema_from_dict(raw)
    assert any(v.location == "roots" for v in err.value.violations)


def test_schema_rejects_duplicate_enum_constants():
    raw = _minimal_raw()
    raw["enums"] = {"Status": ["ON", "ON"]}
    with pytest.raises(SchemaError) as err:
        schema_from_dict(raw)
    assert any("duplicate" in v.message for v in err.value.violations)


def test_schema_rejects_type_enum_collision():
    raw = _minimal_raw()
    raw["enums"] = {"Design": ["A"]}
    with pytest.raises(SchemaError) as err:
        schema_from_dict(raw)
    assert any("collides" in v.message for v in err.value.violations)


@pytest.mark.parametrize("ref", [
    {"base": "Inst"}, {"base": "Inst", "many": True}, {"base": "Inst", "nullable": True},
], ids=["one", "many", "nullable"])
def test_schema_rejects_an_object_typed_attribute(ref):
    # A snapshot field cannot hold an object, so the attribute would read None
    # where L3 types it an Inst; the object has to come from a get* method.
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    raw["types"]["Net"]["attributes"]["driver"] = ref
    with pytest.raises(SchemaError) as err:
        schema_from_dict(raw)
    (violation,) = err.value.violations
    assert violation.location == "types.Net.attributes.driver"
    assert "get*" in violation.message

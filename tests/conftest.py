from __future__ import annotations

import json
import sys

import pytest

from structsynth.fixtures import fixture_path, toy_retriever, toy_schema, toy_snapshot
from structsynth.qas import parser
from structsynth.schema import schema_from_dict


@pytest.fixture(scope="session")
def schema():
    return toy_schema()


@pytest.fixture(scope="session")
def retriever():
    return toy_retriever()


@pytest.fixture(scope="session")
def snapshot(schema):
    # Sessions copy a record before its first write, so sharing one snapshot is safe.
    return toy_snapshot(schema)


@pytest.fixture(scope="session")
def peer_schema():
    """The toy schema plus ``Net.setPeer(peer: Net)``, a method with an object parameter."""
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    raw["types"]["Net"]["methods"]["setPeer"] = {
        "params": [{"name": "peer", "type": {"base": "Net"}}], "returns": {"base": "void"}
    }
    return schema_from_dict(raw)


@pytest.fixture(scope="session")
def peer_snapshot(peer_schema):
    return toy_snapshot(peer_schema)


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts calls of ``structsynth.qas.parser.parse`` through every module binding."""
    calls = []
    original = parser.parse

    def counted(source):
        calls.append(source)
        return original(source)

    for name, module in list(sys.modules.items()):
        if name == "structsynth" or name.startswith("structsynth."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture(params=["default", 640, 0])
def int_str_limit(request):
    """Runs the test under Python's int-string limit as set, at its lowest, and off."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None or request.param == "default":
        yield
        return
    saved = sys.get_int_max_str_digits()
    setter(request.param)
    try:
        yield
    finally:
        setter(saved)

from __future__ import annotations

import json

import pytest

from structsynth.fixtures import fixture_path, toy_retriever, toy_schema, toy_snapshot
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

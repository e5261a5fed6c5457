from __future__ import annotations

import pytest

from structsynth.fixtures import toy_retriever, toy_schema, toy_snapshot


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

"""The bundled task suites, loaded with the bench's loaders."""

from __future__ import annotations

from structsynth.bench import MultiTaskSpec, TaskSpec, load_multi_suite, load_suite
from structsynth.fixtures import fixture_path


def singles_suite() -> list[TaskSpec]:
    return load_suite(fixture_path("suite/singles.json"))


def multis_suite() -> list[MultiTaskSpec]:
    return load_multi_suite(fixture_path("suite/multis.json"))

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import structsynth

SRC = Path(__file__).resolve().parent.parent / "src"

# Records the top-level names of the modules that `import structsynth` adds.
PROBE = """\
import json, sys
before = set(sys.modules)
import structsynth
added = {name.split(".")[0] for name in set(sys.modules) - before}
with open(sys.argv[1], "w") as out:
    json.dump(sorted(added), out)
"""


# Imports the package and the modules a benchmark worker uses, then records
# which of the package's modules loaded and which of their classes are
# dataclasses.
SYNTHESIS_PROBE = """\
import dataclasses, json, sys
import structsynth
from structsynth import (
    controller, extractors, fixtures, generators, judges, orchestrator, runtime,
)
modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "structsynth"}
classes = [
    f"{name}.{obj.__qualname__}"
    for name, module in modules.items()
    for obj in vars(module).values()
    if isinstance(obj, type) and obj.__module__ == name and dataclasses.is_dataclass(obj)
]
with open(sys.argv[1], "w") as out:
    json.dump({"modules": sorted(modules), "dataclasses": sorted(classes)}, out)
"""

# Classes that hold mutable state, that need a dataclass feature (a field
# left out of equality, a default factory, a __post_init__), or that the
# interpreter reads on every step, where a dataclass field is read faster
# than a NamedTuple's. Every other record is a NamedTuple.
DATACLASSES = {
    "structsynth.controller.SynthesisResult",
    "structsynth.controller.Trajectory",
    "structsynth.depgraph.ExtractionResult",
    "structsynth.generators.FaultInjectionGenerator",
    "structsynth.generators._RenderCtx",
    "structsynth.orchestrator.EpisodeResult",
    "structsynth.orchestrator.ReflectionOutcome",
    "structsynth.qas.analysis.TypedScript",
    "structsynth.qas.parser.Script",
    "structsynth.runtime.EnumNamespace",
    "structsynth.runtime.EnumVal",
    "structsynth.runtime.ModuleVal",
    "structsynth.runtime.ObjRecord",
    "structsynth.runtime.ObjRef",
    "structsynth.runtime.Snapshot",
    "structsynth.schema.TypeDecl",
    "structsynth.verifier.VerdictReport",
}


def _probe(script: str, tmp_path) -> object:
    """Runs ``script`` in a fresh interpreter and returns the JSON it writes."""
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", script, str(report)]
    assert os.spawnve(os.P_WAIT, sys.executable, argv, env) == 0
    return json.loads(report.read_text())


def test_public_names_resolve_and_are_sorted():
    names = structsynth.__all__
    for name in names:
        assert getattr(structsynth, name) is not None, name
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_import_loads_only_stdlib_and_the_package(tmp_path):
    added = set(_probe(PROBE, tmp_path))
    assert "structsynth" in added
    assert added - set(sys.stdlib_module_names) - {"structsynth"} == set()


def test_synthesis_path_loads_neither_bench_nor_cli(tmp_path):
    report = _probe(SYNTHESIS_PROBE, tmp_path)
    assert "structsynth.controller" in report["modules"]
    assert "structsynth.bench" not in report["modules"]
    assert "structsynth.cli" not in report["modules"]
    assert set(report["dataclasses"]) == DATACLASSES

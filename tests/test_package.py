from __future__ import annotations

import json
import os
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports the modules named after the report path, in order, and records the
# top-level names of the modules that importing them adds.
PROBE = """\
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[2:]:
    importlib.import_module(name)
added = {name.split(".")[0] for name in set(sys.modules) - before}
with open(sys.argv[1], "w") as out:
    json.dump(sorted(added), out)
"""


# Imports the package and the modules a benchmark worker uses, then records
# which of the package's modules loaded and which of their classes are
# dataclasses.
SYNTHESIS_PROBE = """\
import dataclasses, json, sys
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
    "structsynth.generators.FaultInjectionGenerator",
    "structsynth.generators._RenderCtx",
    "structsynth.orchestrator.EpisodeResult",
    "structsynth.orchestrator.ReflectionOutcome",
    "structsynth.qas.analysis.TypedScript",
    "structsynth.runtime.EnumNamespace",
    "structsynth.runtime.EnumVal",
    "structsynth.runtime.ModuleVal",
    "structsynth.runtime.ObjRecord",
    "structsynth.runtime.ObjRef",
    "structsynth.runtime.Snapshot",
    "structsynth.schema.TypeDecl",
    "structsynth.verifier.VerdictReport",
}


def _probe(script: str, tmp_path, *args: str) -> object:
    """Runs ``script`` in a fresh interpreter and returns the JSON it writes.

    ``-S`` skips site-packages, so a third-party import fails outright.
    """
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-S", "-c", script, str(report), *args]
    assert os.spawnve(os.P_WAIT, sys.executable, argv, env) == 0, args
    return json.loads(report.read_text())


def _package_modules() -> list[str]:
    """Names every module under ``src/structsynth``, the package included."""
    found = pkgutil.walk_packages([str(SRC / "structsynth")], "structsynth.")
    return ["structsynth", *sorted(info.name for info in found)]


def test_import_loads_only_stdlib_and_the_package(tmp_path):
    modules = _package_modules()
    assert {"structsynth.cli", "structsynth.qas", "structsynth.qas.parser"} <= set(modules)
    # Each module imports alone, so no import cycle depends on which module
    # a caller happens to import first.
    for name in modules:
        assert "structsynth" in _probe(PROBE, tmp_path, name), name
    added = set(_probe(PROBE, tmp_path, *modules))
    assert added - set(sys.stdlib_module_names) - {"structsynth"} == set()


def test_synthesis_path_loads_neither_bench_nor_cli(tmp_path):
    report = _probe(SYNTHESIS_PROBE, tmp_path)
    assert "structsynth.controller" in report["modules"]
    assert "structsynth.bench" not in report["modules"]
    assert "structsynth.cli" not in report["modules"]
    assert set(report["dataclasses"]) == DATACLASSES

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


def test_public_names_resolve_and_are_sorted():
    names = structsynth.__all__
    for name in names:
        assert getattr(structsynth, name) is not None, name
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_import_loads_only_stdlib_and_the_package(tmp_path):
    report = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", PROBE, str(report)]
    assert os.spawnve(os.P_WAIT, sys.executable, argv, env) == 0
    added = set(json.loads(report.read_text()))
    assert "structsynth" in added
    assert added - set(sys.stdlib_module_names) - {"structsynth"} == set()

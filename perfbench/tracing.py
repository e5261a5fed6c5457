"""Spans around the package's public entry points, recorded from outside it.

``Tracer.install`` rebinds each traced function at every module binding in
the package (``parse`` is imported by name into several modules, and each
binding is a separate call path) and wraps the traced methods on their
classes. ``uninstall`` puts the originals back, so untraced passes run the
package exactly as shipped. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) -> span name
FUNCTIONS = {
    ("structsynth.qas.parser", "parse"): "qas.parse",
    ("structsynth.qas.analysis", "infer_types"): "qas.infer_types",
    ("structsynth.depgraph", "extract_graph"): "depgraph.extract_graph",
    ("structsynth.verifier", "verify_all"): "verifier.verify_all",
    ("structsynth.verifier", "verify_syntax"): "verifier.L1",
    ("structsynth.verifier", "verify_causal"): "verifier.L2",
    ("structsynth.verifier", "verify_api_alignment"): "verifier.L3",
    ("structsynth.verifier", "verify_semantic"): "verifier.L4",
    ("structsynth.uncertainty", "compute_uncertainty"): "uncertainty.compute",
    ("structsynth.orchestrator", "run_with_reflection"): "orchestrator.episode",
}
# (module, class, method) -> span name
METHODS = {
    ("structsynth.retrieval", "Retriever", "retrieve"): "retrieval.retrieve",
    ("structsynth.retrieval", "Retriever", "refresh"): "retrieval.refresh",
    ("structsynth.runtime", "Session", "__init__"): "runtime.session_setup",
    ("structsynth.runtime", "Session", "execute"): "runtime.execute",
}
GENERATE_SPAN = "generators.generate"


class Tracer:
    """Records (name, start, end, parent index, task id) for each call."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.task_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task_id)

        return traced

    def install(self) -> None:
        package = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "structsynth" or name.startswith("structsynth."))
        ]
        for (mod_name, attr), span in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr)
            wrapped = self.wrap(span, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        for (mod_name, cls_name, attr), span in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent", "task_id"],
                 "spans": self.spans},
                handle,
            )


class TracedGenerator:
    """Generator stand-in that records one span per ``generate`` call."""

    def __init__(self, inner, tracer: Tracer):
        self.generate = tracer.wrap(GENERATE_SPAN, inner.generate)


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; the loop is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return dict(out)

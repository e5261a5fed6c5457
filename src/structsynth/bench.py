"""Benchmark harness: task suites, per-task records, and quality aggregates.

A run synthesizes every task, executes accepted programs in fresh sessions,
and reports pass rate, tool calls per task, verifier quality against ground
execution, uncertainty-filter sweeps, and graph accuracy by prompt length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .controller import SynthesisConfig
from .depgraph import DepGraph, GraphExtractor, GraphMetrics, checked_graph, graph_metrics
from .orchestrator import run_episode, run_with_reflection
from .retrieval import Retriever
from .runtime import Session
from .schema import ApiSchema, ParseError, _strings, read_json

BUCKETS = ("<8", "<15", "<25", ">=25")


def bucket_of(prompt: str) -> str:
    words = len(prompt.split())
    if words < 8:
        return "<8"
    if words < 15:
        return "<15"
    if words < 25:
        return "<25"
    return ">=25"


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    prompt: str
    kind: str  # query | action
    truth_graph: DepGraph | None = None


@dataclass(frozen=True)
class MultiTaskSpec:
    task_id: str
    steps: tuple[str, ...]


def load_suite(path: str | Path) -> list[TaskSpec]:
    tasks = []
    for i, item in enumerate(_read_tasks(path, "prompt")):
        for key in ("prompt", "kind"):
            if not isinstance(item.get(key, ""), str):
                raise ParseError(f"suite {path}: task {i} needs {key!r} as a string")
        raw = item.get("truth_graph")
        truth = checked_graph(raw, f"suite {path}: task {i} truth_graph") if raw else None
        tasks.append(
            TaskSpec(
                task_id=str(item["id"]),
                prompt=item["prompt"],
                kind=item.get("kind", "query"),
                truth_graph=truth,
            )
        )
    return tasks


def load_multi_suite(path: str | Path) -> list[MultiTaskSpec]:
    tasks = []
    for i, item in enumerate(_read_tasks(path, "steps")):
        if not _strings(item["steps"]):
            raise ParseError(f"suite {path}: task {i} needs 'steps' as a list of strings")
        if not item["steps"]:
            raise ParseError(f"suite {path}: task {i} has no steps")
        tasks.append(MultiTaskSpec(task_id=str(item["id"]), steps=tuple(item["steps"])))
    return tasks


def _read_tasks(path: str | Path, field: str) -> list[dict]:
    """The suite's task entries, each an object with an ``id`` and ``field``."""
    doc = read_json(path, "suite")
    if not isinstance(doc, dict) or not isinstance(doc.get("tasks"), list):
        raise ParseError("suite document needs a 'tasks' list")
    for i, item in enumerate(doc["tasks"]):
        if not isinstance(item, dict) or "id" not in item or field not in item:
            raise ParseError(f"suite {path}: task {i} needs 'id' and {field!r}")
    return doc["tasks"]


@dataclass
class TaskRecord:
    task_id: str
    kind: str
    bucket: str
    accepted: bool
    verifier_pass: bool
    final_layer: int
    layers_run: tuple[int, ...]
    tool_calls: int
    exec_status: str | None
    exec_forced: bool
    uncertainty: float
    filtered: bool
    graph: GraphMetrics | None
    repairs: int
    error: str | None = None


@dataclass
class MultiRecord:
    task_id: str
    steps: int
    passed: bool
    reflected: bool
    tool_calls: int


@dataclass(frozen=True)
class VerifierQuality:
    precision: float | None
    recall: float | None
    false_pass_rate: float | None
    passes: int
    exec_ok: int
    agree: int


def verifier_quality(records: Sequence[TaskRecord]) -> VerifierQuality:
    """Verifier-vs-execution agreement over records that were executed."""
    ran = [r for r in records if r.exec_status is not None]
    passes = [r for r in ran if r.verifier_pass]
    oks = [r for r in ran if r.exec_status == "ok"]
    agree = sum(1 for r in passes if r.exec_status == "ok")
    precision = agree / len(passes) if passes else None
    recall = agree / len(oks) if oks else None
    fpr = None if precision is None else 1.0 - precision
    return VerifierQuality(precision, recall, fpr, len(passes), len(oks), agree)


@dataclass(frozen=True)
class FilterStats:
    theta: float
    delivered: int
    filtered_out: int
    precision: float | None
    false_pass_rate: float | None


def filter_metrics(records: Sequence[TaskRecord], theta: float) -> FilterStats:
    """Verifier quality after dropping the programs scored above ``theta``."""
    kept = verifier_quality([r for r in records if r.uncertainty <= theta])
    filtered_out = verifier_quality(records).passes - kept.passes
    return FilterStats(theta, kept.passes, filtered_out, kept.precision, kept.false_pass_rate)


def theta_sweep(records: Sequence[TaskRecord], thetas: Sequence[float]) -> list[FilterStats]:
    return [filter_metrics(records, t) for t in thetas]


@dataclass
class BucketStats:
    tasks: int = 0
    node_f1: float = 0.0
    edge_f1: float = 0.0
    exact: float = 0.0


def graph_accuracy(records: Sequence[TaskRecord]) -> dict[str, BucketStats]:
    out: dict[str, BucketStats] = {}
    for bucket in BUCKETS:
        scored = [r for r in records if r.bucket == bucket and r.graph is not None]
        stats = BucketStats(tasks=len(scored))
        if scored:
            stats.node_f1 = sum(r.graph.node_f1 for r in scored) / len(scored)
            stats.edge_f1 = sum(r.graph.edge_f1 for r in scored) / len(scored)
            stats.exact = sum(1 for r in scored if r.graph.exact_match) / len(scored)
        out[bucket] = stats
    return out


@dataclass
class BenchReport:
    records: list[TaskRecord] = field(default_factory=list)
    multi_records: list[MultiRecord] = field(default_factory=list)

    @property
    def pass_rate(self) -> float:
        done = [r for r in self.records if r.exec_status is not None and not r.exec_forced]
        if not self.records:
            return 0.0
        good = sum(1 for r in done if r.accepted and r.exec_status == "ok")
        return good / len(self.records)

    @property
    def calls_per_task(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.tool_calls for r in self.records) / len(self.records)

    def quality(self) -> VerifierQuality:
        return verifier_quality(self.records)

    def buckets(self) -> dict[str, BucketStats]:
        return graph_accuracy(self.records)


def run_task(
    task: TaskSpec,
    schema: ApiSchema,
    retriever: Retriever,
    extractor: GraphExtractor,
    generator,
    judge,
    session_factory: Callable[[], Session],
    config: SynthesisConfig = SynthesisConfig(),
    force_exec: bool = False,
) -> TaskRecord:
    """Run one task as a one-step episode in a fresh session.

    With force_exec, a rejected program executes too, for verifier quality.
    """
    bucket = bucket_of(task.prompt)
    session = session_factory()
    step = run_episode(task.task_id, (task.prompt,), schema, retriever, extractor,
                       generator, judge, session, config).steps[0]
    result, execution = step.synthesis, step.execution
    if result is None:
        return TaskRecord(task.task_id, task.kind, bucket, accepted=False, verifier_pass=False,
                          final_layer=-1, layers_run=(), tool_calls=session.tool_calls,
                          exec_status=None, exec_forced=False, uncertainty=1.0, filtered=True,
                          graph=None, repairs=0, error=step.detail)
    forced = execution is None and force_exec
    if forced:
        execution = session.execute(result.candidate.script)
    metrics = (
        graph_metrics(result.graph, task.truth_graph)
        if task.truth_graph is not None
        else None
    )
    return TaskRecord(
        task_id=task.task_id,
        kind=task.kind,
        bucket=bucket,
        accepted=result.accepted,
        verifier_pass=result.verdict.passed,
        final_layer=result.verdict.failure_layer,
        layers_run=result.verdict.layers_run,
        tool_calls=session.tool_calls,
        exec_status=None if execution is None else execution.status.value,
        exec_forced=forced,
        uncertainty=result.uncertainty.combined,
        filtered=result.uncertainty.filtered,
        graph=metrics,
        repairs=len(result.trajectory.actions),
    )


def run_bench(
    tasks: Sequence[TaskSpec],
    schema: ApiSchema,
    retriever: Retriever,
    extractor_factory: Callable[[], GraphExtractor],
    generator_factory: Callable[[], object],
    judge_factory: Callable[[], object],
    session_factory: Callable[[], Session],
    config: SynthesisConfig = SynthesisConfig(),
    force_exec: bool = False,
    multis: Sequence[MultiTaskSpec] = (),
) -> BenchReport:
    """Run a full suite; factories keep stateful components task-local."""
    report = BenchReport()

    def one(task: TaskSpec) -> TaskRecord:
        return run_task(
            task,
            schema,
            retriever,
            extractor_factory(),
            generator_factory(),
            judge_factory(),
            session_factory,
            config,
            force_exec,
        )

    report.records = [one(t) for t in tasks]

    for m in multis:
        outcome = run_with_reflection(
            m.task_id,
            m.steps,
            schema,
            retriever,
            extractor_factory(),
            generator_factory(),
            judge_factory(),
            session_factory,
            reflector=None,
            config=config,
        )
        report.multi_records.append(
            MultiRecord(
                task_id=m.task_id,
                steps=len(m.steps),
                passed=outcome.passed,
                reflected=outcome.second is not None,
                tool_calls=outcome.total_tool_calls,
            )
        )
    return report

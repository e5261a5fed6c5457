"""One benchmark process: set up the package, run a workload, check every task.

Run by ``run.py``; each invocation is a fresh interpreter so that set-up
time and peak memory belong to one workload. Modes:

- ``setup``: time set-up only and report it.
- ``measure``: set up, then repeat the workload's pass untraced until the
  time is up; report latencies, throughput, peak memory and outcomes.
- ``trace``: alternate untraced and traced passes; report per-layer
  figures from the traced passes, the tracing overhead, and whether both
  kinds of pass produced identical outputs and counts.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from structsynth import (  # noqa: E402
    controller,
    extractors,
    fixtures,
    generators,
    judges,
    orchestrator,
    runtime,
)
from workloads import WORKLOADS, Step, Task, build_pass, design_for  # noqa: E402

# A fixed first task, run as part of set-up so that lazy initialisation in
# the package shows in setup_s. Net clk has weight 1 in both designs.
WARMUP = Task("warm-up", (Step("Print the weight of net clk", "show-weight", (("net", "clk"),)),),
              False)
WARMUP_OUTPUT = ("1",)
MAX_REASONS = 10


@dataclass
class Env:
    """The package's inputs, as a user's process would hold them."""

    schema: object
    retriever: object
    snapshot: object
    config: object


def set_up(workload: str) -> Env:
    schema = fixtures.toy_schema()
    if workload == "design_scale":
        snapshot = fixtures.make_scaled_snapshot(schema)
    else:
        snapshot = fixtures.toy_snapshot(schema)
    return Env(schema, fixtures.toy_retriever(), snapshot, controller.SynthesisConfig())


def run_task(env: Env, task: Task, wrap_generator=None):
    """Synthesize and execute one task; return (syntheses, executions, session)."""
    schema = env.schema
    generator = generators.TemplateGenerator(schema)
    if task.defect is not None:
        generator = generators.FaultInjectionGenerator(
            generator, generators.DefectKind(task.defect), schema, heal_after=2
        )
    if wrap_generator is not None:
        generator = wrap_generator(generator)
    extractor = extractors.PatternTableExtractor(schema)
    judge = judges.RuleBasedJudge()
    if task.episode:
        sessions = []

        def new_session():
            sessions.append(runtime.Session(env.snapshot, schema))
            return sessions[-1]

        outcome = orchestrator.run_with_reflection(
            task.task_id, [s.prompt for s in task.steps], schema, env.retriever,
            extractor, generator, judge, new_session, reflector=None, config=env.config,
        )
        steps = outcome.final.steps
        return [s.synthesis for s in steps], [s.execution for s in steps], sessions[-1]
    result = controller.synthesize(
        task.steps[0].prompt, schema, env.retriever, extractor, generator, judge, env.config
    )
    session = runtime.Session(env.snapshot, schema)
    return [result], [session.execute(result.source)], session


def read_field(session, oid: str, name: str):
    value = session.object(oid).fields.get(name)
    if hasattr(value, "enum") and hasattr(value, "const"):
        return f"{value.enum}.{value.const}"
    return value


def check(task: Task, outcome, design) -> tuple[str, str]:
    """Compare one task's results with its expected answers.

    Returns ("ok" | "known_gap" | "failed", reason). ``known_gap`` is the
    recorded L4 gap: a timeout loop planted in an action task passes every
    layer and then runs out of steps.
    """
    syntheses, executions, session = outcome
    if len(syntheses) != len(task.steps):
        return "failed", f"{len(syntheses)} step results for {len(task.steps)} steps"
    for i, (syn, exe) in enumerate(zip(syntheses, executions)):
        if syn is None:
            return "failed", f"step {i} raised or was skipped"
        first = syn.trajectory.verdicts[0].failure_layer
        if (task.known_gap and first == 0 and syn.accepted and exe is not None
                and exe.status.value == "timeout"):
            return "known_gap", "timeout loop passed L4, then hit the step budget"
        if first != task.expected_layer:
            return "failed", f"step {i} first rejected at L{first}, expected L{task.expected_layer}"
        if not syn.accepted:
            return "failed", f"step {i} rejected at L{syn.verdict.failure_layer}"
        if syn.uncertainty.filtered:
            return "failed", f"step {i} withheld, uncertainty {syn.uncertainty.combined:.3f}"
        if exe is None or exe.status.value != "ok":
            return "failed", f"step {i} execution {exe.status.value if exe else 'missing'}"
        if tuple(exe.output) != task.outputs[i]:
            return "failed", f"step {i} printed {list(exe.output)[:5]}, expected {list(task.outputs[i])[:5]}"
    expected = dict(task.changes)
    for key, start in design.start.items():
        want = expected.get(key, start)
        got = read_field(session, *key)
        if got != want:
            return "failed", f"{key[0]}.{key[1]} is {got!r}, expected {want!r}"
    return "ok", ""


def counts_of(task: Task, outcome) -> tuple:
    """Per-task counts read off the results; identical traced or not."""
    syntheses, executions, _ = outcome
    done = [s for s in syntheses if s is not None]
    ran = [e for e in executions if e is not None]
    actions = [a for s in done for a in s.trajectory.actions]
    return (
        len(done),
        sum(s.accepted for s in done),
        sum(len(s.trajectory.candidates) for s in done),
        sum(not v.passed for s in done for v in s.trajectory.verdicts),
        sum(s.trajectory.verdicts[0].failure_layer == task.expected_layer for s in done),
        sum(a.escalated for a in actions),
        sum(a.kind.value == "edge_re_retrieve" for a in actions),
        sum(a.kind.value == "graph_re_extract" for a in actions),
        len(ran),
        len(ran) if task.episode else 0,
        sum(e.steps for e in ran),
        sum(e.status.value == "timeout" for e in ran),
        sum(s.uncertainty.combined for s in done),
    )


COUNT_FIELDS = (
    "syntheses", "accepted", "candidates", "rejections", "first_agree", "escalations",
    "refresh_actions", "reextract_actions", "executes", "episode_executes", "exec_steps", "timeouts",
    "uncertainty_sum",
)


@dataclass
class PassLog:
    """Latencies and outcomes of the passes of one kind, and one pass's counts.

    Every pass runs the same tasks, and the digests check that every pass
    gave the same outputs and counts, so the counts of one pass stand for
    all: per-task figures then do not depend on how many passes a run made.
    Storage does not grow with the number of tasks beyond one float per
    latency, so peak memory stays a property of the package, not of how
    fast the host ran.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    passes: int = 0
    known_gap: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    counts: list[float] = field(default_factory=lambda: [0] * len(COUNT_FIELDS))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    @property
    def tasks(self) -> int:
        return len(self.latencies)


def run_pass(env: Env, tasks: list[Task], design, log: PassLog, wrap_generator=None,
             tracer=None) -> None:
    digest = hashlib.sha256()
    pass_counts = [0] * len(COUNT_FIELDS)
    clock = time.perf_counter
    runner = run_task if tracer is None else tracer.wrap("task", run_task)
    for task in tasks:
        if tracer is not None:
            tracer.task_id = task.task_id
        start = clock()
        try:
            outcome = runner(env, task, wrap_generator)
        except Exception as exc:  # a raising task is a failed task; keep measuring
            log.latencies.append(clock() - start)
            log.fail(f"{task.task_id}: raised {type(exc).__name__}: {exc}")
            digest.update(f"{task.task_id}:raised".encode())
            continue
        log.latencies.append(clock() - start)
        status, reason = check(task, outcome, design)
        if status == "failed":
            log.fail(f"{task.task_id}: {reason}")
        elif status == "known_gap":
            log.known_gap += 1
        counts = counts_of(task, outcome)
        pass_counts = [a + b for a, b in zip(pass_counts, counts)]
        outputs = [tuple(e.output) if e is not None else None for e in outcome[1]]
        digest.update(repr((task.task_id, status, outputs, counts)).encode())
    log.passes += 1
    log.counts = pass_counts
    log.digests.add(digest.hexdigest())


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(env: Env, tasks: list[Task], design, seconds: float) -> dict:
    log = PassLog()
    began = time.monotonic()
    while True:
        run_pass(env, tasks, design, log)
        if time.monotonic() - began >= seconds:
            break
    if len(log.digests) != 1:
        log.fail("repeated passes gave different outputs or counts")
    lat_ms = [x * 1000.0 for x in log.latencies]
    return {
        "tasks": log.tasks,
        "passes": log.passes,
        "tasks_per_pass": len(tasks),
        "tasks_per_s": log.tasks / sum(log.latencies),
        "task_ms_p50": quantile(lat_ms, 50),
        "task_ms_p95": quantile(lat_ms, 95),
        "known_gap": log.known_gap,
        "failed": log.failed,
        "reasons": log.reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": sorted(log.digests),
    }


def trace(env: Env, tasks: list[Task], design, seconds: float, out: Path | None) -> dict:
    from tracing import Tracer, TracedGenerator, summarize

    tracer = Tracer()
    plain, traced = PassLog(), PassLog()
    began = time.monotonic()
    while True:
        run_pass(env, tasks, design, plain)
        tracer.install()
        try:
            run_pass(env, tasks, design, traced,
                     lambda g: TracedGenerator(g, tracer), tracer)
        finally:
            tracer.uninstall()
        if time.monotonic() - began >= seconds:
            break
    if out is not None:
        tracer.write(out)
    identical = plain.digests == traced.digests and len(plain.digests) == 1
    if not identical:
        traced.fail("traced and untraced passes differ in outputs or counts")
    spans = summarize(tracer.spans)
    episodes_per_pass = sum(t.episode for t in tasks)
    return {
        "tasks": traced.tasks,
        "passes": traced.passes,
        "tasks_per_pass": len(tasks),
        "episodes_per_pass": episodes_per_pass,
        "episodes": episodes_per_pass * traced.passes,
        "spans": spans,
        "counts": traced.counts,
        "count_fields": COUNT_FIELDS,
        "tasks_per_s_untraced": plain.tasks / sum(plain.latencies),
        "tasks_per_s_traced": traced.tasks / sum(traced.latencies),
        "identical": identical,
        "digests": sorted(plain.digests | traced.digests),
        "known_gap": traced.known_gap + plain.known_gap,
        "failed": traced.failed + plain.failed,
        "reasons": (plain.reasons + traced.reasons)[:MAX_REASONS],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--trace-out", type=Path, help="write traced spans to this file")
    args = ap.parse_args()

    env = set_up(args.workload)
    warmup_output = tuple(run_task(env, WARMUP)[1][0].output)
    setup_s = time.monotonic() - args.spawned_at
    if warmup_output != WARMUP_OUTPUT:
        print(f"warm-up task printed {list(warmup_output)}, expected {list(WARMUP_OUTPUT)}",
              file=sys.stderr)
        return 1

    report: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        design = design_for(args.workload, ROOT)
        tasks = build_pass(args.workload, args.seed, ROOT, design)
        if args.mode == "measure":
            report.update(measure(env, tasks, design, args.seconds))
        else:
            report.update(trace(env, tasks, design, args.seconds, args.trace_out))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

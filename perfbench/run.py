"""structsynth benchmark: one workload, end-to-end or per-layer figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy_suite --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times set-up in several fresh processes, then runs the
workload untraced in one more and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes in one process and
reports the per-layer metrics and the tracing overhead; the spans go to
``perfbench/traces/``. One client, one thread, closed loop: each task starts
when the previous one has finished. Every task's printed lines and the
design's state afterwards are checked against the benchmark's own oracle.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts tasks whose
result differs from the expected answer; the recorded L4 gap (timeout loops
planted in action tasks, see ``README.md``) is an expected miss and is
counted in ``success_rate`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 5  # set-up samples per run, the measuring process included
WORKER_TIMEOUT_S = 150.0


def spawn(mode: str, args: argparse.Namespace, extra: tuple[str, ...] = ()) -> dict:
    """Run one worker process to completion and return its JSON report."""
    # A fixed hash seed keeps set and dict layouts, and so every count, the
    # same from run to run; the workload seed varies only the inputs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        *extra,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    setups = [spawn("setup", args)["setup_s"] for _ in range(SETUP_PROCESSES - 1)]
    report = spawn("measure", args)
    setups.append(report["setup_s"])
    attempted = report["tasks"]
    misses = report["failed"] + report["known_gap"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (report["tasks_per_s"], "1/s"),
        "task_ms_p50": (report["task_ms_p50"], "ms"),
        "task_ms_p95": (report["task_ms_p95"], "ms"),
        "success_rate": (1.0 - misses / attempted, "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {report['passes']}  "
          f"tasks {attempted} ({report['tasks_per_pass']} per pass)")
    print(f"fail_rate {misses / attempted:.4f} ratio  ({misses} of {attempted} tasks missed; "
          f"{report['known_gap']} are the recorded L4 gap, {report['failed']} unexpected)")
    print(f"setup samples {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"latency samples n={attempted} for task_ms_p50 and task_ms_p95")
    return report, metrics


def per_layer(args: argparse.Namespace) -> tuple[dict, dict]:
    out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
    report = spawn("trace", args, ("--trace-out", str(out)))
    tasks, episodes, spans = report["tasks"], report["episodes"], report["spans"]
    # Counts are one pass's; spans cover every traced pass.
    counts = dict(zip(report["count_fields"], report["counts"]))
    pass_tasks, pass_episodes = report["tasks_per_pass"], report["episodes_per_pass"]

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0) / tasks

    def ms(name: str, per: int = tasks) -> float:
        return 1000.0 * spans.get(name, {}).get("total_s", 0.0) / per if per else 0.0

    syntheses = counts["syntheses"]
    tps_plain, tps_traced = report["tasks_per_s_untraced"], report["tasks_per_s_traced"]
    metrics = {
        "qas.parse.calls_per_task": (calls("qas.parse"), "count/task"),
        "qas.parse.ms_per_task": (ms("qas.parse"), "ms/task"),
        "qas.infer_types.calls_per_task": (calls("qas.infer_types"), "count/task"),
        "qas.infer_types.ms_per_task": (ms("qas.infer_types"), "ms/task"),
        "uncertainty.compute.ms_per_task": (ms("uncertainty.compute"), "ms/task"),
        "uncertainty.combined_mean": (counts["uncertainty_sum"] / syntheses, "score"),
        "verifier.verify_all.calls_per_task": (calls("verifier.verify_all"), "count/task"),
        "verifier.L1.ms_per_task": (ms("verifier.L1"), "ms/task"),
        "verifier.L2.ms_per_task": (ms("verifier.L2"), "ms/task"),
        "verifier.L3.ms_per_task": (ms("verifier.L3"), "ms/task"),
        "verifier.L4.ms_per_task": (ms("verifier.L4"), "ms/task"),
        "verifier.reject_ratio": (counts["rejections"] / counts["candidates"], "ratio"),
        "verifier.verdict_agree_ratio": (counts["first_agree"] / syntheses, "ratio"),
        "controller.candidates_per_task": (counts["candidates"] / pass_tasks, "count/task"),
        "controller.escalations_per_task": (counts["escalations"] / pass_tasks, "count/task"),
        "controller.accept_ratio": (counts["accepted"] / syntheses, "ratio"),
        "depgraph.extract_graph.calls_per_task": (calls("depgraph.extract_graph"), "count/task"),
        "depgraph.extract_graph.ms_per_task": (ms("depgraph.extract_graph"), "ms/task"),
        "retrieval.retrieve.ms_per_task": (ms("retrieval.retrieve"), "ms/task"),
        "retrieval.refresh.calls_per_task": (calls("retrieval.refresh"), "count/task"),
        "generators.generate.calls_per_task": (calls("generators.generate"), "count/task"),
        "generators.generate.ms_per_task": (ms("generators.generate"), "ms/task"),
        "runtime.session_setup.ms_per_task": (ms("runtime.session_setup"), "ms/task"),
        "runtime.execute.ms_per_task": (ms("runtime.execute"), "ms/task"),
        "runtime.execute.steps_per_task": (counts["exec_steps"] / pass_tasks, "count/task"),
        "runtime.execute.timeouts": (counts["timeouts"], "count/pass"),
        "orchestrator.episode.ms_per_episode": (ms("orchestrator.episode", episodes), "ms/episode"),
        "orchestrator.episode.executes": (
            counts["episode_executes"] / pass_episodes if pass_episodes else 0.0,
            "count/episode"),
        "task.ms_per_task": (ms("task"), "ms/task"),
        "trace.tasks_per_s_untraced": (tps_plain, "1/s"),
        "trace.tasks_per_s_traced": (tps_traced, "1/s"),
        "trace.overhead_pct": (100.0 * (tps_plain - tps_traced) / tps_plain, "%"),
    }
    print(f"workload {args.workload}  seed {args.seed}  traced passes {report['passes']}  "
          f"tasks {tasks}  episodes {episodes}  spans -> {out.relative_to(ROOT)}")
    print("traced and untraced passes identical (outputs and counts): "
          f"{report['identical']}  digest {report['digests'][0][:16]}")
    task_ms = ms("task")
    print(f"{'span':36} {'calls/task':>10} {'ms/task':>9} {'self ms':>9} {'share':>6}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["total_s"]):
        incl = 1000.0 * row["total_s"] / tasks
        print(f"{name:36} {row['calls'] / tasks:10.3f} {incl:9.4f} "
              f"{1000.0 * row['self_s'] / tasks:9.4f} {incl / task_ms:6.1%}")
    return report, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "structsynth" / "__init__.py").is_file():
        print(f"error: no structsynth package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, metrics = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in report["reasons"]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["tasks"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

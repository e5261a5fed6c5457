"""Show that the per-task counts repeat exactly.

Runs the traced benchmark twice per workload with the same seed, for 1 s and
for 3 s so that the two runs complete different numbers of passes, and
compares every count metric (calls, candidates, escalations, interpreter
steps, timeouts) and the digest of all outputs and counts. Each traced run
also compares its traced passes with its untraced ones. Exits 1 on any
difference.

    python3 perfbench/counts.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
COUNTS = (
    "qas.parse.calls_per_task",
    "qas.infer_types.calls_per_task",
    "verifier.verify_all.calls_per_task",
    "depgraph.extract_graph.calls_per_task",
    "retrieval.refresh.calls_per_task",
    "generators.generate.calls_per_task",
    "controller.candidates_per_task",
    "controller.escalations_per_task",
    "runtime.execute.steps_per_task",
    "runtime.execute.timeouts",
    "orchestrator.episode.executes",
    "verifier.verdict_agree_ratio",
    "uncertainty.combined_mean",
)


def traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, str, bool]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=HERE.parent,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split("digest ")[-1] for line in lines if "digest " in line)
    metrics = {name: result["metrics"][name]["value"] for name in COUNTS}
    return metrics, digest, result["correct"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    same = True
    print(f"{'workload':13} {'metric':38} {'1 s run':>12} {'3 s run':>12}")
    for workload in WORKLOADS:
        first, digest1, ok1 = traced_run(workload, args.seed, 1)
        second, digest2, ok2 = traced_run(workload, args.seed, 3)
        for name in COUNTS:
            mark = "" if first[name] == second[name] else "  DIFFERS"
            print(f"{workload:13} {name:38} {first[name]:12.6g} {second[name]:12.6g}{mark}")
        print(f"{workload:13} {'digest of outputs and counts':38} {digest1:>12} {digest2:>12}")
        same &= first == second and digest1 == digest2 and ok1 and ok2
    print("counts repeat exactly" if same else "counts differ between runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

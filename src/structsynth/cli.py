"""Command line front end for the synthesis pipeline.

Every subcommand defaults to the packaged toy fixtures (schema, corpus,
snapshot, task suites) so the whole loop can be exercised without any
setup; each default can be overridden by a path flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .bench import load_multi_suite, load_suite, run_bench, theta_sweep
from .controller import SynthesisConfig, synthesize
from .depgraph import DepGraph, ExtractorFailure, extract_graph, graph_metrics, ground_truth_graph
from .extractors import PatternTableExtractor
from .fixtures import fixture_path, toy_corpus, toy_retriever, toy_schema, toy_snapshot
from .generators import GeneratorFailure, TemplateGenerator
from .judges import RuleBasedJudge
from .qas.analysis import analyze
from .retrieval import Retriever, load_corpus
from .runtime import STEP_BUDGET, ExecStatus, Session, SnapshotError, load_snapshot
from .schema import ApiSchema, ParseError, SchemaError, load_schema
from .verifier import VerdictReport, verify_all


def _load_schema(path: str | None) -> ApiSchema:
    return load_schema(path) if path else toy_schema()


def _load_retriever(path: str | None) -> Retriever:
    return Retriever(load_corpus(path)) if path else toy_retriever()


def _load_snapshot(path: str | None, schema: ApiSchema):
    return load_snapshot(path, schema) if path else toy_snapshot(schema)


def _print_verdict(verdict: VerdictReport) -> None:
    for issue in verdict.issues:
        where = f" at {issue.location[0]}:{issue.location[1]}" if issue.location else ""
        region = f" [{issue.graph_region}]" if issue.graph_region else ""
        print(f"L{issue.layer} {issue.severity.value} {issue.code}{where}{region}: "
              f"{issue.message}")
    state = "PASS" if verdict.passed else f"FAIL at layer {verdict.failure_layer}"
    print(f"{state} (layers run: {', '.join(f'L{n}' for n in verdict.layers_run)})")


def _cmd_verify(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    candidate = analyze(_read_source(args.source), schema)
    if args.graph:
        graph = _read_graph(args.graph)
    elif candidate.typed is not None:
        # No graph supplied: check the program against its own shape so the
        # causal layer still runs.
        graph, _ = ground_truth_graph(candidate.typed, schema)
    else:
        graph = None
    judge = RuleBasedJudge() if args.max_layer >= 4 else None
    verdict = verify_all(
        candidate, graph, schema, None, judge, args.prompt, max_layer=args.max_layer
    )
    if args.json:
        print(json.dumps(_verdict_dict(verdict), indent=2))
    else:
        _print_verdict(verdict)
    return 0 if verdict.passed else 1


def _verdict_dict(verdict: VerdictReport) -> dict:
    return {
        "passed": verdict.passed,
        "failure_layer": verdict.failure_layer,
        "layers_run": list(verdict.layers_run),
        "issues": [
            {
                "code": i.code,
                "layer": i.layer,
                "severity": i.severity.value,
                "message": i.message,
                "location": list(i.location) if i.location else None,
                "graph_region": i.graph_region,
            }
            for i in verdict.issues
        ],
    }


def _cmd_extract_graph(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    extractor = PatternTableExtractor(schema)
    try:
        result = extract_graph(args.prompt, extractor, schema)
    except ExtractorFailure as exc:
        print(f"extraction failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result.graph.to_dict(), indent=2))
    if result.report is not None and not result.report.ok:
        for fb in result.report.feedback:
            print(f"note {fb.target or '-'} {fb.code}: {fb.message}", file=sys.stderr)
    return 0 if result.validated else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    retriever = _load_retriever(args.corpus)
    config = SynthesisConfig(budget=args.budget, max_layer=args.max_layer)
    try:
        result = synthesize(
            args.prompt,
            schema,
            retriever,
            PatternTableExtractor(schema),
            TemplateGenerator(schema),
            RuleBasedJudge(),
            config,
        )
    except (GeneratorFailure, ExtractorFailure) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 1
    print(result.source, end="" if result.source.endswith("\n") else "\n")
    actions = ", ".join(a.kind.value for a in result.trajectory.actions) or "none"
    print(f"accepted: {result.accepted}", file=sys.stderr)
    print(f"actions: {actions}", file=sys.stderr)
    print(
        f"uncertainty: {result.uncertainty.combined:.3f} "
        f"(filtered: {result.uncertainty.filtered})",
        file=sys.stderr,
    )
    if not result.verdict.passed:
        for issue in result.verdict.errors():
            print(f"  L{issue.layer} {issue.code}: {issue.message}", file=sys.stderr)
    return 0 if result.accepted else 1


def _cmd_run(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    snapshot = _load_snapshot(args.snapshot, schema)
    session = Session(
        snapshot,
        schema,
        step_budget=args.step_budget,
        crash_probability=args.crash_probability,
        seed=args.seed,
    )
    result = session.execute(_read_source(args.source))
    for line in result.output:
        print(line)
    if result.status is ExecStatus.OK:
        return 0
    print(f"{result.status.value}: {result.error_kind}: {result.error_message}",
          file=sys.stderr)
    return 2 if result.status is ExecStatus.TIMEOUT else 1


def _cmd_score(args: argparse.Namespace) -> int:
    pred, truth = _read_graph(args.pred), _read_graph(args.truth)
    print(json.dumps(graph_metrics(pred, truth)._asdict(), indent=2))
    return 0


def _cmd_multistep(args: argparse.Namespace) -> int:
    from .orchestrator import RuleBasedReflector, run_with_reflection

    schema = _load_schema(args.schema)
    retriever = _load_retriever(args.corpus)
    snapshot = _load_snapshot(args.snapshot, schema)
    outcome = run_with_reflection(
        "cli",
        args.prompt,
        schema,
        retriever,
        PatternTableExtractor(schema),
        TemplateGenerator(schema),
        RuleBasedJudge(),
        lambda: Session(snapshot, schema, step_budget=args.step_budget),
        reflector=None if args.no_reflection else RuleBasedReflector(),
        config=SynthesisConfig(step_budget=args.step_budget),
    )
    for i, step in enumerate(outcome.final.steps):
        print(f"step {i + 1} [{step.status}]: {step.prompt}")
        if step.execution is not None:
            for line in step.execution.output:
                print(f"  {line}")
        if step.detail:
            print(f"  {step.detail}")
    if outcome.second is not None:
        print(f"reflected with {len(outcome.hints)} hint(s)")
    print(f"passed: {outcome.passed} (tool calls: {outcome.total_tool_calls})")
    return 0 if outcome.passed else 1


def _parse_sweep(text: str) -> list[float]:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise SystemExit(f"bad sweep spec {text!r}; expected start:stop:step")
    if step <= 0 or hi < lo:
        raise SystemExit(f"bad sweep spec {text!r}; need step > 0 and stop >= start")
    thetas = []
    theta = lo
    while theta <= hi + 1e-9:
        thetas.append(round(theta, 10))
        theta += step
    return thetas


def _layer_list(text: str) -> list[int]:
    """``--layers``: a comma list of verifier depths, each from 1 to 4."""
    parts = text.split(",")
    if not all(p.strip() in ("1", "2", "3", "4") for p in parts):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of layers 1 to 4")
    return [int(p) for p in parts]


def _cmd_bench(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    retriever = _load_retriever(args.corpus)
    snapshot = _load_snapshot(args.snapshot, schema)
    tasks = load_suite(args.suite or fixture_path("suite/singles.json"))
    multis = load_multi_suite(args.multis) if args.multis else (
        [] if args.no_multis else load_multi_suite(fixture_path("suite/multis.json"))
    )
    layers = args.layers
    exit_code = 0
    for max_layer in layers:
        config = SynthesisConfig(
            budget=args.budget, max_layer=max_layer, step_budget=args.step_budget
        )
        report = run_bench(
            tasks,
            schema,
            retriever,
            lambda: PatternTableExtractor(schema),
            lambda: TemplateGenerator(schema),
            lambda: RuleBasedJudge(),
            lambda: Session(snapshot, schema, step_budget=args.step_budget),
            config=config,
            force_exec=args.force_exec or len(layers) > 1,
            multis=multis if max_layer == layers[-1] else (),
        )
        errors = [r for r in report.records if r.error]
        if errors:
            exit_code = 1
        if args.json:
            print(json.dumps(_bench_dict(report, max_layer), indent=2))
            continue
        if len(layers) > 1:
            print(f"--- max layer {max_layer} ---")
        quality = report.quality()
        print(f"tasks: {len(report.records)}  pass rate: {report.pass_rate:.3f}  "
              f"calls/task: {report.calls_per_task:.2f}")
        if quality.precision is not None:
            print(f"verifier precision: {quality.precision:.3f}  "
                  f"false pass rate: {quality.false_pass_rate:.3f}  "
                  f"(passes: {quality.passes}, exec ok: {quality.exec_ok})")
        for bucket, stats in report.buckets().items():
            if stats.tasks:
                print(f"bucket {bucket:>4}: {stats.tasks:2d} tasks  "
                      f"node F1 {stats.node_f1:.3f}  edge F1 {stats.edge_f1:.3f}  "
                      f"exact {stats.exact:.3f}")
        for record in errors:
            print(f"error in {record.task_id}: {record.error}")
        if args.sweep:
            for stats in theta_sweep(report.labeled(), _parse_sweep(args.sweep)):
                precision = "-" if stats.precision is None else f"{stats.precision:.3f}"
                print(f"theta {stats.theta:.2f}: delivered {stats.delivered:3d}  "
                      f"filtered {stats.filtered_out:3d}  precision {precision}")
        for m in report.multi_records:
            mark = "ok" if m.passed else "FAIL"
            print(f"multi {m.task_id} [{mark}] steps={m.steps} "
                  f"tool_calls={m.tool_calls}")
    return exit_code


def _bench_dict(report, max_layer: int) -> dict:
    return {
        "max_layer": max_layer,
        "pass_rate": report.pass_rate,
        "calls_per_task": report.calls_per_task,
        "quality": asdict(report.quality()),
        "buckets": {k: asdict(v) for k, v in report.buckets().items()},
        "records": [
            {k: (list(v) if isinstance(v, tuple) else v)
             for k, v in asdict(r).items() if k != "graph"}
            for r in report.records
        ],
        "multis": [asdict(m) for m in report.multi_records],
    }


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")


def _read_graph(path: str) -> DepGraph:
    try:
        raw = json.loads(_read_source(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"cannot read graph {path}: {exc}") from exc
    return DepGraph.from_dict(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structsynth",
        description="Synthesize, verify, and execute database scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the staged verifier over a program")
    p.add_argument("source", help="program file, or - for stdin")
    p.add_argument("--schema", help="schema JSON path (default: packaged toy schema)")
    p.add_argument("--graph", help="dependency graph JSON (default: derive from program)")
    p.add_argument("--prompt", default="", help="task text for the semantic layer")
    p.add_argument("--max-layer", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extract-graph", help="extract a dependency graph from a prompt")
    p.add_argument("--prompt", required=True)
    p.add_argument("--schema")
    p.set_defaults(func=_cmd_extract_graph)

    p = sub.add_parser("synth", help="synthesize a program for a prompt")
    p.add_argument("--prompt", required=True)
    p.add_argument("--schema")
    p.add_argument("--corpus", help="evidence corpus JSON (default: packaged)")
    p.add_argument("--budget", type=int, default=4)
    p.add_argument("--max-layer", type=int, default=4, choices=(1, 2, 3, 4))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="execute a program against a snapshot")
    p.add_argument("source", help="program file, or - for stdin")
    p.add_argument("--schema")
    p.add_argument("--snapshot", help="snapshot JSON (default: packaged)")
    p.add_argument("--step-budget", type=int, default=STEP_BUDGET)
    p.add_argument("--crash-probability", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("score", help="compare a predicted graph against a reference")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("multistep", help="run a multi-step task with reflection")
    p.add_argument("--prompt", action="append", required=True,
                   help="one step; repeat the flag for more steps")
    p.add_argument("--schema")
    p.add_argument("--corpus")
    p.add_argument("--snapshot")
    p.add_argument("--step-budget", type=int, default=STEP_BUDGET)
    p.add_argument("--no-reflection", action="store_true")
    p.set_defaults(func=_cmd_multistep)

    p = sub.add_parser("bench", help="run a task suite and report quality metrics")
    p.add_argument("--suite", help="singles suite JSON (default: packaged)")
    p.add_argument("--multis", help="multi-step suite JSON (default: packaged)")
    p.add_argument("--no-multis", action="store_true")
    p.add_argument("--schema")
    p.add_argument("--corpus")
    p.add_argument("--snapshot")
    p.add_argument("--budget", type=int, default=4)
    p.add_argument("--layers", type=_layer_list, default="4",
                   help="comma list of max layers to compare, e.g. 1,3,4 (default: 4)")
    p.add_argument("--force-exec", action="store_true",
                   help="execute rejected programs too, for verifier quality")
    p.add_argument("--theta-sweep", dest="sweep", metavar="START:STOP:STEP",
                   help="uncertainty filter sweep, e.g. 0.1:0.9:0.2")
    p.add_argument("--step-budget", type=int, default=STEP_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The bundled task suites, loaded with the bench's loaders, and the bench
inputs the tests build: task records, template programs for prompts, and
verifier quality at one depth over planted programs."""

from __future__ import annotations

from typing import Sequence

from structsynth.bench import (
    MultiTaskSpec,
    TaskRecord,
    TaskSpec,
    VerifierQuality,
    load_multi_suite,
    load_suite,
    run_task,
    verifier_quality,
)
from structsynth.controller import SynthesisConfig
from structsynth.depgraph import DepGraph, GraphMetrics
from structsynth.extractors import PatternTableExtractor
from structsynth.fixtures import fixture_path
from structsynth.generators import (
    DefectKind,
    FaultInjectionGenerator,
    GenerationRequest,
    TemplateGenerator,
)
from structsynth.judges import RuleBasedJudge
from structsynth.runtime import Session


# Prompts no pattern of the extractor matches: each task must be refused.
OUT_OF_SCOPE_PROMPTS = (
    "Delete instance u3",
    "Rename net clk to clock",
    "Create a net named n9",
    "Set the weight of instance u1 to 4",
    "Print the names of all vias",
    "Mark instance u1 as fixed",
)


def singles_suite() -> list[TaskSpec]:
    return load_suite(fixture_path("suite/singles.json"))


def multis_suite() -> list[MultiTaskSpec]:
    return load_multi_suite(fixture_path("suite/multis.json"))


def record(
    verifier_pass: bool = True,
    exec_status: str | None = "ok",
    accepted: bool | None = None,
    forced: bool = False,
    uncertainty: float = 0.0,
    bucket: str = "<8",
    graph: GraphMetrics | None = None,
    tool_calls: int = 1,
) -> TaskRecord:
    """A task record with the fields the bench's aggregates read."""
    return TaskRecord(
        task_id="t",
        kind="query",
        bucket=bucket,
        accepted=verifier_pass if accepted is None else accepted,
        verifier_pass=verifier_pass,
        final_layer=0 if verifier_pass else 3,
        layers_run=(1, 2, 3, 4),
        tool_calls=tool_calls,
        exec_status=exec_status,
        exec_forced=forced,
        uncertainty=uncertainty,
        filtered=False,
        graph=graph,
        repairs=0,
    )


def template_program(prompt: str, schema) -> tuple[str, DepGraph]:
    """The template generator's program for ``prompt``, and the graph it renders."""
    graph = PatternTableExtractor(schema).extract(prompt, None, ())
    source = TemplateGenerator(schema).generate(GenerationRequest(prompt=prompt, graph=graph))
    return source, graph


def depth_quality(
    plan: Sequence[tuple[TaskSpec, DefectKind | None]],
    schema,
    retriever,
    snapshot,
    max_layer: int,
) -> VerifierQuality:
    """Verifier quality at one depth over planted programs.

    Each task runs once through ``run_task`` with no repair budget, so its
    verdict is the first program's: the template program, broken by the
    planned defect. Rejected programs execute too, for ground truth.
    """
    records = []
    for task, defect in plan:
        generator = TemplateGenerator(schema)
        if defect is not None:
            generator = FaultInjectionGenerator(generator, defect, schema, heal_after=1)
        records.append(
            run_task(
                task,
                schema,
                retriever,
                PatternTableExtractor(schema),
                generator,
                RuleBasedJudge(),
                lambda: Session(snapshot, schema),
                config=SynthesisConfig(budget=0, max_layer=max_layer),
                force_exec=True,
            )
        )
    return verifier_quality(records)

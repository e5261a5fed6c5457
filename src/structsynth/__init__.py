"""Verifier-guided synthesis of database scripts from natural-language asks.

The pipeline extracts a dependency graph from the prompt, retrieves API
evidence, generates a candidate program, and pushes it through a staged
verifier; a repair controller decides between regenerating, re-retrieving
evidence, and re-extracting the graph until the budget runs out. Accepted
programs carry a closed-form uncertainty score and can be executed against
a mock object database.
"""

from __future__ import annotations

from .bench import BenchReport, load_multi_suite, load_suite, run_bench, run_task
from .controller import (
    Action,
    ActionKind,
    SynthesisConfig,
    SynthesisResult,
    Trajectory,
    loop_guard,
    select_action,
    synthesize,
)
from .depgraph import (
    DepGraph,
    EdgeKind,
    ExtractionResult,
    ExtractorFailure,
    Feedback,
    GraphEdge,
    GraphInvariantError,
    GraphMetrics,
    GraphNode,
    GraphReport,
    NodeKind,
    extract_graph,
    graph_metrics,
    ground_truth_graph,
    validate_graph,
)
from .extractors import PatternTableExtractor
from .generators import (
    DefectKind,
    FaultInjectionGenerator,
    GenerationRequest,
    GeneratorFailure,
    TemplateGenerator,
    apply_defect,
)
from .judges import JudgeFailure, JudgeVerdict, RuleBasedJudge
from .orchestrator import (
    EpisodeResult,
    ReflectionOutcome,
    RuleBasedReflector,
    run_episode,
    run_with_reflection,
)
from .qas import Candidate, analyze
from .retrieval import ApiDoc, EvidenceSet, Retriever, load_corpus
from .runtime import (
    ExecStatus,
    ExecutionResult,
    Session,
    Snapshot,
    SnapshotError,
    load_snapshot,
)
from .schema import ApiSchema, ParseError, SchemaError, TypeRef, load_schema
from .uncertainty import UncertaintyReport, compute_uncertainty
from .verifier import Issue, Severity, VerdictReport, verify_all

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionKind",
    "ApiDoc",
    "ApiSchema",
    "BenchReport",
    "Candidate",
    "DefectKind",
    "DepGraph",
    "EdgeKind",
    "EpisodeResult",
    "EvidenceSet",
    "ExecStatus",
    "ExecutionResult",
    "ExtractionResult",
    "ExtractorFailure",
    "FaultInjectionGenerator",
    "Feedback",
    "GenerationRequest",
    "GeneratorFailure",
    "GraphEdge",
    "GraphInvariantError",
    "GraphMetrics",
    "GraphNode",
    "GraphReport",
    "Issue",
    "JudgeFailure",
    "JudgeVerdict",
    "NodeKind",
    "ParseError",
    "PatternTableExtractor",
    "ReflectionOutcome",
    "Retriever",
    "RuleBasedJudge",
    "RuleBasedReflector",
    "SchemaError",
    "Session",
    "Severity",
    "Snapshot",
    "SnapshotError",
    "SynthesisConfig",
    "SynthesisResult",
    "TemplateGenerator",
    "Trajectory",
    "TypeRef",
    "UncertaintyReport",
    "VerdictReport",
    "analyze",
    "apply_defect",
    "compute_uncertainty",
    "extract_graph",
    "graph_metrics",
    "ground_truth_graph",
    "load_corpus",
    "load_multi_suite",
    "load_schema",
    "load_snapshot",
    "load_suite",
    "loop_guard",
    "run_bench",
    "run_episode",
    "run_task",
    "run_with_reflection",
    "select_action",
    "synthesize",
    "validate_graph",
    "verify_all",
]

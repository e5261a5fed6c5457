"""Immutable records are tuples: they keep the values, equality and ``repr``
they had as frozen dataclasses, and still refuse attribute assignment."""

from __future__ import annotations

import hashlib
import importlib

import pytest

from structsynth.controller import synthesize
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import TemplateGenerator
from structsynth.judges import RuleBasedJudge
from structsynth.qas import nodes as qn
from suites import singles_suite

RECORDS = {
    "controller": ("Action", "SynthesisConfig"),
    "depgraph": ("DepGraph", "Feedback", "GraphEdge", "GraphMetrics", "GraphNode", "GraphReport"),
    "generators": ("GenerationRequest",),
    "judges": ("Finding", "JudgeContext", "JudgeVerdict"),
    "orchestrator": ("StepHint", "StepOutcome"),
    "qas.analysis": ("CallSite", "Candidate", "EnumRef", "Operation", "UndefinedUse"),
    "qas.lexer": ("LexIssue", "Token"),
    "qas.parser": ("SyntaxFailure", "SyntaxIssue"),
    "retrieval": ("ApiDoc", "EvidenceSet", "Hit"),
    "runtime": ("ExecutionResult",),
    "schema": ("ApiSchema", "MethodSig", "Param", "TypeRef", "Violation"),
    "uncertainty": ("CodeSignals", "CoverageSignals", "TrajectorySignals", "UncertaintyReport"),
    "verifier": ("Issue",),
}
NODES = [c for c in vars(qn).values() if isinstance(c, type) and issubclass(c, qn.Node)
         and c is not qn.Node]


def _records():
    for module, names in RECORDS.items():
        for name in names:
            cls = getattr(importlib.import_module(f"structsynth.{module}"), name)
            yield pytest.param(cls, cls._make((None,) * len(cls._fields)), id=name)
    for cls in NODES:
        yield pytest.param(cls, cls(*(None,) * len(cls._fields)), id=cls.__name__)


@pytest.mark.parametrize(("cls", "record"), list(_records()))
def test_records_refuse_attribute_assignment(cls, record):
    assert isinstance(record, tuple)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_nodes_compare_and_hash_by_class_and_payload():
    here, there = qn.Name("a", line=1, col=5), qn.Name("a", line=7, col=2)
    assert repr(here) == "Name(line=1, col=5, id='a')"
    assert here == there and not here != there
    assert hash(here) == hash(there) == hash(("a",))
    assert here != qn.StringLit("a")
    assert here != (1, 5, "a") and (1, 5, "a") != here
    assert hash(qn.NoneLit()) == hash(())
    assert qn.IfStmt(here, ()).orelse == ()
    assert here._replace(id="b") == qn.Name("b") and here._replace(id="b").location == (1, 5)


def test_synthesis_records_repr_as_pinned(schema, retriever):
    """``repr`` of the parts of ``synthesize``'s result that are records, for
    every suite prompt: graph nodes and edges, the verdict's issues, the call
    sites, the evidence hits and the uncertainty report. Fields that are
    frozensets are left out, since their order follows the hash seed.
    """
    digest = hashlib.sha256()
    tasks = singles_suite()
    for task in tasks:
        result = synthesize(task.prompt, schema, retriever, PatternTableExtractor(schema),
                            TemplateGenerator(schema), RuleBasedJudge())
        parts = (result.graph.nodes, result.graph.edges, result.verdict.issues,
                 result.candidate.typed.call_sites, result.evidence.hits, result.uncertainty)
        digest.update(repr(parts).encode())
    assert len(tasks) == 46
    assert digest.hexdigest()[:16] == "346523d3b1c72db1"

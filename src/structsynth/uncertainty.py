"""Closed-form uncertainty scoring over a finished synthesis attempt.

Three risk axes, each in [0, 1]: code-level hallucination signals from the
final program, trajectory-level signals from how the repair loop behaved,
and evidence coverage of the calls the program makes. A weighted sum gives
the combined uncertainty; anything above the threshold should be filtered
rather than delivered.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .qas.analysis import Candidate
from .retrieval import EvidenceSet
from .schema import ApiSchema, valid_enum_ref, valid_import
from .verifier import VerdictReport

# Axis weights of the combined score, the code-confidence penalties, the
# trajectory-risk weights, and the filter threshold: a program scoring above
# THRESHOLD is withheld.
CODE_WEIGHT, TRAJECTORY_WEIGHT, COVERAGE_WEIGHT = 0.4, 0.3, 0.3
IMPORT_PENALTY, ENUM_PENALTY, UNKNOWN_METHOD_PENALTY = 0.15, 0.15, 0.6
CONVERGENCE_WEIGHT, STAGNATION_WEIGHT, INEFFECTIVENESS_WEIGHT = 0.4, 0.3, 0.3
THRESHOLD = 0.35


def _clip01(x: float) -> float:
    return max(0.0, min(1.0, x))


class CodeSignals(NamedTuple):
    invalid_import_count: int
    unknown_enum_count: int
    unknown_method_ratio: float
    code_confidence: float


class TrajectorySignals(NamedTuple):
    convergence: float
    stagnation: float
    ineffectiveness: float


class CoverageSignals(NamedTuple):
    covered_calls: int
    total_calls: int
    coverage_confidence: float


class UncertaintyReport(NamedTuple):
    code: CodeSignals
    trajectory: TrajectorySignals
    coverage: CoverageSignals
    code_risk: float
    trajectory_risk: float
    coverage_risk: float
    combined: float
    filtered: bool


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def compute_code_signals(candidate: Candidate, schema: ApiSchema) -> CodeSignals:
    """Hallucination counters over the final program; unparseable scores zero."""
    ts = candidate.typed
    if ts is None:
        return CodeSignals(0, 0, 1.0, 0.0)
    bad_imports = sum(1 for name in ts.imports if not valid_import(schema, name))
    bad_enums = sum(1 for ref in ts.enum_refs if not valid_enum_ref(schema, ref.name))
    all_method_names = {
        m for decl in schema.types.values() for m in decl.methods
    }
    unknown = 0
    for cs in ts.call_sites:
        base = cs.receiver_type.base
        if schema.is_object_type(base):
            if schema.method(base, cs.method) is None:
                unknown += 1
        elif cs.method not in all_method_names:
            unknown += 1
    ratio = unknown / len(ts.call_sites) if ts.call_sites else 0.0
    confidence = _clip01(
        1.0
        - IMPORT_PENALTY * bad_imports
        - ENUM_PENALTY * bad_enums
        - UNKNOWN_METHOD_PENALTY * ratio
    )
    return CodeSignals(bad_imports, bad_enums, ratio, confidence)


def compute_trajectory_signals(
    candidates: Sequence[Candidate], verdicts: Sequence[VerdictReport]
) -> TrajectorySignals:
    """Risk read off the repair loop: convergence, stagnation, ineffectiveness."""
    if len(candidates) != len(verdicts) or not verdicts:
        raise ValueError("need one verdict per candidate")
    repairs = len(verdicts) - 1
    first = verdicts[0].failure_layer
    last = verdicts[-1].failure_layer
    if repairs == 0 and first == 0:
        convergence = 0.0
    else:
        convergence = _clip01(1.0 - (first - last) / max(first, 1))
    if repairs == 0:
        return TrajectorySignals(convergence, 0.0, 0.0)
    sims = [jaccard(a.statements, b.statements) for a, b in zip(candidates, candidates[1:])]
    flat = sum(1 for a, b in zip(verdicts, verdicts[1:]) if b.failure_layer >= a.failure_layer)
    return TrajectorySignals(convergence, sum(sims) / len(sims), flat / repairs)


def compute_coverage(
    candidate: Candidate, schema: ApiSchema, evidence: EvidenceSet | None
) -> CoverageSignals:
    """Fraction of schema-resolved calls that retrieved documentation backs."""
    ts = candidate.typed
    if ts is None:
        return CoverageSignals(0, 0, 0.0)
    eligible = [
        cs
        for cs in ts.call_sites
        if schema.is_object_type(cs.receiver_type.base)
        and schema.method(cs.receiver_type.base, cs.method) is not None
    ]
    if not eligible:
        return CoverageSignals(0, 0, 1.0)
    if evidence is None:
        return CoverageSignals(0, len(eligible), 1.0)
    covered = sum(
        1 for cs in eligible if evidence.covers(cs.receiver_type.base, cs.method)
    )
    return CoverageSignals(covered, len(eligible), covered / len(eligible))


def compute_uncertainty(
    candidates: Sequence[Candidate],
    verdicts: Sequence[VerdictReport],
    schema: ApiSchema,
    evidence: EvidenceSet | None = None,
) -> UncertaintyReport:
    """Score a finished attempt; the final candidate is the delivered program."""
    final = candidates[-1]
    code = compute_code_signals(final, schema)
    trajectory = compute_trajectory_signals(candidates, verdicts)
    coverage = compute_coverage(final, schema, evidence)
    code_risk = 1.0 - code.code_confidence
    trajectory_risk = (
        CONVERGENCE_WEIGHT * trajectory.convergence
        + STAGNATION_WEIGHT * trajectory.stagnation
        + INEFFECTIVENESS_WEIGHT * trajectory.ineffectiveness
    )
    coverage_risk = 1.0 - coverage.coverage_confidence
    combined = (
        CODE_WEIGHT * code_risk
        + TRAJECTORY_WEIGHT * trajectory_risk
        + COVERAGE_WEIGHT * coverage_risk
    )
    return UncertaintyReport(
        code=code,
        trajectory=trajectory,
        coverage=coverage,
        code_risk=code_risk,
        trajectory_risk=trajectory_risk,
        coverage_risk=coverage_risk,
        combined=combined,
        filtered=combined > THRESHOLD,
    )

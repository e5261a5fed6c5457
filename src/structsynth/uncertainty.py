"""Closed-form uncertainty scoring over a finished synthesis attempt.

Two risk axes, each in [0, 1]: trajectory-level signals from how the repair
loop behaved, and evidence coverage of the calls the program makes. A
weighted sum gives the combined uncertainty, in [0, 0.6]; anything above the
threshold should be filtered rather than delivered. Stagnation compares the
statement sets of consecutive candidates, so those sets are built only for a
trajectory that had a repair.

There is no code axis. Invalid imports, unknown enum constants and unknown
methods are layer-3 errors, so such a score would read 0 on every program
the verifier accepts and could never withhold one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .qas.analysis import Candidate
from .qas.nodes import ForStmt, IfStmt, Stmt, stmt_header
from .qas.parser import SyntaxFailure
from .retrieval import EvidenceSet
from .schema import ApiSchema
from .verifier import VerdictReport

# Axis weights of the combined score, the trajectory-risk weights, and the
# filter threshold: a program scoring above THRESHOLD is withheld.
TRAJECTORY_WEIGHT, COVERAGE_WEIGHT = 0.3, 0.3
CONVERGENCE_WEIGHT, STAGNATION_WEIGHT, INEFFECTIVENESS_WEIGHT = 0.4, 0.3, 0.3
THRESHOLD = 0.35


def _clip01(x: float) -> float:
    return max(0.0, min(1.0, x))


class TrajectorySignals(NamedTuple):
    convergence: float
    stagnation: float
    ineffectiveness: float


class CoverageSignals(NamedTuple):
    covered_calls: int
    total_calls: int
    coverage_confidence: float


class UncertaintyReport(NamedTuple):
    trajectory: TrajectorySignals
    coverage: CoverageSignals
    trajectory_risk: float
    coverage_risk: float
    combined: float
    filtered: bool


def normalize_statements(candidate: Candidate) -> frozenset[str]:
    """Whitespace-collapsed one-line forms of every statement, as a set.

    Block headers and nested statements each contribute one entry; comments
    and indentation width never survive normalization. An unparseable
    program contributes its stripped non-blank lines, so similarity still
    sees its text.
    """
    script = candidate.script
    if isinstance(script, SyntaxFailure):
        return frozenset(line.strip() for line in candidate.source.splitlines() if line.strip())
    out: set[str] = set()

    def walk(statements: tuple[Stmt, ...]) -> None:
        for s in statements:
            out.add(stmt_header(s))
            if isinstance(s, ForStmt):
                walk(s.body)
            elif isinstance(s, IfStmt):
                walk(s.body)
                walk(s.orelse)

    walk(script.statements)
    return frozenset(out)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


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
    sets = [normalize_statements(c) for c in candidates]
    sims = [jaccard(a, b) for a, b in zip(sets, sets[1:])]
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
    trajectory = compute_trajectory_signals(candidates, verdicts)
    coverage = compute_coverage(final, schema, evidence)
    trajectory_risk = (
        CONVERGENCE_WEIGHT * trajectory.convergence
        + STAGNATION_WEIGHT * trajectory.stagnation
        + INEFFECTIVENESS_WEIGHT * trajectory.ineffectiveness
    )
    coverage_risk = 1.0 - coverage.coverage_confidence
    combined = TRAJECTORY_WEIGHT * trajectory_risk + COVERAGE_WEIGHT * coverage_risk
    return UncertaintyReport(
        trajectory=trajectory,
        coverage=coverage,
        trajectory_risk=trajectory_risk,
        coverage_risk=coverage_risk,
        combined=combined,
        filtered=combined > THRESHOLD,
    )

"""Closed-form uncertainty scoring over a finished synthesis attempt.

Three signals, each in [0, 1]: stagnation and ineffectiveness read off how
the repair loop behaved, and coverage, the share of the program's calls
that retrieved evidence backs. A weighted sum of the two trajectory signals
and the uncovered share gives the combined uncertainty, in [0, 0.48];
anything above the threshold should be filtered rather than delivered.
Stagnation compares the statement sets of consecutive candidates, so those
sets are built only for a trajectory that had a repair.

There is no code axis and no convergence signal. The filter matters only
for an accepted program, and on those each would read 0: invalid imports,
unknown enum constants and unknown methods are layer-3 errors, and how far
the failure layer fell from the first verdict to the last is nil on every
trajectory that ends in a pass.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .qas.analysis import Candidate
from .qas.nodes import ForStmt, IfStmt, Stmt, stmt_header
from .qas.parser import SyntaxFailure
from .retrieval import EvidenceSet
from .verifier import VerdictReport

# Axis weights of the combined score, the trajectory-risk weights, and the
# filter threshold: a program scoring above THRESHOLD is withheld.
TRAJECTORY_WEIGHT, COVERAGE_WEIGHT = 0.3, 0.3
STAGNATION_WEIGHT, INEFFECTIVENESS_WEIGHT = 0.3, 0.3
THRESHOLD = 0.35


class UncertaintyReport(NamedTuple):
    stagnation: float
    ineffectiveness: float
    coverage: float
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
    blocks: list[tuple[Stmt, ...]] = [script.statements]
    while blocks:
        for s in blocks.pop():
            out.add(stmt_header(s))
            if isinstance(s, ForStmt):
                blocks.append(s.body)
            elif isinstance(s, IfStmt):
                blocks.extend((s.body, s.orelse))
    return frozenset(out)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def compute_trajectory_signals(
    candidates: Sequence[Candidate], verdicts: Sequence[VerdictReport]
) -> tuple[float, float]:
    """Risk read off the repair loop: (stagnation, ineffectiveness)."""
    if len(candidates) != len(verdicts) or not verdicts:
        raise ValueError("need one verdict per candidate")
    repairs = len(verdicts) - 1
    if repairs == 0:
        return 0.0, 0.0
    # A re-emitted program is the same candidate, so each set is built once.
    distinct = {c.source: c for c in candidates}
    normal = {source: normalize_statements(c) for source, c in distinct.items()}
    sets = [normal[c.source] for c in candidates]
    sims = [jaccard(a, b) for a, b in zip(sets, sets[1:])]
    flat = sum(1 for a, b in zip(verdicts, verdicts[1:]) if b.failure_layer >= a.failure_layer)
    return sum(sims) / len(sims), flat / repairs


def compute_coverage(candidate: Candidate, evidence: EvidenceSet) -> float:
    """Fraction of the calls type inference resolved to a schema method that
    retrieved documentation backs. This is the one place the package judges
    evidence coverage."""
    ts = candidate.typed
    if ts is None:
        return 0.0
    eligible = [cs for cs in ts.call_sites if cs.returns is not None]
    if not eligible:
        return 1.0
    covered = sum(
        1 for cs in eligible if evidence.covers(cs.receiver_type.base, cs.method)
    )
    return covered / len(eligible)


def compute_uncertainty(
    candidates: Sequence[Candidate],
    verdicts: Sequence[VerdictReport],
    evidence: EvidenceSet,
) -> UncertaintyReport:
    """Score a finished attempt; the final candidate is the delivered program."""
    stagnation, ineffectiveness = compute_trajectory_signals(candidates, verdicts)
    coverage = compute_coverage(candidates[-1], evidence)
    trajectory = STAGNATION_WEIGHT * stagnation + INEFFECTIVENESS_WEIGHT * ineffectiveness
    combined = TRAJECTORY_WEIGHT * trajectory + COVERAGE_WEIGHT * (1.0 - coverage)
    return UncertaintyReport(stagnation, ineffectiveness, coverage, combined, combined > THRESHOLD)

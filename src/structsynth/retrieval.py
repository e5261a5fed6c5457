"""TF-IDF retrieval over a corpus of API documentation cards.

Each card documents one API path. Ranking is a dot product between the
tf-idf query vector and L2-normalized tf-idf document vectors, with
idf = log((1 + N) / (1 + df)) + 1 so unseen tokens never blow up.
Snippets ride along for generators but are not indexed.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple

from .schema import ParseError, _strings, read_json

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


class ApiDoc(NamedTuple):
    doc_id: str
    api_path: str
    text: str
    tags: tuple[str, ...] = ()
    snippet: str = ""

    def index_text(self) -> str:
        return " ".join((self.api_path, self.text, " ".join(self.tags)))


class Hit(NamedTuple):
    doc_id: str
    score: float


class EvidenceSet(NamedTuple):
    """Retrieved documentation backing one generation attempt."""

    query: str
    hits: tuple[Hit, ...]
    docs: tuple[ApiDoc, ...]
    version: int = 1

    def doc_ids(self) -> frozenset[str]:
        return frozenset(h.doc_id for h in self.hits)

    def covers(self, type_name: str, method: str) -> bool:
        path = f"{type_name}.{method}"
        return any(d.api_path == path for d in self.docs)


def load_corpus(path: str | Path) -> tuple[ApiDoc, ...]:
    raw = read_json(path, "corpus")
    items = raw.get("docs") if isinstance(raw, dict) else None
    if not isinstance(items, list):
        raise ParseError("corpus document needs a 'docs' list")
    docs = []
    for item in items:
        if isinstance(item, dict):
            entry = f"bad corpus entry {item.get('id')!r}"
            if not _strings(item.get("tags", [])):
                raise ParseError(f"{entry}: 'tags' needs a list of strings")
            for key in ("id", "api_path", "text", "snippet"):
                if not isinstance(item.get(key, ""), str):
                    raise ParseError(f"{entry}: {key!r} needs a string")
        try:
            docs.append(
                ApiDoc(
                    doc_id=item["id"],
                    api_path=item["api_path"],
                    text=item["text"],
                    tags=tuple(item.get("tags", [])),
                    snippet=item.get("snippet", ""),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad corpus entry: {exc}") from exc
    ids = [d.doc_id for d in docs]
    if len(set(ids)) != len(ids):
        raise ParseError("corpus has duplicate doc ids")
    return tuple(docs)


class Retriever:
    """Immutable index over a doc corpus; every query is a pure function of it."""

    def __init__(self, docs: Iterable[ApiDoc]):
        self.docs = tuple(docs)
        self._by_id = {d.doc_id: d for d in self.docs}
        n = len(self.docs)
        df: Counter[str] = Counter()
        term_counts: list[Counter[str]] = []
        for doc in self.docs:
            counts = Counter(tokenize(doc.index_text()))
            term_counts.append(counts)
            df.update(counts.keys())
        self._idf = {t: math.log((1 + n) / (1 + d)) + 1 for t, d in df.items()}
        self._vectors: list[dict[str, float]] = []
        for counts in term_counts:
            weights = {t: c * self._idf[t] for t, c in counts.items()}
            norm = math.sqrt(sum(w * w for w in weights.values()))
            self._vectors.append({t: w / norm for t, w in weights.items()} if norm else {})

    def _score_vector(self, qcounts: Counter[str], idx: int) -> float:
        vec = self._vectors[idx]
        total = 0.0
        for t, c in qcounts.items():
            if t in vec:
                total += c * self._idf[t] * vec[t]
        return total

    def retrieve(
        self,
        query: str,
        k: int = 5,
        exclude: frozenset[str] = frozenset(),
        version: int = 1,
    ) -> EvidenceSet:
        """Top-k positive-score docs for the query, ties broken by doc id."""
        qcounts = Counter(tokenize(query))
        scored = []
        for idx, doc in enumerate(self.docs):
            if doc.doc_id in exclude:
                continue
            s = self._score_vector(qcounts, idx)
            if s > 0:
                scored.append(Hit(doc.doc_id, s))
        scored.sort(key=lambda h: (-h.score, h.doc_id))
        hits = tuple(scored[:k])
        return EvidenceSet(
            query=query,
            hits=hits,
            docs=tuple(self._by_id[h.doc_id] for h in hits),
            version=version,
        )

    def refresh(self, evidence: EvidenceSet, focus_query: str, k: int = 5) -> EvidenceSet:
        """Widen evidence with fresh docs for a focused query; version advances.

        Docs already held are excluded from the focused search, so the merge
        only ever grows the set. Hit order: old hits first, new ones appended.
        """
        fresh = self.retrieve(focus_query, k=k, exclude=evidence.doc_ids())
        hits = evidence.hits + fresh.hits
        return EvidenceSet(
            query=focus_query,
            hits=hits,
            docs=evidence.docs + fresh.docs,
            version=evidence.version + 1,
        )

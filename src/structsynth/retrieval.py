"""Retrieval of API documentation cards by the calls a task's contract names.

Each card documents one API path. The retriever indexes the corpus by path
and returns, for a dependency graph, the cards of every call the graph
names (``DepGraph.calls``), in the graph's order: evidence is conditioned
on the contract, not on the prompt's words (DocPrompting, Zhou et al.,
ICLR 2023). A path with no card is simply uncovered; a path may have
several cards.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

from .depgraph import DepGraph
from .schema import ApiSchema, ParseError, _strings, read_json


class ApiDoc(NamedTuple):
    doc_id: str
    api_path: str
    text: str
    tags: tuple[str, ...] = ()
    snippet: str = ""


class EvidenceSet(NamedTuple):
    """Documentation backing one generation attempt: the API paths asked for,
    in order, and the cards found for them."""

    paths: tuple[str, ...]
    docs: tuple[ApiDoc, ...]

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
    """Exact index over a doc corpus by API path; every lookup is a pure function of it."""

    def __init__(self, docs: Iterable[ApiDoc]):
        self._by_path: dict[str, list[ApiDoc]] = {}
        for doc in docs:
            self._by_path.setdefault(doc.api_path, []).append(doc)

    def _lookup(self, paths: tuple[str, ...]) -> EvidenceSet:
        return EvidenceSet(paths, tuple(d for p in paths for d in self._by_path.get(p, ())))

    def retrieve(self, graph: DepGraph, schema: ApiSchema) -> EvidenceSet:
        """The cards for every call the graph's contract names, in contract order."""
        return self._lookup(graph.calls(schema))

    # The loop never refreshes. The method stays because perfbench's
    # tracing.Tracer.install wraps it through Retriever.__dict__.
    def refresh(self, evidence: EvidenceSet, paths: Iterable[str]) -> EvidenceSet:
        """Widen evidence by the cards of more paths; a path already held adds nothing."""
        fresh = tuple(p for p in dict.fromkeys(paths) if p not in evidence.paths)
        return self._lookup(evidence.paths + fresh)

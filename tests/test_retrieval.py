from __future__ import annotations

import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsynth.fixtures import fixture_path
from structsynth.retrieval import ApiDoc, Retriever, load_corpus, tokenize
from structsynth.schema import ParseError


def naive_scores(corpus_path, query: str) -> dict[str, float]:
    """Independent reimplementation of the scoring convention, from raw JSON."""
    raw = json.loads(open(corpus_path).read())["docs"]
    texts = {
        d["id"]: " ".join((d["api_path"], d["text"], " ".join(d.get("tags", []))))
        for d in raw
    }
    toks = {i: re.findall(r"[a-z0-9]+", t.lower()) for i, t in texts.items()}
    n = len(raw)
    df: Counter[str] = Counter()
    for tlist in toks.values():
        df.update(set(tlist))
    idf = {t: math.log((1 + n) / (1 + d)) + 1 for t, d in df.items()}
    out = {}
    qcounts = Counter(re.findall(r"[a-z0-9]+", query.lower()))
    for doc_id, tlist in toks.items():
        counts = Counter(tlist)
        weights = {t: c * idf[t] for t, c in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        score = 0.0
        for t, c in qcounts.items():
            if t in weights and norm:
                score += c * idf[t] * (weights[t] / norm)
        out[doc_id] = score
    return out


def test_tokenize():
    assert tokenize("Block.findNet returns None!") == ["block", "findnet", "returns", "none"]
    assert tokenize("") == []


def test_load_corpus_counts(retriever):
    assert len(retriever.docs) == 8
    paths = {d.doc_id: d.api_path for d in retriever.docs}
    assert paths["b-findnet"] == "Block.findNet"


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    doc = {"id": "a", "api_path": "T.m", "text": "x"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"docs": [doc, doc]}))
    with pytest.raises(ParseError):
        load_corpus(path)


def test_snippet_is_not_indexed():
    docs = (
        ApiDoc("a", "T.one", "alpha", snippet="zebra zebra zebra"),
        ApiDoc("b", "T.two", "beta"),
    )
    r = Retriever(docs)
    assert r.retrieve("zebra").hits == ()


@pytest.mark.parametrize(
    "query",
    [
        "find a net by name",
        "set the weight of a net",
        "all instances in the block",
        "placement status placed",
    ],
)
def test_scores_match_independent_oracle(retriever, query):
    oracle = naive_scores(fixture_path("toy_corpus.json"), query)
    hits = retriever.retrieve(query, k=len(retriever.docs)).hits
    assert sorted(h.doc_id for h in hits) == sorted(d for d, s in oracle.items() if s > 0)
    for hit in hits:
        assert hit.score == pytest.approx(oracle[hit.doc_id], abs=1e-9)


def test_top_hit_find_net(retriever):
    ev = retriever.retrieve("find a net by name", k=3)
    assert ev.hits[0].doc_id == "b-findnet"
    assert ev.version == 1


def test_top_hit_set_weight(retriever):
    ev = retriever.retrieve("set the routing weight of a net", k=3)
    assert ev.hits[0].doc_id == "n-setweight"


def test_hits_sorted_and_positive(retriever):
    ev = retriever.retrieve("net block instance weight", k=8)
    scores = [h.score for h in ev.hits]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_retrieve_respects_k_and_exclude(retriever):
    full = retriever.retrieve("net", k=2)
    assert len(full.hits) <= 2
    without = retriever.retrieve("net", k=8, exclude=frozenset({full.hits[0].doc_id}))
    assert full.hits[0].doc_id not in without.doc_ids()


def test_evidence_covers(retriever):
    ev = retriever.retrieve("find a net by name", k=3)
    assert ev.covers("Block", "findNet")
    assert not ev.covers("Design", "frobnicate")


def test_refresh_merges_and_bumps_version(retriever):
    ev = retriever.retrieve("find a net by name", k=2)
    refreshed = retriever.refresh(ev, "placement status of an instance", k=2)
    assert refreshed.version == 2
    assert refreshed.query == "placement status of an instance"
    # old hits stay in front, nothing is dropped
    assert refreshed.hits[: len(ev.hits)] == ev.hits
    assert ev.doc_ids() <= refreshed.doc_ids()
    # the focused search cannot re-add held docs
    assert len(refreshed.hits) == len(refreshed.doc_ids())


def test_refresh_on_exhausted_corpus_adds_nothing(retriever):
    ev = retriever.retrieve("net block instance weight placement name design", k=8)
    refreshed = retriever.refresh(ev, "net block weight", k=8)
    assert refreshed.doc_ids() == ev.doc_ids()
    assert refreshed.version == ev.version + 1


_WORDS = st.lists(
    st.sampled_from(["net", "block", "weight", "placement", "find", "name", "zzz"]),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(_WORDS)
def test_retrieval_is_pure(retriever, words):
    query = " ".join(words)
    first = retriever.retrieve(query, k=4)
    second = retriever.retrieve(query, k=4)
    assert first == second
    assert len(first.hits) <= 4
    for h in first.hits:
        assert h.score > 0

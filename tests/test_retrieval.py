from __future__ import annotations

import json

import pytest

from structsynth.depgraph import DepGraph
from structsynth.extractors import PatternTableExtractor
from structsynth.fixtures import toy_corpus
from structsynth.qas.analysis import analyze
from structsynth.retrieval import ApiDoc, EvidenceSet, Retriever, load_corpus
from structsynth.schema import ParseError
from structsynth.uncertainty import compute_coverage
from suites import multis_suite, singles_suite, template_program


# Two named nets, both found by name and both weighted: the contract names
# Block.findNet and Net.setWeight twice each.
TWO_NETS = DepGraph.from_dict({
    "nodes": [{"id": "design", "type": "Design"}, {"id": "block", "type": "Block"},
              {"id": "clk", "type": "Net", "label": "name=clk"},
              {"id": "rst", "type": "Net", "label": "name=rst"},
              {"id": "w1", "kind": "action", "label": "setWeight(2)"},
              {"id": "w2", "kind": "action", "label": "setWeight(3)"}],
    "edges": [{"src": "design", "dst": "block", "via": "getBlock"},
              {"src": "block", "dst": "clk", "via": "findNet"},
              {"src": "block", "dst": "rst", "via": "findNet"},
              {"src": "clk", "dst": "w1", "kind": "dependency"},
              {"src": "rst", "dst": "w2", "kind": "dependency"}],
})


def test_load_corpus_counts():
    docs = toy_corpus()
    assert len(docs) == 8
    paths = {d.doc_id: d.api_path for d in docs}
    assert paths["b-findnet"] == "Block.findNet"


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    doc = {"id": "a", "api_path": "T.m", "text": "x"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"docs": [doc, doc]}))
    with pytest.raises(ParseError):
        load_corpus(path)


def test_snippet_is_not_indexed(schema):
    """A card is found by its API path alone, never by its text or snippet."""
    docs = (
        ApiDoc("a", "Design.getBlock", "Block.findNet", snippet="block.findNet(\"clk\")"),
        ApiDoc("b", "Net.setWeight", "beta"),
    )
    ev = Retriever(docs).retrieve(TWO_NETS, schema)
    assert [d.doc_id for d in ev.docs] == ["a", "b"]
    assert not ev.covers("Block", "findNet")


def test_evidence_covers(schema, retriever):
    g = PatternTableExtractor(schema).extract("Set the weight of net clk to 3", None, ())
    ev = retriever.retrieve(g, schema)
    assert ev.covers("Block", "findNet")
    assert not ev.covers("Design", "frobnicate")


def test_retrieve_lists_the_contract_in_order_once_each(schema, retriever):
    ev = retriever.retrieve(TWO_NETS, schema)
    assert ev.paths == ("Design.getBlock", "Block.findNet", "Net.setWeight")
    assert [d.doc_id for d in ev.docs] == ["d-getblock", "b-findnet", "n-setweight"]


def test_a_path_with_no_card_is_uncovered(schema):
    ev = Retriever((ApiDoc("n", "Net.setWeight", "set"),)).retrieve(TWO_NETS, schema)
    assert ev.paths == ("Design.getBlock", "Block.findNet", "Net.setWeight")
    assert [d.doc_id for d in ev.docs] == ["n"]
    assert not ev.covers("Design", "getBlock")
    assert ev.covers("Net", "setWeight")


def test_two_cards_on_one_path_both_come_back_in_corpus_order(schema):
    docs = (ApiDoc("w2", "Net.setWeight", "second"), ApiDoc("b", "Design.getBlock", "top"),
            ApiDoc("w1", "Net.setWeight", "first"))
    ev = Retriever(docs).retrieve(TWO_NETS, schema)
    assert [d.doc_id for d in ev.docs] == ["b", "w2", "w1"]


def test_refresh_widens_by_the_cards_of_new_paths_only(retriever):
    ev = retriever.refresh(EvidenceSet((), ()), ["Design.getBlock"])
    assert [d.doc_id for d in ev.docs] == ["d-getblock"]
    wider = retriever.refresh(ev, ["Block.getNets", "Design.getBlock", "Block.getNets", "T.none"])
    assert wider.paths == ("Design.getBlock", "Block.getNets", "T.none")
    assert [d.doc_id for d in wider.docs] == ["d-getblock", "b-getnets"]
    assert retriever.refresh(wider, wider.paths) == wider


def test_the_contract_backs_every_resolved_call_of_each_clean_program(schema, retriever):
    prompts = [t.prompt for t in singles_suite()] + [p for t in multis_suite() for p in t.steps]
    assert len(prompts) == 75
    for prompt in prompts:
        source, g = template_program(prompt, schema)
        candidate = analyze(source, schema)
        calls, evidence = g.calls(schema), retriever.retrieve(g, schema)
        for cs in candidate.typed.call_sites:
            if cs.returns is not None:
                assert f"{cs.receiver_type.base}.{cs.method}" in calls, (prompt, cs.method)
                assert evidence.covers(cs.receiver_type.base, cs.method), (prompt, cs.method)
        assert compute_coverage(candidate, evidence) == 1.0, prompt

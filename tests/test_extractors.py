"""Pattern-table extraction coverage and the scripted stub."""

from __future__ import annotations

import pytest

from doubles import ScriptedExtractor
from structsynth.depgraph import (
    DepGraph,
    ExtractorOutputError,
    NodeKind,
    graph_metrics,
    validate_graph,
)
from structsynth.extractors import PatternTableExtractor
from suites import singles_suite


@pytest.fixture(scope="module")
def suite():
    return singles_suite()


def test_every_suite_prompt_matches_its_reference_graph(schema, suite):
    extractor = PatternTableExtractor(schema)
    for task in suite:
        predicted = extractor.extract(task.prompt, None, ())
        metrics = graph_metrics(predicted, task.truth_graph)
        assert metrics.node_f1 == 1.0, task.task_id
        assert metrics.edge_f1 == 1.0, task.task_id
        assert metrics.exact_match, task.task_id


def test_every_suite_graph_validates(schema, suite):
    extractor = PatternTableExtractor(schema)
    for task in suite:
        predicted = extractor.extract(task.prompt, None, ())
        predicted.check_invariants()
        assert validate_graph(predicted, schema).ok, task.task_id


def test_action_prompts_produce_action_nodes(schema, suite):
    extractor = PatternTableExtractor(schema)
    for task in suite:
        predicted = extractor.extract(task.prompt, None, ())
        has_action = any(n.kind is NodeKind.ACTION for n in predicted.nodes)
        assert has_action == (task.kind == "action"), task.task_id


def test_set_weight_prompt_shape(schema):
    g = PatternTableExtractor(schema).extract("Set the weight of net clk to 3", None, ())
    by_kind = {n.id: n for n in g.nodes}
    assert by_kind["net"].label == "name=clk"
    actions = [n for n in g.nodes if n.kind is NodeKind.ACTION]
    assert len(actions) == 1
    assert actions[0].label == "setWeight(3)"


def test_name_phrasing_is_tolerated(schema):
    extractor = PatternTableExtractor(schema)
    plain = extractor.extract("Set the weight of net clk to 3", None, ())
    named = extractor.extract("Set the weight of net named clk to 3", None, ())
    called = extractor.extract("Set the weight of the net called clk to 3", None, ())
    assert plain.to_dict() == named.to_dict() == called.to_dict()


def test_unmatched_prompt_falls_back_to_listing_nets(schema):
    g = PatternTableExtractor(schema).extract("Do something inscrutable", None, ())
    types = {n.type_name for n in g.nodes}
    assert types == {"Design", "Block", "Net"}
    assert any(e.via_method == "getNets" for e in g.edges)


def test_extractor_ignores_feedback_but_stays_deterministic(schema):
    from structsynth.depgraph import Feedback

    extractor = PatternTableExtractor(schema)
    prompt = "Print the weight of net clk"
    a = extractor.extract(prompt, None, ())
    b = extractor.extract(prompt, a, (Feedback("x", "code", "msg"),))
    assert a.to_dict() == b.to_dict()


def test_scripted_extractor_replays_and_logs(schema):
    graph_doc = {
        "nodes": [
            {"id": "d", "kind": "object", "type": "Design"},
            {"id": "b", "kind": "object", "type": "Block"},
        ],
        "edges": [{"src": "d", "dst": "b", "kind": "acquisition", "via": "getBlock"}],
    }
    stub = ScriptedExtractor(responses=["garbage", graph_doc])
    with pytest.raises(ExtractorOutputError):
        stub.extract("p1", None, ())
    g = stub.extract("p2", None, ())
    assert isinstance(g, DepGraph)
    assert [c[0] for c in stub.calls] == ["p1", "p2"]
    again = stub.extract("p3", None, ())
    assert again.to_dict() == g.to_dict()


def test_scripted_extractor_accepts_graph_objects(schema):
    g = PatternTableExtractor(schema).extract("List all nets in the block", None, ())
    stub = ScriptedExtractor(responses=[g])
    assert stub.extract("p", None, ()) is g

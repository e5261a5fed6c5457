from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import ScriptedExtractor
from structsynth.depgraph import (
    DepGraph,
    EdgeKind,
    ExtractorFailure,
    ExtractorOutputError,
    Feedback,
    GraphEdge,
    GraphInvariantError,
    GraphNode,
    LabelElement,
    MAX_ROUNDS,
    NodeKind,
    extract_graph,
    graph_metrics,
    validate_graph,
)
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import GenerationRequest, TemplateGenerator
from structsynth.qas.analysis import analyze
from structsynth.qas.nodes import MAX_INT_DIGITS
from structsynth.verifier import L2_EDGE_UNREALIZED, verify_all, verify_causal


def obj(nid: str, type_name: str) -> GraphNode:
    return GraphNode(id=nid, kind=NodeKind.OBJECT, type_name=type_name)


def acq(src: str, dst: str, via: str | None = None) -> GraphEdge:
    return GraphEdge(src=src, dst=dst, kind=EdgeKind.ACQUISITION, via_method=via)


def dep(src: str, dst: str) -> GraphEdge:
    return GraphEdge(src=src, dst=dst, kind=EdgeKind.DEPENDENCY)


def spine(*, net_via: str = "getNets") -> DepGraph:
    return DepGraph(
        nodes=(obj("d", "Design"), obj("b", "Block"), obj("n", "Net")),
        edges=(acq("d", "b", "getBlock"), acq("b", "n", net_via)),
    )


# ---- invariants ----


def test_invariants_accept_spine():
    spine().check_invariants()


@pytest.mark.parametrize(
    "graph, fragment",
    [
        (
            DepGraph((obj("a", "Design"), obj("a", "Block")), ()),
            "duplicate node ids",
        ),
        (
            DepGraph((GraphNode("a", NodeKind.OBJECT),), ()),
            "no type name",
        ),
        (
            DepGraph((obj("a", "Design"),), (acq("a", "ghost"),)),
            "missing node",
        ),
        (
            DepGraph(
                (obj("a", "Design"), obj("b", "Block")),
                (acq("a", "b", "getBlock"), acq("a", "b", "getBlock")),
            ),
            "duplicate edge",
        ),
        (
            DepGraph(
                (obj("a", "Design"), GraphNode("c", NodeKind.CONDITION)),
                (acq("a", "c"),),
            ),
            "must connect object nodes",
        ),
        (
            DepGraph((GraphNode("act", NodeKind.ACTION),), ()),
            "no incoming dependency",
        ),
        (
            DepGraph(
                (obj("a", "Design"), obj("b", "Block")),
                (acq("a", "b"), acq("b", "a")),
            ),
            "cycle",
        ),
        (
            DepGraph(
                (obj("a", "Design"), obj("b", "Block"), obj("c", "Net")),
                (acq("a", "b"), acq("b", "c"), acq("c", "b")),
            ),
            "cycle",
        ),
    ],
)
def test_invariant_violations(graph, fragment):
    with pytest.raises(GraphInvariantError) as err:
        graph.check_invariants()
    assert any(fragment in p for p in err.value.problems)


def test_invariants_report_all_problems_at_once():
    graph = DepGraph(
        (GraphNode("a", NodeKind.OBJECT), GraphNode("act", NodeKind.ACTION)),
        (acq("a", "ghost"),),
    )
    with pytest.raises(GraphInvariantError) as err:
        graph.check_invariants()
    assert len(err.value.problems) == 3


def test_dict_round_trip():
    g = DepGraph(
        nodes=(obj("d", "Design"), GraphNode("act", NodeKind.ACTION, label="setWeight(2)")),
        edges=(dep("d", "act"),),
    )
    assert DepGraph.from_dict(g.to_dict()) == g


@pytest.mark.parametrize("key, node, edge", [
    ("type", {"type": ["Design"]}, {}),
    ("type", {"type": 7}, {}),
    ("via", {}, {"via": ["getBlock"]}),
    ("via", {}, {"via": {"m": 1}}),
])
def test_from_dict_rejects_a_type_or_via_that_is_not_a_string(key, node, edge):
    raw = {
        "nodes": [{"id": "d", "type": "Design", **node}, {"id": "b", "type": "Block"}],
        "edges": [{"src": "d", "dst": "b", "via": "getBlock", **edge}],
    }
    with pytest.raises(ExtractorOutputError, match=f"'{key}' must be a string"):
        DepGraph.from_dict(raw)


@pytest.mark.parametrize("key, node, edge", [
    ("id", {"id": 5}, {}),
    ("id", {"id": None}, {}),
    ("label", {"label": {"name": "clk"}}, {}),
    ("label", {"label": 3}, {}),
    ("src", {}, {"src": ["d"]}),
    ("dst", {}, {"dst": 7}),
])
def test_from_dict_rejects_an_id_label_src_or_dst_that_is_not_a_string(key, node, edge):
    raw = {
        "nodes": [{"id": "d", "type": "Design", **node}, {"id": "b", "type": "Block"}],
        "edges": [{"src": "d", "dst": "b", "via": "getBlock", **edge}],
    }
    with pytest.raises(ExtractorOutputError, match=f"'{key}' must be a string"):
        DepGraph.from_dict(raw)


def test_from_dict_reads_a_null_type_or_via_as_absent():
    raw = {"nodes": [{"id": "d", "type": None}, {"id": "b", "type": "Block"}],
           "edges": [{"src": "d", "dst": "b", "via": None}]}
    assert DepGraph.from_dict(raw) == DepGraph((obj("d", None), obj("b", "Block")),
                                               (acq("d", "b"),))


def test_edge_id_includes_via():
    assert DepGraph.edge_id(acq("a", "b")) == "a->b"
    assert DepGraph.edge_id(acq("a", "b", "getBlock")) == "a->b#getBlock"


# ---- validation ----


def findings(report) -> list[tuple[str, str]]:
    """Each feedback entry's (target, code), in report order."""
    return [(f.target, f.code) for f in report.feedback]


def test_validate_spine_is_ok(schema):
    report = validate_graph(spine(), schema)
    assert report.ok
    assert report.feedback == ()


def test_validate_flags_hallucinated_type(schema):
    g = DepGraph(
        nodes=(obj("d", "Design"), obj("w", "Widget")),
        edges=(acq("d", "w"),),
    )
    report = validate_graph(g, schema)
    assert not report.ok
    assert findings(report) == [("d->w", "invalid_transition"), ("w", "hallucinated_type")]


def test_validate_flags_unreachable_real_type(schema):
    g = DepGraph(nodes=(obj("d", "Design"), obj("n", "Net")), edges=())
    report = validate_graph(g, schema)
    assert not report.ok  # nothing acquires the Net, so its use would come before its definition
    assert findings(report) == [("n", "unreachable_type")]


def test_validate_unknown_method_edge(schema):
    g = DepGraph(
        nodes=(obj("d", "Design"), obj("b", "Block")),
        edges=(acq("d", "b", "frobnicate"),),
    )
    report = validate_graph(g, schema)
    assert not report.ok
    assert findings(report) == [("d->b#frobnicate", "unknown_method"), ("b", "unreachable_type")]


def test_validate_invalid_transition_suggests_intermediate(schema):
    # Design cannot reach Net directly; the unique shortest path inserts Block.
    g = DepGraph(nodes=(obj("d", "Design"), obj("n", "Net")), edges=(acq("d", "n"),))
    report = validate_graph(g, schema)
    assert not report.ok
    assert findings(report) == [
        ("d->n", "invalid_transition"), ("d->n", "missing_intermediate"), ("n", "unreachable_type")
    ]
    assert Feedback("d->n", "missing_intermediate", "insert Block between Design and Net") in (
        report.feedback)


def test_validate_dependency_edge_with_the_same_id_does_not_mask_an_invalid_one(schema):
    # Both edges have the id "d->n"; only the acquisition is checked against the schema.
    g = DepGraph(nodes=(obj("d", "Design"), obj("n", "Net")), edges=(acq("d", "n"), dep("d", "n")))
    report = validate_graph(g, schema)
    assert not report.ok
    assert findings(report) == [
        ("d->n", "invalid_transition"), ("d->n", "missing_intermediate"), ("n", "unreachable_type")
    ]


def test_validate_via_with_wrong_return_type(schema):
    g = DepGraph(nodes=(obj("d", "Design"), obj("n", "Net")), edges=(acq("d", "n", "getBlock"),))
    report = validate_graph(g, schema)
    assert not report.ok
    assert findings(report) == [
        ("d->n#getBlock", "invalid_transition"),
        ("d->n#getBlock", "missing_intermediate"),
        ("n", "unreachable_type"),
    ]


def test_validate_reachability_needs_ok_edges(schema):
    # The only path to Net goes through a broken edge, so Net is unreachable.
    g = DepGraph(
        nodes=(obj("d", "Design"), obj("b", "Block"), obj("n", "Net")),
        edges=(acq("d", "b", "frobnicate"), acq("b", "n", "getNets")),
    )
    report = validate_graph(g, schema)
    assert findings(report) == [
        ("d->b#frobnicate", "unknown_method"), ("b", "unreachable_type"), ("n", "unreachable_type")
    ]


# ---- iterative extraction ----


def test_extract_graph_accepts_first_valid(schema):
    ex = ScriptedExtractor([spine()])
    assert extract_graph("p", ex, schema) == spine()
    assert len(ex.calls) == 1


def test_extract_graph_feeds_back_and_retries(schema):
    bad = DepGraph(nodes=(obj("d", "Design"), obj("w", "Widget")), edges=(acq("d", "w"),))
    ex = ScriptedExtractor([bad, spine()])
    assert extract_graph("p", ex, schema) == spine()
    assert len(ex.calls) == 2
    _, second_feedback = ex.calls[1]
    assert any(f.code == "hallucinated_type" for f in second_feedback)


def test_extract_graph_invariant_errors_become_feedback(schema):
    broken = DepGraph((obj("a", "Design"),), (acq("a", "ghost"),))
    ex = ScriptedExtractor([broken, spine()])
    assert extract_graph("p", ex, schema) == spine()
    _, second_feedback = ex.calls[1]
    assert any(f.code == "graph_invariant" for f in second_feedback)


def test_extract_graph_two_unparseable_responses_fail(schema):
    ex = ScriptedExtractor(["junk", "junk"])
    with pytest.raises(ExtractorFailure):
        extract_graph("p", ex, schema)


def test_extract_graph_unparseable_streak_resets(schema):
    ex = ScriptedExtractor(["junk", spine()])
    assert extract_graph("p", ex, schema) == spine()
    assert len(ex.calls) == 2


def test_extract_graph_counts_a_mistyped_graph_document_as_unparseable(schema):
    mistyped = {"nodes": [{"id": "d", "type": "Design"}, {"id": "b", "type": "Block"}],
                "edges": [{"src": "d", "dst": "b", "via": ["getBlock"]}]}
    ex = ScriptedExtractor([mistyped, spine()])
    assert extract_graph("p", ex, schema) == spine()
    _, second_feedback = ex.calls[1]
    assert [f.code for f in second_feedback] == ["unparseable"]
    with pytest.raises(ExtractorFailure):
        extract_graph("p", ScriptedExtractor([mistyped]), schema)


def test_extract_graph_fails_naming_the_last_feedback_when_rounds_run_out(schema):
    bad = DepGraph(nodes=(obj("d", "Design"), obj("w", "Widget")), edges=(acq("d", "w"),))
    ex = ScriptedExtractor([bad])
    with pytest.raises(ExtractorFailure, match="hallucinated_type: type 'Widget' is not in"):
        extract_graph("p", ex, schema)
    assert len(ex.calls) == MAX_ROUNDS


def test_extract_graph_seed_feedback_reaches_first_call(schema):
    seed = (Feedback("", "reflection", "keep the block acquisition explicit"),)
    ex = ScriptedExtractor([spine()])
    extract_graph("p", ex, schema, seed_feedback=seed)
    _, first_feedback = ex.calls[0]
    assert seed[0] in first_feedback


# ---- metrics oracle ----
# Frozen by hand from the type-level set definitions.


def test_metrics_identical_graphs():
    m = graph_metrics(spine(), spine(net_via="findNet"))
    # via methods are invisible at type level
    assert (m.node_precision, m.node_recall, m.node_f1) == (1.0, 1.0, 1.0)
    assert (m.edge_precision, m.edge_recall, m.edge_f1) == (1.0, 1.0, 1.0)
    assert m.exact_match


def test_metrics_extra_predicted_node():
    pred = DepGraph(spine().nodes + (obj("t", "ITerm"),), spine().edges)
    m = graph_metrics(pred, spine())
    assert m.node_precision == 0.75
    assert m.node_recall == 1.0
    assert math.isclose(m.node_f1, 6 / 7, rel_tol=0, abs_tol=1e-12)
    assert m.edge_f1 == 1.0
    assert not m.exact_match


def test_metrics_missing_node():
    pred = DepGraph((obj("d", "Design"), obj("b", "Block")), (acq("d", "b", "getBlock"),))
    m = graph_metrics(pred, spine())
    assert m.node_precision == 1.0
    assert math.isclose(m.node_recall, 2 / 3, abs_tol=1e-12)
    assert math.isclose(m.node_f1, 0.8, abs_tol=1e-12)
    assert m.edge_precision == 1.0
    assert m.edge_recall == 0.5


def test_metrics_empty_prediction():
    m = graph_metrics(DepGraph((), ()), spine())
    assert m.node_precision == 1.0
    assert m.node_recall == 0.0
    assert m.node_f1 == 0.0
    assert not m.exact_match


def test_metrics_both_empty():
    m = graph_metrics(DepGraph((), ()), DepGraph((), ()))
    assert m.node_f1 == 1.0
    assert m.edge_f1 == 1.0
    assert m.exact_match


def test_metrics_edge_direction_matters():
    flipped = DepGraph(spine().nodes, (acq("b", "d"), acq("n", "b")))
    m = graph_metrics(flipped, spine())
    assert m.edge_precision == 0.0
    assert m.edge_recall == 0.0
    assert m.edge_f1 == 0.0


def test_metrics_edge_kind_matters():
    pred = DepGraph(
        (obj("d", "Design"), obj("b", "Block")),
        (GraphEdge("d", "b", EdgeKind.DEPENDENCY),),
    )
    truth = DepGraph(pred.nodes, (acq("d", "b"),))
    m = graph_metrics(pred, truth)
    assert m.edge_precision == 0.0


def test_metrics_kind_sensitive_nodes():
    pred = DepGraph((obj("d", "Design"), GraphNode("c", NodeKind.CONDITION)), ())
    truth = DepGraph((obj("d", "Design"), GraphNode("a", NodeKind.ACTION)), ())
    m = graph_metrics(pred, truth)
    assert m.node_precision == 0.5
    assert m.node_recall == 0.5
    assert m.node_f1 == 0.5


def test_metrics_same_type_nodes_collapse():
    pred = DepGraph((obj("n1", "Net"), obj("n2", "Net")), ())
    truth = DepGraph((obj("n", "Net"),), ())
    m = graph_metrics(pred, truth)
    assert m.node_f1 == 1.0
    assert m.exact_match


_TYPE_POOL = ("Design", "Block", "Net", "Inst", "Ghost", "Widget")


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    nodes = []
    for i in range(n):
        kind = draw(st.sampled_from(tuple(NodeKind)))
        type_name = draw(st.sampled_from(_TYPE_POOL)) if kind is NodeKind.OBJECT else None
        nodes.append(GraphNode(id=f"n{i}", kind=kind, type_name=type_name))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(tuple(EdgeKind)))
        edges.append(GraphEdge(src=f"n{a}", dst=f"n{b}", kind=kind))
    return DepGraph(tuple(nodes), tuple(edges))


@settings(max_examples=100, deadline=None)
@given(graphs(), graphs())
def test_metrics_symmetry(a, b):
    ab = graph_metrics(a, b)
    ba = graph_metrics(b, a)
    assert ab.node_precision == ba.node_recall
    assert ab.node_recall == ba.node_precision
    assert ab.edge_precision == ba.edge_recall
    assert math.isclose(ab.node_f1, ba.node_f1, abs_tol=1e-12)
    assert math.isclose(ab.edge_f1, ba.edge_f1, abs_tol=1e-12)
    assert ab.exact_match == ba.exact_match


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_metrics_self_comparison_is_perfect(g):
    m = graph_metrics(g, g)
    assert m.node_f1 == 1.0
    assert m.edge_f1 == 1.0
    assert m.exact_match


# ---- the contract's calls ----


def test_a_via_less_edge_is_realized_by_every_method_returning_its_target(schema):
    g = DepGraph(spine().nodes, (acq("d", "b", "getBlock"), acq("b", "n")))
    assert g.realizers(g.edges[1], schema) == ("findNet", "getNets")
    assert g.calls(schema) == ("Design.getBlock", "Block.findNet", "Block.getNets")

    def unrealized(source: str) -> list[str]:
        issues = verify_causal(analyze(source, schema).typed, g, schema)
        return [i.graph_region for i in issues if i.code == L2_EDGE_UNREALIZED]

    assert unrealized('block = design.getBlock()\nnet = block.findNet("clk")\n') == []
    assert unrealized("block = design.getBlock()\nnets = block.getNets()\n") == []
    assert unrealized("block = design.getBlock()\ninsts = block.getInsts()\n") == ["b->n"]
    # the generator renders the first realizer by name
    source = TemplateGenerator(schema).generate(GenerationRequest("p", g))
    assert source == 'b = design.getBlock()\nn = b.findNet("x")\n'


@pytest.mark.parametrize("prompt, calls", [
    ("Set the weight of net clk to 3", ("Design.getBlock", "Block.findNet", "Net.setWeight")),
    ("Mark instance u1 as placed",
     ("Design.getBlock", "Block.getInsts", "Inst.getName", "Inst.setPlacementStatus")),
    ("Print the weight of net clk", ("Design.getBlock", "Block.findNet", "Net.weight")),
    ("Count the nets", ("Design.getBlock", "Block.getNets")),
])
def test_calls_name_each_edge_action_condition_and_shown_member(schema, prompt, calls):
    assert PatternTableExtractor(schema).extract(prompt, None, ()).calls(schema) == calls


# ---- label elements: the contract's one reading ----


def labelled(prompt: str, schema, labels: dict[str, str], nodes=(), edges=()) -> DepGraph:
    """The extractor's graph for ``prompt``, with node labels replaced and nodes and
    edges (as graph-document entries) added."""
    raw = PatternTableExtractor(schema).extract(prompt, None, ()).to_dict()
    for n in raw["nodes"]:
        n["label"] = labels.get(n["id"], n.get("label", ""))
    raw["nodes"].extend(nodes)
    raw["edges"].extend(edges)
    return DepGraph.from_dict(raw)


def test_elements_resolve_every_token_to_its_owner_member_and_literal(schema):
    g = labelled("Mark instance u1 as placed", schema, {"inst": "name=u1 show=getName|count"})
    assert g.elements(schema) == (
        LabelElement("inst", "inst", "name", None, ('"u1"',)),
        LabelElement("inst", "inst", "show", "getName"),
        LabelElement("inst", "inst", "count", None),
        LabelElement("cond", "inst", "test", "getName", ('"u1"',)),
        LabelElement("act", "inst", "call", "setPlacementStatus", ("PlacementStatus.PLACED",),
                     guard="cond"),
    )


def test_an_attribute_shown_is_read_and_a_method_shown_is_called(schema):
    g = labelled("Print the names of all nets", schema, {"net": "show=weight|getName"})
    assert [el for el in g.elements(schema) if el.node == "net"] == [
        LabelElement("net", "net", "read", "weight"),
        LabelElement("net", "net", "show", "getName"),
    ]


# Validation reads a literal as the script's lexer and parser do, so a contract
# validates exactly when the program it renders passes L1-L3.
@pytest.mark.parametrize("prompt, labels, ok", [
    ("Set the weight of net clk to 3", {"act": "setWeight(-1)"}, True),
    ("Set the weight of net clk to 3", {"act": "setWeight(- 2)"}, True),
    ("Set the weight of net clk to 3", {"act": f"setWeight({'9' * MAX_INT_DIGITS})"}, True),
    ("Set the weight of net clk to 3", {"act": f"setWeight({'9' * (MAX_INT_DIGITS + 1)})"}, False),
    ("Set the weight of net clk to 3", {"act": 'setWeight(-"x")'}, False),
    ("Set the weight of net clk to 3", {"act": "setWeight(1.5)"}, False),
    ("Mark instance u1 as placed", {"cond": r"name=u\t1"}, True),
    ("Mark instance u1 as placed", {"cond": r"name=u\q1"}, False),
    # A comment leaves no token, so the argument's whole text must be the one token.
    ("Set the weight of net clk to 3", {"act": "setWeight(3 # three)"}, False),
], ids=["negative", "negative-spaced", "longest-int", "too-long-int", "negated-string", "float",
        "escaped-name", "bad-escape", "trailing-comment"])
def test_a_literal_validates_exactly_when_its_program_passes_l1_to_l3(schema, prompt, labels, ok):
    g = labelled(prompt, schema, labels)
    assert validate_graph(g, schema).ok is ok
    source = TemplateGenerator(schema).generate(GenerationRequest(prompt, g))
    assert verify_all(analyze(source, schema), g, schema, max_layer=3).passed is ok


# Each of these contracts validated while validation read no label, though no
# program can meet it; extraction now refuses it, naming the finding.
@pytest.mark.parametrize("prompt, labels, nodes, edges, finding", [
    ("Mark instance u1 as placed", {"cond": "status=PLACED"}, (), (),
     "unknown_member: Inst has no method 'getStatus'"),
    ("Print the weights of all nets", {"net": "show=frob"}, (), (),
     "unknown_member: Net has no method or attribute 'frob'"),
    ("Set the weight of net clk to 3", {"act": "frobnicate(3)"}, (), (),
     "unknown_member: Net has no method 'frobnicate'"),
    ("Print the weight of net clk", {},
     ({"id": "loose", "type": "Net", "label": "show=weight"},), (),
     "unreachable_type: Net is real but no valid acquisition path reaches it"),
    ("Print the names of all nets", {},
     ({"id": "cond", "kind": "condition", "label": "name=clk"},
      {"id": "act", "kind": "action", "label": "setWeight(2)"}),
     ({"src": "cond", "dst": "act", "kind": "dependency"},),
     "no_owner: condition 'cond' has no object node to act on; "
     "no_owner: action 'act' has no object node to act on"),
    ("Set the weight of net clk to 3", {"act": 'setWeight("x")'}, (), (),
     "bad_literal: Net.setWeight argument 'weight' expects int, got \"x\""),
    ("Set the weight of net clk to 3", {"act": "setWeight(1, 2)"}, (), (),
     "bad_arity: Net.setWeight takes 1 argument(s), got 2"),
    ("Mark all instances as firm", {"act": "setPlacementStatus(PlacementStatus.WIBBLE)"}, (), (),
     "bad_literal: Inst.setPlacementStatus argument 'status' expects PlacementStatus, "
     "got PlacementStatus.WIBBLE"),
    # A condition applies to the object it depends on; two tests go in one condition.
    ("Mark instance u1 as placed", {},
     ({"id": "cond2", "kind": "condition", "label": "name=u2"},
      {"id": "act2", "kind": "action", "label": "setPlacementStatus(PlacementStatus.FIRM)"}),
     ({"src": "cond", "dst": "cond2", "kind": "dependency"},
      {"src": "cond2", "dst": "act2", "kind": "dependency"}),
     "no_owner: condition 'cond2' has no object node to act on; "
     "no_owner: action 'act2' has no object node to act on"),
    # A condition with no key=value token tests nothing, so it cannot guard its action.
    ("Mark instance u1 as placed", {"cond": ""}, (), (),
     "no_test: condition 'cond' tests no key=value"),
    ("Mark instance u1 as placed", {"cond": "u1"}, (), (),
     "no_test: condition 'cond' tests no key=value"),
], ids=["condition-status", "show-frob", "action-frobnicate", "unacquired-net",
        "ownerless-condition", "string-weight", "two-weights", "unknown-constant",
        "condition-on-a-condition", "empty-condition", "condition-without-key"])
def test_extract_graph_refuses_a_contract_no_program_meets(schema, prompt, labels, nodes, edges,
                                                           finding):
    g = labelled(prompt, schema, labels, nodes, edges)
    with pytest.raises(ExtractorFailure, match=re.escape(f"rounds ({finding})")):
        extract_graph(prompt, ScriptedExtractor([g]), schema)

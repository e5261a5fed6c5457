from __future__ import annotations

import json

import pytest

from doubles import ScriptedGenerator
from structsynth.depgraph import DepGraph, EdgeKind, GraphEdge, GraphNode, NodeKind, validate_graph
from structsynth.extractors import PatternTableExtractor
from structsynth.fixtures import fixture_path, toy_snapshot
from structsynth.generators import (
    DEFECT_CODE,
    DefectKind,
    FaultInjectionGenerator,
    GenerationRequest,
    TemplateGenerator,
    apply_defect,
)
from structsynth.judges import RuleBasedJudge
from structsynth.qas.analysis import analyze
from structsynth.qas.parser import Script, parse
from structsynth.runtime import ExecStatus, Session
from structsynth.schema import schema_from_dict
from structsynth.verifier import verify_all


def gen(schema, graph) -> str:
    return TemplateGenerator(schema).generate(GenerationRequest(prompt="", graph=graph))


def extract(schema, prompt: str) -> DepGraph:
    return PatternTableExtractor(schema).extract(prompt, None, ())


def test_template_set_weight(schema):
    source = gen(schema, extract(schema, "Set the weight of net clk to 3"))
    assert source == (
        "block = design.getBlock()\n"
        'net = block.findNet("clk")\n'
        "if net != None:\n"
        "    net.setWeight(3)\n"
    )


def test_template_show_weight(schema):
    # weight is an attribute on Net, not a getter
    source = gen(schema, extract(schema, "Print the weight of net rst"))
    assert source == (
        "block = design.getBlock()\n"
        'net = block.findNet("rst")\n'
        "if net != None:\n"
        "    print(net.weight)\n"
    )


def test_template_count_nets(schema):
    source = gen(schema, extract(schema, "How many nets are there"))
    assert source == (
        "block = design.getBlock()\n"
        "count = 0\n"
        "for net in block.getNets():\n"
        "    count = count + 1\n"
        "print(count)\n"
    )


def test_template_mark_instance_qualifies_enum(schema):
    source = gen(schema, extract(schema, "Mark instance u1 as placed"))
    assert source == (
        "import odb\n"
        "block = design.getBlock()\n"
        "for inst in block.getInsts():\n"
        '    if inst.getName() == "u1":\n'
        "        inst.setPlacementStatus(odb.PlacementStatus.PLACED)\n"
    )


def test_template_mark_all(schema):
    source = gen(schema, extract(schema, "Mark all instances as firm"))
    assert source == (
        "import odb\n"
        "block = design.getBlock()\n"
        "for inst in block.getInsts():\n"
        "    inst.setPlacementStatus(odb.PlacementStatus.FIRM)\n"
    )


def test_template_root_node_uses_root_variable(schema):
    # The root-typed node is addressed by its session variable regardless of
    # node id; other nodes are named after their ids.
    g = DepGraph(
        nodes=(GraphNode("x", NodeKind.OBJECT, "Design"),
               GraphNode("y", NodeKind.OBJECT, "Block", label="show=getNets")),
        edges=(GraphEdge("x", "y", EdgeKind.ACQUISITION, "getBlock"),),
    )
    assert gen(schema, g) == "y = design.getBlock()\nprint(y.getNets())\n"


def test_template_output_always_parses(schema):
    prompts = [
        "List all nets",
        "Print the weights of all nets",
        "Count the instances in this block",
        "Print the name of instance u2",
        "Set the weight of net data to 7",
    ]
    for prompt in prompts:
        source = gen(schema, extract(schema, prompt))
        assert isinstance(parse(source), Script), prompt


def test_template_renders_unbound_node_honestly(schema):
    # A Net node with no acquisition edge leaves its variable undefined; the
    # causal layer must be able to see that.
    g = DepGraph(
        nodes=(GraphNode("n", NodeKind.OBJECT, "Net", label="show=getName"),
               GraphNode("a", NodeKind.ACTION, label="setWeight(1)")),
        edges=(GraphEdge("n", "a", EdgeKind.DEPENDENCY),),
    )
    source = gen(schema, g)
    verdict = verify_all(analyze(source, schema), None, schema)
    assert verdict.failure_layer == 2


def test_fault_injection_heals_after_repairs(schema):
    base = TemplateGenerator(schema)
    g = extract(schema, "Set the weight of net clk to 3")
    faulty = FaultInjectionGenerator(base, DefectKind.SYNTAX, schema, heal_after=2)
    first = faulty.generate(GenerationRequest(prompt="", graph=g))
    assert not isinstance(parse(first), Script)
    # a repair whose hints do not carry the defect's home code is a bare retry
    bare = faulty.generate(
        GenerationRequest(prompt="", graph=g, hints=("L2_USE_BEFORE_DEF: x",), previous=first)
    )
    assert bare == first
    diagnosis = ("L1_SYNTAX: unexpected '='",)
    second = faulty.generate(GenerationRequest(prompt="", graph=g, hints=diagnosis, previous=first))
    assert not isinstance(parse(second), Script)
    third = faulty.generate(GenerationRequest(prompt="", graph=g, hints=diagnosis, previous=second))
    assert isinstance(parse(third), Script)


def test_scripted_generator_replays_and_logs(schema):
    g = extract(schema, "List all nets")
    sg = ScriptedGenerator(["a = 1\n", "b = 2\n"])
    r1 = GenerationRequest(prompt="p", graph=g)
    assert sg.generate(r1) == "a = 1\n"
    assert sg.generate(r1) == "b = 2\n"
    assert sg.generate(r1) == "b = 2\n"  # repeats last when exhausted
    assert len(sg.requests) == 3


@pytest.mark.parametrize("kind", list(DefectKind))
def test_apply_defect_changes_source(schema, kind):
    prompt = {
        DefectKind.NULL_UNGUARDED: "Set the weight of net clk to 3",
        DefectKind.MISSING_ACTION: "Mark instance u1 as placed",
    }.get(kind, "Print the weight of net clk")
    clean = gen(schema, extract(schema, prompt))
    broken = apply_defect(clean, kind, schema)
    assert broken != clean


@pytest.mark.parametrize("kind", list(DefectKind))
def test_defect_layer_table(schema, kind):
    # the kind's home code is among the verdict's errors, at its failure layer
    prompt = {
        DefectKind.NULL_UNGUARDED: "Set the weight of net clk to 3",
        DefectKind.MISSING_ACTION: "Mark instance u1 as placed",
        DefectKind.MISSING_OUTPUT: "Print the names of all nets",
        DefectKind.TIMEOUT_LOOP: "Print the names of all nets",
    }.get(kind, "Print the weight of net clk")
    g = extract(schema, prompt)
    broken = apply_defect(gen(schema, g), kind, schema)
    candidate = analyze(broken, schema)
    verdict = verify_all(candidate, g, schema, judge=RuleBasedJudge(), prompt=prompt)
    home = [i for i in verdict.errors() if i.code == DEFECT_CODE[kind]]
    assert home and home[0].layer == verdict.failure_layer


def test_direct_actions_render_beside_a_condition(schema, snapshot):
    # Every instance is made FIRM, and u1, tested by the condition, then PLACED.
    raw = extract(schema, "Mark instance u1 as placed").to_dict()
    raw["nodes"].append({"id": "act0", "kind": "action",
                         "label": "setPlacementStatus(PlacementStatus.FIRM)"})
    raw["edges"].append({"src": "inst", "dst": "act0", "kind": "dependency"})
    g = DepGraph.from_dict(raw)
    assert validate_graph(g, schema).ok
    source = gen(schema, g)
    assert source == (
        "import odb\n"
        "block = design.getBlock()\n"
        "for inst in block.getInsts():\n"
        "    inst.setPlacementStatus(odb.PlacementStatus.FIRM)\n"
        '    if inst.getName() == "u1":\n'
        "        inst.setPlacementStatus(odb.PlacementStatus.PLACED)\n"
    )
    candidate = analyze(source, schema)
    assert verify_all(candidate, g, schema, judge=RuleBasedJudge(), prompt="p").passed
    session = Session(snapshot, schema)
    result = session.execute(candidate.script)
    assert (result.status, result.mutations) == (ExecStatus.OK, 3)
    statuses = [session.object(i).fields["placementStatus"] for i in ("i1", "i2")]
    assert [s.const for s in statuses] == ["PLACED", "FIRM"]


def test_an_action_that_also_depends_on_its_objects_condition_holds_only_under_it(
        schema, snapshot):
    # The action hangs off both the instance and the instance's condition: it is
    # still made only where the condition holds, once.
    raw = extract(schema, "Mark instance u1 as placed").to_dict()
    raw["edges"].append({"src": "inst", "dst": "act", "kind": "dependency"})
    g = DepGraph.from_dict(raw)
    assert validate_graph(g, schema).ok
    source = gen(schema, g)
    assert source == (
        "import odb\n"
        "block = design.getBlock()\n"
        "for inst in block.getInsts():\n"
        '    if inst.getName() == "u1":\n'
        "        inst.setPlacementStatus(odb.PlacementStatus.PLACED)\n"
    )
    candidate = analyze(source, schema)
    assert verify_all(candidate, g, schema, judge=RuleBasedJudge(), prompt="p").passed
    result = Session(snapshot, schema).execute(candidate.script)
    assert (result.status, result.mutations) == (ExecStatus.OK, 1)


def _status_schema():
    """The toy schema plus ``Inst.getPlacementStatus()``."""
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    raw["types"]["Inst"]["methods"]["getPlacementStatus"] = {"returns": {"base": "PlacementStatus"}}
    return schema_from_dict(raw)


def _shown_instances_where(label: str) -> DepGraph:
    return DepGraph.from_dict({
        "nodes": [{"id": "d", "type": "Design"}, {"id": "b", "type": "Block"},
                  {"id": "inst", "type": "Inst", "label": "show=getName"},
                  {"id": "c", "kind": "condition", "label": label}],
        "edges": [{"src": "d", "dst": "b", "via": "getBlock"},
                  {"src": "b", "dst": "inst", "via": "getInsts"},
                  {"src": "inst", "dst": "c", "kind": "dependency"}],
    })


def test_a_condition_renders_through_the_getter_its_key_names():
    schema = _status_schema()
    g = _shown_instances_where("placementStatus=PLACED")
    assert g.calls(schema) == (
        "Design.getBlock", "Block.getInsts", "Inst.getName", "Inst.getPlacementStatus")
    assert validate_graph(g, schema).ok
    source = gen(schema, g)
    assert source == (
        "import odb\n"
        "b = design.getBlock()\n"
        "for inst in b.getInsts():\n"
        "    if inst.getPlacementStatus() == odb.PlacementStatus.PLACED:\n"
        "        print(inst.getName())\n"
    )
    candidate = analyze(source, schema)
    assert verify_all(candidate, g, schema, judge=RuleBasedJudge(), prompt="p").passed
    # An instance's unset status reads as the enum's first constant, PLACED.
    result = Session(toy_snapshot(schema), schema).execute(candidate.script)
    assert (result.status, result.output) == (ExecStatus.OK, ("u1", "u2"))


def test_a_condition_with_two_tests_opens_one_if_for_each():
    schema = _status_schema()
    g = _shown_instances_where("name=u2 placementStatus=PLACED")
    assert validate_graph(g, schema).ok
    source = gen(schema, g)
    assert source == (
        "import odb\n"
        "b = design.getBlock()\n"
        "for inst in b.getInsts():\n"
        '    if inst.getName() == "u2":\n'
        "        if inst.getPlacementStatus() == odb.PlacementStatus.PLACED:\n"
        "            print(inst.getName())\n"
    )
    result = Session(toy_snapshot(schema), schema).execute(analyze(source, schema).script)
    assert (result.status, result.output) == (ExecStatus.OK, ("u2",))

from __future__ import annotations

import pytest

from doubles import ScriptedGenerator
from structsynth.depgraph import DepGraph, EdgeKind, GraphEdge, GraphNode, NodeKind
from structsynth.extractors import PatternTableExtractor
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

from __future__ import annotations

import pytest

from structsynth.depgraph import DepGraph, EdgeKind, GraphEdge, GraphNode, NodeKind
from structsynth.judges import Finding, JudgeVerdict, RuleBasedJudge, ScriptedJudge
from structsynth.qas.analysis import analyze
from structsynth.runtime import Session
from structsynth.verifier import (
    L1_SYNTAX,
    L2_EDGE_UNREALIZED,
    L2_NULL_UNGUARDED,
    L2_USE_BEFORE_DEF,
    L3_BAD_ARITY,
    L3_BAD_ATTRIBUTE,
    L3_INVALID_IMPORT,
    L3_NOT_IN_EVIDENCE,
    L3_NOT_ITERABLE,
    L3_UNKNOWN_ENUM,
    L3_UNKNOWN_METHOD,
    L4_JUDGE_UNAVAILABLE,
    Severity,
    verify_all,
)

CLEAN = (
    "block = design.getBlock()\n"
    'net = block.findNet("clk")\n'
    "if net != None:\n"
    "    print(net.getName())\n"
)


def spine() -> DepGraph:
    return DepGraph(
        nodes=(
            GraphNode("d", NodeKind.OBJECT, "Design"),
            GraphNode("b", NodeKind.OBJECT, "Block"),
            GraphNode("n", NodeKind.OBJECT, "Net", label="name=clk show=getName"),
        ),
        edges=(
            GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock"),
            GraphEdge("b", "n", EdgeKind.ACQUISITION, "findNet"),
        ),
    )


def test_clean_program_passes_all_layers(schema):
    verdict = verify_all(
        analyze(CLEAN, schema), spine(), schema, judge=RuleBasedJudge(), prompt="show clk"
    )
    assert verdict.passed
    assert verdict.failure_layer == 0
    assert verdict.layers_run == (1, 2, 3, 4)
    assert verdict.errors() == ()
    assert set(verdict.timings) == {"L1", "L2", "L3", "L4"}


def test_syntax_error_stops_at_layer_one(schema):
    verdict = verify_all(analyze("x = = 1\n", schema), spine(), schema)
    assert not verdict.passed
    assert verdict.failure_layer == 1
    assert verdict.layers_run == (1,)
    assert verdict.codes() == (L1_SYNTAX,)
    assert verdict.errors()[0].location is not None


def test_undefined_use_fails_layer_two(schema):
    verdict = verify_all(analyze("ghost.getName()\n", schema), None, schema)
    assert verdict.failure_layer == 2
    assert L2_USE_BEFORE_DEF in verdict.codes()


def test_unguarded_nullable_call_fails_layer_two(schema):
    src = 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(2)\n'
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 2
    assert L2_NULL_UNGUARDED in verdict.codes()


def test_unguarded_nullable_attribute_read_fails_layer_two(schema):
    src = 'block = design.getBlock()\nnet = block.findNet("clk")\nprint(net.weight)\n'
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 2
    assert L2_NULL_UNGUARDED in verdict.codes()


def test_unrealized_edge_fails_layer_two_with_region(schema):
    src = "block = design.getBlock()\nprint(block)\n"
    verdict = verify_all(analyze(src, schema), spine(), schema)
    assert verdict.failure_layer == 2
    issue = next(i for i in verdict.errors() if i.code == L2_EDGE_UNREALIZED)
    assert issue.graph_region == "b->n#findNet"


def test_out_of_order_realization_fails_layer_two(schema):
    # The Net acquisition runs before the Block acquisition it depends on.
    src = (
        'net = ghost.findNet("clk")\n'
        "block = design.getBlock()\n"
    )
    g = spine()
    verdict = verify_all(analyze(src, schema), g, schema)
    assert verdict.failure_layer == 2


def test_unknown_method_fails_layer_three(schema):
    src = "block = design.getBlock()\nblock.frobnicate()\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_UNKNOWN_METHOD in verdict.codes()


def test_unknown_method_blames_graph_region(schema):
    # Graph must be fully realized so layer 2 passes and layer 3 runs.
    g = DepGraph(
        nodes=(GraphNode("d", NodeKind.OBJECT, "Design"),
               GraphNode("b", NodeKind.OBJECT, "Block")),
        edges=(GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock"),),
    )
    src = "block = design.getBlock()\nblock.frobnicate()\n"
    verdict = verify_all(analyze(src, schema), g, schema)
    issue = next(i for i in verdict.errors() if i.code == L3_UNKNOWN_METHOD)
    assert issue.graph_region == "d->b#getBlock"


def test_bad_arity_fails_layer_three(schema):
    src = "block = design.getBlock()\nblock.findNet()\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_BAD_ARITY in verdict.codes()


def test_bad_attribute_fails_layer_three(schema):
    src = "block = design.getBlock()\nfor net in block.getNets():\n    print(net.ghost)\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_BAD_ATTRIBUTE in verdict.codes()


def test_invalid_import_fails_layer_three(schema):
    verdict = verify_all(analyze("import pandas\nx = 1\n", schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_INVALID_IMPORT in verdict.codes()


def test_unknown_enum_fails_layer_three(schema):
    src = "import odb\nx = odb.PlacementStatus.WIBBLE\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_UNKNOWN_ENUM in verdict.codes()


def test_len_of_scalar_fails_layer_three(schema):
    src = "block = design.getBlock()\nprint(len(block))\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3


def test_len_of_string_passes_layer_three_as_it_runs(schema, snapshot):
    src = 'print(len("abc"))\n'
    assert verify_all(analyze(src, schema), None, schema).passed
    assert Session(snapshot, schema).execute(src).output == ("3",)
    verdict = verify_all(analyze("print(len(5))\n", schema), None, schema)
    assert verdict.failure_layer == 3
    assert verdict.codes() == (L3_BAD_ARITY,)


@pytest.mark.parametrize(
    "src, code, runtime_kind",
    [
        ("for i in range(range(3)):\n    print(i)\n", L3_BAD_ARITY, "TypeError"),
        ('x = "ab"\nfor c in x:\n    print(c)\n', L3_NOT_ITERABLE, "TypeError"),
        ("block = design.getBlock()\nfor x in block:\n    print(x)\n", L3_NOT_ITERABLE,
         "TypeError"),
        ('x = "ab"\nprint(x.getName())\n', L3_UNKNOWN_METHOD, "UnknownMethod"),
        ("print(design.getBlock().getNets().getName())\n", L3_UNKNOWN_METHOD,
         "UnknownMethod"),
    ],
    ids=["range-of-range", "for-over-string", "for-over-object", "method-on-string",
         "method-on-collection"],
)
def test_layer_three_rejects_what_fails_at_runtime(schema, snapshot, src, code, runtime_kind):
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert verdict.codes() == (code,)
    assert Session(snapshot, schema).execute(src).error_kind == runtime_kind


def test_evidence_gap_is_warning_only(schema, retriever):
    evidence = retriever.retrieve("zzz nothing matches", k=5)
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, evidence=evidence)
    assert verdict.passed
    warning_codes = {w.code for w in verdict.warnings()}
    assert L3_NOT_IN_EVIDENCE in warning_codes


def test_evidence_coverage_silences_warning(schema, retriever):
    evidence = retriever.retrieve("block net find name weight design", k=8)
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, evidence=evidence)
    covered = {w.code for w in verdict.warnings()}
    assert L3_NOT_IN_EVIDENCE not in covered


def test_judge_rejection_fails_layer_four(schema):
    judge = ScriptedJudge([JudgeVerdict(ok=False, findings=(Finding("L4_X", "wrong"),))])
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.failure_layer == 4
    assert verdict.codes() == ("L4_X",)


def test_judge_ok_findings_become_warnings(schema):
    judge = ScriptedJudge([JudgeVerdict(ok=True, findings=(Finding("L4_NOTE", "style"),))])
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.passed
    assert {w.code for w in verdict.warnings()} == {"L4_NOTE"}


def test_judge_crash_is_warning(schema):
    judge = ScriptedJudge([])  # empty script raises JudgeFailure
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.passed
    assert {w.code for w in verdict.warnings()} == {L4_JUDGE_UNAVAILABLE}


def test_layer_four_skipped_without_judge_or_graph(schema):
    clean = analyze(CLEAN, schema)
    assert verify_all(clean, spine(), schema).layers_run == (1, 2, 3)
    assert verify_all(clean, None, schema, judge=RuleBasedJudge()).layers_run == (1, 2, 3)


def test_max_layer_truncates_pipeline(schema):
    src = "block = design.getBlock()\nblock.frobnicate()\n"
    verdict = verify_all(analyze(src, schema), None, schema, max_layer=2)
    assert verdict.passed
    assert verdict.layers_run == (1, 2)
    verdict = verify_all(analyze(src, schema), None, schema, max_layer=1)
    assert verdict.passed
    assert verdict.layers_run == (1,)


def test_layer_stop_means_later_layers_never_run(schema):
    src = "ghost.frobnicate()\n"  # both an L2 and a would-be L3 problem
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 2
    assert 3 not in verdict.layers_run
    assert all(i.layer <= 2 for i in verdict.issues)


def test_codes_fingerprint_is_sorted_multiset(schema):
    src = "ghost.getName()\nwraith.getName()\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.codes() == (L2_USE_BEFORE_DEF, L2_USE_BEFORE_DEF)


def test_rule_based_judge_requires_mutation_for_actions(schema):
    g = DepGraph(
        nodes=(
            GraphNode("d", NodeKind.OBJECT, "Design"),
            GraphNode("b", NodeKind.OBJECT, "Block"),
            GraphNode("n", NodeKind.OBJECT, "Net"),
            GraphNode("a", NodeKind.ACTION, label="setWeight(2)"),
        ),
        edges=(
            GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock"),
            GraphEdge("b", "n", EdgeKind.ACQUISITION, "findNet"),
            GraphEdge("n", "a", EdgeKind.DEPENDENCY),
        ),
    )
    reads_only = (
        "block = design.getBlock()\n"
        'net = block.findNet("clk")\n'
        "if net != None:\n"
        "    print(net.getName())\n"
    )
    verdict = verify_all(analyze(reads_only, schema), g, schema, judge=RuleBasedJudge())
    assert verdict.failure_layer == 4
    assert verdict.codes() == ("L4_INCOMPLETE",)


def test_rule_based_judge_requires_output_for_queries(schema):
    silent = "block = design.getBlock()\nnoop = 0\n"
    g = DepGraph(
        nodes=(
            GraphNode("d", NodeKind.OBJECT, "Design"),
            GraphNode("b", NodeKind.OBJECT, "Block"),
        ),
        edges=(GraphEdge("d", "b", EdgeKind.ACQUISITION, "getBlock"),),
    )
    verdict = verify_all(analyze(silent, schema), g, schema, judge=RuleBasedJudge())
    assert verdict.failure_layer == 4
    assert verdict.codes() == ("L4_NO_OUTPUT",)


def test_warnings_never_set_failure_layer(schema, retriever):
    evidence = retriever.retrieve("zzz", k=5)
    judge = ScriptedJudge([JudgeVerdict(ok=True, findings=(Finding("L4_NOTE", "n"),))])
    verdict = verify_all(
        analyze(CLEAN, schema), spine(), schema, evidence=evidence, judge=judge
    )
    assert verdict.passed
    assert verdict.failure_layer == 0
    assert len(verdict.warnings()) >= 1

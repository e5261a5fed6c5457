from __future__ import annotations

import hashlib
import json

import pytest

from doubles import ScriptedJudge
from structsynth.depgraph import (
    DepGraph,
    EdgeKind,
    GraphEdge,
    GraphNode,
    NodeKind,
    extract_graph,
)
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import DefectKind, apply_defect
from structsynth.judges import Finding, JudgeVerdict, RuleBasedJudge
from structsynth.qas.analysis import analyze
from structsynth.fixtures import fixture_path
from structsynth.runtime import ExecStatus, Session
from structsynth.schema import schema_from_dict
from structsynth.verifier import (
    L1_SYNTAX,
    L2_EDGE_UNREALIZED,
    L2_NULL_UNGUARDED,
    L2_USE_BEFORE_DEF,
    L3_BAD_ARG_TYPE,
    L3_BAD_ARITY,
    L3_BAD_ATTRIBUTE,
    L3_BAD_OPERAND,
    L3_INVALID_IMPORT,
    L3_NOT_ITERABLE,
    L3_UNKNOWN_ENUM,
    L3_UNKNOWN_METHOD,
    L4_JUDGE_UNAVAILABLE,
    L4_STEP_BOUND,
    Severity,
    verify_all,
)
from suites import singles_suite, template_program

CLEAN = (
    "block = design.getBlock()\n"
    'net = block.findNet("clk")\n'
    "if net != None:\n"
    "    print(net.getName())\n"
)


def error_codes(verdict) -> tuple[str, ...]:
    """The verdict's error codes as a sorted multiset, so verdicts compare by value."""
    return tuple(sorted(i.code for i in verdict.errors()))


def warning_codes(verdict) -> set[str]:
    return {i.code for i in verdict.issues if i.severity is Severity.WARNING}


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


def test_syntax_error_stops_at_layer_one(schema):
    verdict = verify_all(analyze("x = = 1\n", schema), spine(), schema)
    assert not verdict.passed
    assert verdict.failure_layer == 1
    assert verdict.layers_run == (1,)
    assert error_codes(verdict) == (L1_SYNTAX,)
    assert verdict.errors()[0].location is not None


def test_undefined_use_fails_layer_two(schema):
    verdict = verify_all(analyze("ghost.getName()\n", schema), None, schema)
    assert verdict.failure_layer == 2
    assert L2_USE_BEFORE_DEF in error_codes(verdict)


def test_unguarded_nullable_call_fails_layer_two(schema):
    src = 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(2)\n'
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 2
    assert L2_NULL_UNGUARDED in error_codes(verdict)


def test_unguarded_nullable_attribute_read_fails_layer_two(schema):
    src = 'block = design.getBlock()\nnet = block.findNet("clk")\nprint(net.weight)\n'
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 2
    assert L2_NULL_UNGUARDED in error_codes(verdict)


def test_unrealized_edge_fails_layer_two_with_region(schema):
    src = "block = design.getBlock()\nprint(block)\n"
    verdict = verify_all(analyze(src, schema), spine(), schema)
    assert verdict.failure_layer == 2
    issue = next(i for i in verdict.errors() if i.code == L2_EDGE_UNREALIZED)
    assert issue.graph_region == "b->n#findNet"


def test_out_of_order_realization_fails_layer_two(schema):
    # The Net acquisition runs before the Block acquisition it depends on, so
    # blk has no type where findNet is called and the call realizes no edge.
    src = 'net = blk.findNet("clk")\nblk = design.getBlock()\n'
    verdict = verify_all(analyze(src, schema), spine(), schema)
    assert verdict.failure_layer == 2
    assert error_codes(verdict) == (L2_EDGE_UNREALIZED, L2_USE_BEFORE_DEF)
    (unrealized,) = (i for i in verdict.errors() if i.code == L2_EDGE_UNREALIZED)
    assert unrealized.message == "no call realizes Block->Net via findNet"


def test_loop_carried_acquisition_passes_layer_two(schema, snapshot):
    # findNet stands before getBlock in the text, but the guard keeps it from
    # running until getBlock has, so it runs ok and L2 accepts it.
    src = (
        "blk = None\n"
        "for i in range(2):\n"
        "    if blk != None:\n"
        '        net = blk.findNet("clk")\n'
        "    blk = design.getBlock()\n"
    )
    graph = extract_graph("Print the weight of net clk", PatternTableExtractor(schema), schema)
    verdict = verify_all(analyze(src, schema), graph, schema, max_layer=3)
    assert verdict.passed and verdict.layers_run == (1, 2, 3)
    assert Session(snapshot, schema).execute(src).status is ExecStatus.OK


def test_unknown_method_fails_layer_three(schema):
    src = "block = design.getBlock()\nblock.frobnicate()\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_UNKNOWN_METHOD in error_codes(verdict)


def test_bad_arity_fails_layer_three(schema):
    src = "block = design.getBlock()\nblock.findNet()\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_BAD_ARITY in error_codes(verdict)


def test_bad_attribute_fails_layer_three(schema):
    src = "block = design.getBlock()\nfor net in block.getNets():\n    print(net.ghost)\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_BAD_ATTRIBUTE in error_codes(verdict)


def test_invalid_import_fails_layer_three(schema):
    verdict = verify_all(analyze("import pandas\nx = 1\n", schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_INVALID_IMPORT in error_codes(verdict)


def test_unknown_enum_fails_layer_three(schema):
    src = "import odb\nx = odb.PlacementStatus.WIBBLE\n"
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert L3_UNKNOWN_ENUM in error_codes(verdict)


# Programs that name an import, enum constant or method the schema lacks, with
# every code layer 3 reports for them: one per fabricated name.
FABRICATED = {
    "import-unknown-module": ("import foo\nblock = design.getBlock()\n", (L3_INVALID_IMPORT,)),
    "import-type-name": ("import Net\nblock = design.getBlock()\n", (L3_INVALID_IMPORT,)),
    "unknown-module-enum": ("import foo\nstatus = foo.Bogus.NOPE\nblock = design.getBlock()\n",
                            (L3_INVALID_IMPORT, L3_UNKNOWN_ENUM)),
    "unknown-method": ("import foo\nblock = design.getBlock()\nblock.getBogus()\n",
                       (L3_INVALID_IMPORT, L3_UNKNOWN_METHOD)),
    "one-of-each-twice": ("import foo\nimport bar\nx = foo.A.B\ny = bar.C.D\ndesign.getBogus()\n",
                          (L3_INVALID_IMPORT, L3_INVALID_IMPORT, L3_UNKNOWN_ENUM,
                           L3_UNKNOWN_ENUM, L3_UNKNOWN_METHOD)),
}


@pytest.mark.parametrize("src, codes", FABRICATED.values(), ids=FABRICATED.keys())
def test_layer_three_reports_every_fabricated_name(schema, src, codes):
    verdict = verify_all(analyze(src, schema), None, schema)
    assert verdict.failure_layer == 3
    assert error_codes(verdict) == codes


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
    assert error_codes(verdict) == (L3_BAD_ARITY,)


_GUARDED_NET = 'block = design.getBlock()\nnet = block.findNet("clk")\nif net != None:\n'

# Programs that passed L1-L3 and then failed at runtime, each with the code that
# now rejects it and the runtime's error kind. ``net.setPeer`` takes a Net.
HOLES = [
    ("range-of-range", "for i in range(range(3)):\n    print(i)\n", L3_BAD_ARITY, "TypeError"),
    ("for-over-string", 'x = "ab"\nfor c in x:\n    print(c)\n', L3_NOT_ITERABLE, "TypeError"),
    ("for-over-object", "block = design.getBlock()\nfor x in block:\n    print(x)\n",
     L3_NOT_ITERABLE, "TypeError"),
    ("method-on-string", 'x = "ab"\nprint(x.getName())\n', L3_UNKNOWN_METHOD, "UnknownMethod"),
    ("method-on-collection", "print(design.getBlock().getNets().getName())\n",
     L3_UNKNOWN_METHOD, "UnknownMethod"),
    ("attribute-on-string", 'x = "ab"\nprint(x.name)\n', L3_BAD_ATTRIBUTE, "BadAttribute"),
    ("attribute-on-collection", "print(design.getBlock().getNets().name)\n", L3_BAD_ATTRIBUTE,
     "BadAttribute"),
    ("method-on-enum", "import odb\nx = odb.PlacementStatus.PLACED\nprint(x.getName())\n",
     L3_UNKNOWN_METHOD, "UnknownMethod"),
    ("for-over-module", "import odb\nfor x in odb:\n    print(x)\n", L3_NOT_ITERABLE,
     "TypeError"),
    ("string-for-int-argument",
     'for net in design.getBlock().getNets():\n    net.setWeight("heavy")\n', L3_BAD_ARG_TYPE,
     "TypeError"),
    ("index-object", "block = design.getBlock()\nprint(block[0])\n", L3_BAD_OPERAND,
     "TypeError"),
    ("module-member", "import odb\nx = odb.Bogus\n", L3_UNKNOWN_ENUM, "EnumError"),
    ("module-attribute", "import odb\nprint(odb.name)\n", L3_UNKNOWN_ENUM, "EnumError"),
    ("for-over-enum", "import odb\nfor x in odb.PlacementStatus:\n    print(x)\n",
     L3_NOT_ITERABLE, "TypeError"),
    ("attribute-on-none", "x = None\nprint(x.name)\n", L2_NULL_UNGUARDED, "NullAccess"),
    ("method-on-none", "x = None\nx.getName()\n", L2_NULL_UNGUARDED, "NullAccess"),
    ("order-object", "block = design.getBlock()\nprint(block < 3)\n", L3_BAD_OPERAND,
     "TypeError"),
    ("string-plus-int", 'x = "a" + 1\n', L3_BAD_OPERAND, "TypeError"),
    ("call-int", "x = 3\nx()\n", L3_BAD_OPERAND, "NameError"),
    ("negate-string", 'print(-"a")\n', L3_BAD_OPERAND, "TypeError"),
    ("index-with-string", 'x = "ab"\nprint(x["a"])\n', L3_BAD_OPERAND, "TypeError"),
    ("call-result", "design.getBlock()()\n", L3_BAD_OPERAND, "TypeError"),
    ("method-on-module", "import odb\nodb.foo()\n", L3_UNKNOWN_METHOD, "UnknownMethod"),
    ("attribute-on-void", _GUARDED_NET + "    x = net.setWeight(1)\n    print(x.name)\n",
     L2_NULL_UNGUARDED, "NullAccess"),
    ("enum-namespace-member", "import odb\nx = odb.PlacementStatus\nprint(x.BOGUS)\n",
     L3_UNKNOWN_ENUM, "EnumError"),
    ("nullable-argument", _GUARDED_NET + '    net.setPeer(block.findNet("zz"))\n',
     L3_BAD_ARG_TYPE, "TypeError"),
    ("import-type", "import Net\nx = 1\n", L3_INVALID_IMPORT, "ImportError"),
    ("import-unknown-enum", "import odb.Ghost\nprint(1)\n", L3_INVALID_IMPORT, "ImportError"),
    ("import-unknown-constant", "import odb.PlacementStatus.BOGUS\nprint(1)\n",
     L3_INVALID_IMPORT, "ImportError"),
    ("unbound-enum-chain", "x = odb.PlacementStatus.PLACED\n", L2_USE_BEFORE_DEF, "NameError"),
    ("range-of-quotient", "for i in range(4 / 2):\n    print(i)\n", L3_BAD_ARITY,
     "TypeError"),
    ("none-on-one-path", "x = None\nif 1 > 2:\n    x = design.getBlock()\nprint(x.getNets())\n",
     L2_NULL_UNGUARDED, "NullAccess"),
    ("loop-carried-type",
     'count = 0\nfor n in design.getBlock().getNets():\n    print(count + 1)\n    count = "s"\n',
     L3_BAD_OPERAND, "TypeError"),
]


@pytest.mark.parametrize("src, code, runtime_kind", [h[1:] for h in HOLES],
                         ids=[h[0] for h in HOLES])
def test_layer_three_rejects_what_fails_at_runtime(peer_schema, peer_snapshot, src, code,
                                                  runtime_kind):
    verdict = verify_all(analyze(src, peer_schema), None, peer_schema)
    assert verdict.failure_layer == int(code[1])
    assert error_codes(verdict) == (code,)
    assert Session(peer_snapshot, peer_schema).execute(src).error_kind == runtime_kind


_FIND = 'block = design.getBlock()\nnet = block.findNet("{}")\n'

# Programs with an else branch, each with its L1-L3 codes and how it ends at
# runtime: "ok", or the runtime's error kind.
ELSE_BRANCHES = [
    ("none-test-narrows-else",
     _FIND.format("clk") + 'if net == None:\n    print("none")\nelse:\n    print(net.weight)\n',
     (), "ok"),
    ("not-none-test-leaves-else-nullable",
     _FIND.format("ghost") + 'if net != None:\n    print("found")\nelse:\n    print(net.weight)\n',
     (L2_NULL_UNGUARDED,), "NullAccess"),
    ("assigned-in-one-branch", 'if 1 > 2:\n    y = 1\nelse:\n    print("no")\nprint(y)\n',
     (L2_USE_BEFORE_DEF,), "NameError"),
    ("types-differ-by-branch",
     "if 1 > 2:\n    x = design.getBlock()\nelse:\n    x = 3\nprint(x.getNets())\n",
     (L3_UNKNOWN_METHOD,), "UnknownMethod"),
]


@pytest.mark.parametrize("src, codes, outcome", [b[1:] for b in ELSE_BRANCHES],
                         ids=[b[0] for b in ELSE_BRANCHES])
def test_else_branch_verdict_agrees_with_the_runtime(schema, snapshot, src, codes, outcome):
    assert error_codes(verify_all(analyze(src, schema), None, schema)) == codes
    result = Session(snapshot, schema).execute(src)
    assert (result.error_kind or result.status.value) == outcome


def test_layer_three_argument_check_agrees_with_the_runtime(snapshot):
    raw = json.loads(fixture_path("toy_schema.json").read_text())
    params = {"string": "string", "int": "int", "float": "float", "bool": "bool",
              "status": "PlacementStatus", "net": "Net"}
    raw["types"]["Net"]["methods"].update({
        f"set{name.title()}": {"params": [{"name": name, "type": {"base": base}}],
                               "returns": {"base": "void"}}
        for name, base in params.items()
    })
    schema = schema_from_dict(raw)
    args = ['"a"', "1", "1.5", "True", "odb.PlacementStatus.FIRM", "net", "design.getBlock()",
            "design.getBlock().getNets()", "range(2)", "None", "print(1)"]
    loop = "import odb\nfor net in design.getBlock().getNets():\n"
    accepted = set()
    for name in params:
        for arg in args:
            src = f"{loop}    net.set{name.title()}({arg})\n"
            codes = error_codes(verify_all(analyze(src, schema), None, schema))
            result = Session(snapshot, schema).execute(src)
            assert codes in ((), (L3_BAD_ARG_TYPE,)), src
            assert (codes == ()) == (result.status is ExecStatus.OK), src
            assert codes == () or result.error_kind == "TypeError", src
            if codes == ():
                accepted.add((name, arg))
    assert accepted == {("string", '"a"'), ("int", "1"), ("float", "1"), ("float", "1.5"),
                        ("bool", "True"), ("status", "odb.PlacementStatus.FIRM"), ("net", "net")}
    # x is an int on one path and a string on the other, so it may fail the check.
    merged = f"x = 1\nif x > 0:\n    x = \"a\"\n{loop}    net.setInt(x)\n"
    assert error_codes(verify_all(analyze(merged, schema), None, schema)) == (L3_BAD_ARG_TYPE,)
    assert Session(snapshot, schema).execute(merged).error_kind == "TypeError"


def test_judge_rejection_fails_layer_four(schema):
    judge = ScriptedJudge([JudgeVerdict(ok=False, findings=(Finding("L4_X", "wrong"),))])
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.failure_layer == 4
    assert error_codes(verdict) == ("L4_X",)


def test_step_bound_runs_before_a_plugged_in_judge(schema):
    judge = ScriptedJudge([JudgeVerdict(ok=True)])
    spinning = CLEAN + "for i in range(30):\n    x = i\n"  # 3 + 1 + 30 * 2 = 64 steps
    verdict = verify_all(analyze(spinning, schema), spine(), schema, judge=judge, step_budget=63)
    assert (verdict.failure_layer, error_codes(verdict)) == (4, (L4_STEP_BOUND,))
    assert verdict.layers_run == (1, 2, 3, 4)
    assert judge._cursor == 0  # the judge never ran
    assert verify_all(analyze(spinning, schema), spine(), schema, judge=judge,
                      step_budget=64).passed
    assert judge._cursor == 1
    # L4 needs a judge and a graph; without them the bound is not checked either
    assert verify_all(analyze(spinning, schema), None, schema, step_budget=1).passed


def test_judge_ok_findings_become_warnings(schema):
    judge = ScriptedJudge([JudgeVerdict(ok=True, findings=(Finding("L4_NOTE", "style"),))])
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.passed
    assert warning_codes(verdict) == {"L4_NOTE"}


def test_judge_crash_is_warning(schema):
    judge = ScriptedJudge([])  # empty script raises JudgeFailure
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.passed
    assert warning_codes(verdict) == {L4_JUDGE_UNAVAILABLE}


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
    assert error_codes(verdict) == (L2_USE_BEFORE_DEF, L2_USE_BEFORE_DEF)


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
    assert error_codes(verdict) == ("L4_INCOMPLETE",)


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
    assert error_codes(verdict) == ("L4_NO_OUTPUT",)


def test_warnings_never_set_failure_layer(schema):
    judge = ScriptedJudge([JudgeVerdict(ok=True, findings=(Finding("L4_NOTE", "n"),))])
    verdict = verify_all(analyze(CLEAN, schema), spine(), schema, judge=judge)
    assert verdict.passed
    assert verdict.failure_layer == 0
    assert warning_codes(verdict) == {"L4_NOTE"}


# Rows of the verdict table below, as (passed, failure_layer, layers_run, error_codes).
VERDICT_SAMPLE = {
    "set-weight-01/clean/L4/full": (True, 0, (1, 2, 3, 4), ()),
    "set-weight-01/clean/L4/no-graph": (True, 0, (1, 2, 3), ()),
    "set-weight-01/clean/L4/no-judge": (True, 0, (1, 2, 3), ()),
    "set-weight-01/clean/L2/full": (True, 0, (1, 2), ()),
    "set-weight-01/syntax/L4/full": (False, 1, (1,), ("L1_SYNTAX",)),
    "set-weight-01/null_unguarded/L1/full": (True, 0, (1,), ()),
    "set-weight-01/null_unguarded/L4/full": (False, 2, (1, 2), ("L2_NULL_UNGUARDED",)),
    "set-weight-01/missing_acquisition/L4/no-graph": (False, 2, (1, 2), ("L2_USE_BEFORE_DEF",)),
    "set-weight-01/missing_acquisition/L4/full": (
        False, 2, (1, 2), ("L2_EDGE_UNREALIZED", "L2_EDGE_UNREALIZED", "L2_USE_BEFORE_DEF")),
    "set-weight-01/unknown_method/L2/no-graph": (True, 0, (1, 2), ()),
    "set-weight-01/unknown_method/L4/full": (False, 3, (1, 2, 3), ("L3_UNKNOWN_METHOD",)),
    "set-weight-01/missing_action/L4/full": (False, 4, (1, 2, 3, 4), ("L4_INCOMPLETE",)),
    "set-weight-01/missing_action/L4/no-graph": (True, 0, (1, 2, 3), ()),
    "set-weight-01/timeout_loop/L4/no-judge": (True, 0, (1, 2, 3), ()),
    "set-weight-01/timeout_loop/L4/full": (False, 4, (1, 2, 3, 4), ("L4_STEP_BOUND",)),
}


def test_verdict_table_of_planted_suite_programs_is_pinned(schema):
    """Every suite prompt, clean and with each defect, at every depth with and without
    a judge or a graph, gets the verdict recorded before the layers ran in one loop."""
    plan = [(t, d) for t in singles_suite() for d in (None, *DefectKind)]
    judge = RuleBasedJudge()
    rows = {}
    for task, defect in plan:
        source, task_graph = template_program(task.prompt, schema)
        if defect is not None:
            source = apply_defect(source, defect, schema)
        candidate = analyze(source, schema)
        name = defect.value if defect else "clean"
        for max_layer in (1, 2, 3, 4):
            for variant, graph, j in (("full", task_graph, judge),
                                      ("no-judge", task_graph, None),
                                      ("no-graph", None, judge)):
                v = verify_all(candidate, graph, schema, j, task.prompt, max_layer=max_layer)
                key = f"{task.task_id}/{name}/L{max_layer}/{variant}"
                rows[key] = (v.passed, v.failure_layer, v.layers_run, error_codes(v))
    assert len(rows) == 6072
    assert {k: rows[k] for k in VERDICT_SAMPLE} == VERDICT_SAMPLE
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "cc7fd879022aa286766770668d30b989f44689f2f679eebef4bb6326a6c76c0d"

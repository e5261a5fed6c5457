"""Command line surface, exercised in process."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from structsynth.bench import load_multi_suite, load_suite
from structsynth.cli import build_parser, main
from structsynth.fixtures import fixture_path
from structsynth.retrieval import load_corpus
from structsynth.runtime import STEP_BUDGET
from structsynth.schema import ParseError, SchemaError, load_schema

CLEAN = (
    "block = design.getBlock()\n"
    'net = block.findNet("clk")\n'
    "if net != None:\n"
    "    net.setWeight(5)\n"
    "    print(net.weight)\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# The task graph of a program that takes the design's block.
BLOCK_GRAPH = {
    "nodes": [
        {"id": "d", "kind": "object", "type": "Design"},
        {"id": "b", "kind": "object", "type": "Block"},
    ],
    "edges": [{"src": "d", "dst": "b", "kind": "acquisition", "via": "getBlock"}],
}


def test_verify_clean_program(tmp_path, capsys):
    src = write(tmp_path, "prog.txt", CLEAN)
    assert main(["verify", src]) == 0
    out = capsys.readouterr().out
    assert "PASS (layers run: L1, L2, L3)" in out


def test_verify_failing_program_json(tmp_path, capsys):
    src = write(tmp_path, "bad.txt", "print(ghost)\n")
    assert main(["verify", src, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["failure_layer"] == 2
    assert any(i["code"] == "L2_USE_BEFORE_DEF" for i in doc["issues"])


def test_verify_respects_max_layer(tmp_path, capsys):
    src = write(tmp_path, "noprint.txt", "block = design.getBlock()\n")
    gpath = write(tmp_path, "graph.json", json.dumps(BLOCK_GRAPH))
    assert main(["verify", src, "--max-layer", "4"]) == 0  # no task graph: L1-L3 only
    assert "PASS (layers run: L1, L2, L3)" in capsys.readouterr().out
    assert main(["verify", src, "--graph", gpath, "--max-layer", "3"]) == 0
    assert main(["verify", src, "--graph", gpath, "--max-layer", "4"]) == 1
    out = capsys.readouterr().out
    assert "L4_NO_OUTPUT" in out
    assert "FAIL at layer 4 (layers run: L1, L2, L3, L4)" in out


def test_verify_with_explicit_graph(tmp_path, capsys):
    src = write(tmp_path, "prog.txt", "block = design.getBlock()\nprint(block)\n")
    gpath = write(tmp_path, "graph.json", json.dumps(BLOCK_GRAPH))
    assert main(["verify", src, "--graph", gpath]) == 0


def test_run_prints_program_output(tmp_path, capsys):
    src = write(tmp_path, "prog.txt", CLEAN)
    assert main(["run", src]) == 0
    assert capsys.readouterr().out == "5\n"


def test_run_reports_runtime_error(tmp_path, capsys):
    src = write(tmp_path, "bad.txt", "print(ghost)\n")
    assert main(["run", src]) == 1
    err = capsys.readouterr().err
    assert "NameError" in err


def test_run_timeout_exit_code(tmp_path, capsys):
    src = write(tmp_path, "loop.txt", "for i in range(100):\n    x = i\n")
    assert main(["run", src, "--step-budget", "10"]) == 2
    assert capsys.readouterr().err == "timeout: step budget of 10 exceeded\n"


def test_synth_emits_program(capsys):
    assert main(["synth", "--prompt", "Set the weight of net clk to 3"]) == 0
    captured = capsys.readouterr()
    assert "net.setWeight(3)" in captured.out
    assert "accepted: True" in captured.err


def test_extract_graph_emits_json(capsys):
    assert main(["extract-graph", "--prompt", "Print the weight of net clk"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {n["type"] for n in doc["nodes"] if n["kind"] == "object"} == {
        "Design",
        "Block",
        "Net",
    }
    assert any(e.get("via") == "findNet" for e in doc["edges"])


def test_score_compares_graphs(tmp_path, capsys):
    graph = {
        "nodes": [
            {"id": "d", "kind": "object", "type": "Design"},
            {"id": "b", "kind": "object", "type": "Block"},
        ],
        "edges": [{"src": "d", "dst": "b", "kind": "acquisition", "via": "getBlock"}],
    }
    p = write(tmp_path, "pred.json", json.dumps(graph))
    t = write(tmp_path, "truth.json", json.dumps(graph))
    assert main(["score", "--pred", p, "--truth", t]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["node_f1"] == 1.0
    assert doc["edge_f1"] == 1.0
    assert doc["exact_match"] is True


def test_multistep_carries_state(capsys):
    code = main(
        [
            "multistep",
            "--prompt",
            "Set the weight of net clk to 9",
            "--prompt",
            "Print the weight of net clk",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "step 1 [ok]" in out
    assert "step 2 [ok]" in out
    assert "  9" in out
    assert "passed: True" in out


def test_bench_json_on_custom_suite(tmp_path, capsys):
    suite = {
        "tasks": [
            {"id": "s1", "prompt": "Set the weight of net clk to 3", "kind": "action"},
            {"id": "s2", "prompt": "Print the weight of net clk", "kind": "query"},
        ]
    }
    path = write(tmp_path, "suite.json", json.dumps(suite))
    assert main(["bench", "--suite", path, "--no-multis", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass_rate"] == 1.0
    assert len(doc["records"]) == 2
    assert doc["quality"]["precision"] == 1.0


def test_bench_theta_sweep_output(tmp_path, capsys):
    suite = {
        "tasks": [
            {"id": "s1", "prompt": "Set the weight of net clk to 3", "kind": "action"}
        ]
    }
    path = write(tmp_path, "suite.json", json.dumps(suite))
    code = main(
        ["bench", "--suite", path, "--no-multis", "--theta-sweep", "0.1:0.5:0.2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "theta 0.10" in out
    assert "theta 0.50" in out


def test_unreadable_schema_is_a_usage_error(tmp_path, capsys):
    src = write(tmp_path, "prog.txt", CLEAN)
    code = main(["verify", src, "--schema", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main([])


def test_stdin_source(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("print(design)\n"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr().out == "<Design d1>\n"


_GRAPH = json.dumps({"nodes": [{"id": "d", "kind": "object", "type": "Design"}], "edges": []})
_SUITE_TASK = {"id": "s1", "prompt": "Print the weight of net clk"}
# Graphs that parse but break a DepGraph invariant.
_DANGLING = json.dumps({
    "nodes": [{"id": "d", "kind": "object", "type": "Design"}],
    "edges": [{"src": "d", "dst": "ghost", "kind": "acquisition", "via": "getBlock"}],
})
_UNTYPED = json.dumps({"nodes": [{"id": "d", "kind": "object"}], "edges": []})


def _toy_snapshot_with(design: dict, **document) -> str:
    """The packaged snapshot with keys of its design record, or of the document, replaced."""
    raw = json.loads(fixture_path("toy_snapshot.json").read_text())
    raw["objects"][0].update(design)
    raw.update(document)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"s.json": json.dumps({"tasks": [{"prompt": "Print the weight of net clk"}]})},
         ["bench", "--suite", "s.json", "--no-multis"]),
        ({"s.json": json.dumps({"tasks": [{"id": "s1"}]})},
         ["bench", "--suite", "s.json", "--no-multis"]),
        ({"s.json": json.dumps({"tasks": ["s1"]})}, ["bench", "--suite", "s.json", "--no-multis"]),
        ({"s.json": json.dumps({"tasks": [{**_SUITE_TASK, "truth_graph": {"nodes": []}}]})},
         ["bench", "--suite", "s.json", "--no-multis"]),
        ({"s.json": json.dumps({"tasks": [_SUITE_TASK]}),
          "m.json": json.dumps({"tasks": [{"id": "m1"}]})},
         ["bench", "--suite", "s.json", "--multis", "m.json"]),
        ({"p.txt": CLEAN, "g.json": "{not json"}, ["verify", "p.txt", "--graph", "g.json"]),
        ({"p.txt": CLEAN, "g.json": json.dumps({"nodes": []})},
         ["verify", "p.txt", "--graph", "g.json"]),
        ({"p.json": "{not json", "t.json": _GRAPH}, ["score", "--pred", "p.json", "--truth", "t.json"]),
        ({"p.json": _GRAPH, "t.json": json.dumps({"nodes": []})},
         ["score", "--pred", "p.json", "--truth", "t.json"]),
        ({"p.txt": CLEAN, "g.json": _DANGLING}, ["verify", "p.txt", "--graph", "g.json"]),
        ({"p.txt": CLEAN, "g.json": _UNTYPED}, ["verify", "p.txt", "--graph", "g.json"]),
        ({"p.json": _DANGLING, "t.json": _GRAPH}, ["score", "--pred", "p.json", "--truth", "t.json"]),
        ({"p.json": _GRAPH, "t.json": _DANGLING}, ["score", "--pred", "p.json", "--truth", "t.json"]),
        ({"s.json": json.dumps({"tasks": [{**_SUITE_TASK, "truth_graph": json.loads(_DANGLING)}]})},
         ["bench", "--suite", "s.json", "--no-multis"]),
        ({"p.txt": CLEAN, "s.json": _toy_snapshot_with({"children": ["b1"]})},
         ["run", "p.txt", "--snapshot", "s.json"]),
        ({"p.txt": CLEAN, "s.json": _toy_snapshot_with({"fields": "abc"})},
         ["run", "p.txt", "--snapshot", "s.json"]),
        ({"p.txt": CLEAN, "s.json": _toy_snapshot_with({}, roots=["d1"])},
         ["run", "p.txt", "--snapshot", "s.json"]),
        ({"p.txt": CLEAN, "s.json": _toy_snapshot_with({"children": {"getBlock": "b1"}})},
         ["run", "p.txt", "--snapshot", "s.json"]),
        ({}, ["synth", "--prompt", "Print the weight of net clk", "--budget", "-3"]),
        ({"p.txt": "print(1)\n"}, ["run", "p.txt", "--step-budget", "-5"]),
        ({}, ["multistep", "--prompt", "Print the weight of net clk", "--step-budget", "-1"]),
        ({}, ["bench", "--budget", "-1"]),
        ({}, ["bench", "--step-budget", "-1"]),
    ],
    ids=["suite-task-without-id", "suite-task-without-prompt", "suite-task-not-an-object",
         "bad-truth-graph", "multi-without-steps", "verify-graph-not-json",
         "verify-graph-without-edges", "score-not-json", "score-graph-without-edges",
         "verify-graph-dangling-edge", "verify-graph-untyped-object", "score-pred-dangling-edge",
         "score-truth-dangling-edge", "suite-truth-graph-dangling-edge",
         "snapshot-children-list", "snapshot-fields-string", "snapshot-roots-list",
         "snapshot-child-ids-string", "synth-negative-budget", "run-negative-step-budget",
         "multistep-negative-step-budget", "bench-negative-budget",
         "bench-negative-step-budget"],
)
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, files, argv):
    paths = {name: write(tmp_path, name, text) for name, text in files.items()}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


_NOT_UTF8 = b'\xff\xfe{"x": 1}'
_DEEP_JSON = b"[" * 100_000
_JSON_INPUTS = {
    "schema": ["bench", "--schema", "bad.json"],
    "snapshot": ["bench", "--snapshot", "bad.json"],
    "corpus": ["bench", "--corpus", "bad.json"],
    "suite": ["bench", "--suite", "bad.json", "--no-multis"],
    "graph": ["score", "--pred", "bad.json", "--truth", "bad.json"],
}
_UNDECODABLE = [
    *[(_NOT_UTF8, argv) for argv in _JSON_INPUTS.values()],
    (_NOT_UTF8, ["verify", "bad.json"]),
    *[(_DEEP_JSON, argv) for argv in _JSON_INPUTS.values()],
]


@pytest.mark.parametrize(
    "content, argv",
    _UNDECODABLE,
    ids=[*(f"not-utf8-{k}" for k in _JSON_INPUTS), "not-utf8-program",
         *(f"deeply-nested-{k}" for k in _JSON_INPUTS)],
)
def test_undecodable_input_file_is_a_usage_error(tmp_path, capsys, content, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([str(path) if arg == "bad.json" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _fixture_with(name: str, edit) -> str:
    """A packaged fixture document after ``edit`` changed it in place."""
    raw = json.loads(fixture_path(name).read_text())
    edit(raw)
    return json.dumps(raw)


def _net_type(change):
    return lambda raw: change(raw["types"]["Net"])


_SYNTH = ["synth", "--prompt", "Print the weight of net clk"]


@pytest.mark.parametrize(
    "name, text, load, argv",
    [
        ("s.json", _fixture_with("toy_schema.json", _net_type(lambda t: t.update(methods=[]))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", _net_type(lambda t: t.update(attributes=[]))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", _net_type(
            lambda t: t["methods"]["getName"].update(returns="string"))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", _net_type(
            lambda t: t["methods"]["setWeight"]["params"][0].update(type="int"))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", _net_type(
            lambda t: t["methods"]["setWeight"].update(params=5))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", _net_type(
            lambda t: t["attributes"].update(weight="int"))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", _net_type(
            lambda t: t["attributes"].update(driver={"base": "Inst"}))),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("s.json", _fixture_with("toy_schema.json", lambda raw: raw.update(roots={"design": []})),
         load_schema, _SYNTH + ["--schema", "s.json"]),
        ("m.json", json.dumps({"tasks": [{"id": "m1", "steps": 5}]}),
         load_multi_suite, ["bench", "--multis", "m.json"]),
        ("m.json", json.dumps({"tasks": [{"id": "m1", "steps": "abc"}]}),
         load_multi_suite, ["bench", "--multis", "m.json"]),
        ("c.json", _fixture_with("toy_corpus.json", lambda raw: raw["docs"][0].update(tags="abc")),
         load_corpus, _SYNTH + ["--corpus", "c.json"]),
        *[("c.json", _fixture_with("toy_corpus.json",
                                   lambda raw, k=k, v=v: raw["docs"][0].update({k: v})),
           load_corpus, _SYNTH + ["--corpus", "c.json"])
          for k, v in (("id", 7), ("api_path", ["Net"]), ("text", {"a": 1}), ("snippet", ["a"]))],
        *[("t.json", json.dumps({"tasks": [{"id": "s1", "prompt": "List all nets", k: v}]}),
           load_suite, ["bench", "--suite", "t.json", "--no-multis"])
          for k, v in (("prompt", 5), ("kind", ["query"]))],
    ],
    ids=["schema-methods-list", "schema-attributes-list", "schema-returns-string",
         "schema-param-type-string", "schema-params-int", "schema-attribute-string",
         "schema-attribute-object", "schema-root-type-list", "multi-steps-int",
         "multi-steps-string", "corpus-tags-string",
         "corpus-id-int", "corpus-api-path-list", "corpus-text-object", "corpus-snippet-list",
         "suite-prompt-int", "suite-kind-list"],
)
def test_wrongly_shaped_member_is_reported_not_raised(tmp_path, capsys, name, text, load, argv):
    path = write(tmp_path, name, text)
    with pytest.raises((ParseError, SchemaError)):
        load(path)
    assert main([path if arg == name else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("layers", ["abc", "0", "5", "1,,3", "", "-1", "3.0"])
def test_bench_layers_must_be_a_comma_list_of_layers(capsys, layers):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--layers", layers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --layers" in err
    assert "Traceback" not in err


def test_bench_layers_defaults_to_the_full_pipeline():
    assert build_parser().parse_args(["bench"]).layers == [4]
    assert build_parser().parse_args(["bench", "--layers", "1, 3,4"]).layers == [1, 3, 4]


# Recorded with the same arguments: `structsynth bench --json > tests/golden/bench.json`.
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["bench", "--json"], "bench.json"),
        (["bench", "--layers", "1,3,4", "--theta-sweep", "0.1:0.9:0.2"], "bench_layers_sweep.txt"),
    ],
    ids=["json", "layers-sweep"],
)
def test_bench_output_matches_golden_file(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "golden" / golden).read_text()


def test_step_budget_flag_sets_the_verifier_bound_too(tmp_path, capsys):
    for argv in (["run", "-"], ["multistep", "--prompt", "x"], ["bench"]):
        assert build_parser().parse_args(argv).step_budget == STEP_BUDGET
    # "List all nets" needs at least 2 steps (the assignment and the loop
    # statement), so a budget of 1 rejects it at L4 and a budget of 2 does not
    assert main(["multistep", "--prompt", "List all nets", "--step-budget", "1"]) == 1
    assert "failed at layer 4" in capsys.readouterr().out
    main(["multistep", "--prompt", "List all nets", "--step-budget", "2"])
    assert "failed at layer 4" not in capsys.readouterr().out
    suite = {"tasks": [{"id": "s1", "prompt": "List all nets", "kind": "query"}]}
    path = write(tmp_path, "suite.json", json.dumps(suite))
    for budget, accepted, final_layer in (("1", False, 4), ("2", True, 0)):
        main(["bench", "--suite", path, "--no-multis", "--json", "--step-budget", budget])
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert (record["accepted"], record["final_layer"]) == (accepted, final_layer)

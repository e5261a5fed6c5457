from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from programs import random_conformant_program
from structsynth.depgraph import DepGraph
from structsynth.extractors import PatternTableExtractor
from structsynth.generators import DefectKind, GenerationRequest, TemplateGenerator, apply_defect
from structsynth.judges import RuleBasedJudge
from structsynth.qas.analysis import analyze, infer_types, normalize_statements
from structsynth.qas.lexer import tokenize
from structsynth.qas.nodes import (
    Assign,
    Attribute,
    BinOp,
    Call,
    ExprStmt,
    ForStmt,
    IfStmt,
    ImportStmt,
    IntLit,
    Name,
    NoneLit,
    StringLit,
    module_to_source,
)
from structsynth.qas.parser import MAX_NESTING, NESTING_MESSAGE, Script, SyntaxFailure, parse
from structsynth.runtime import Session
from structsynth.schema import TypeRef
from structsynth.verifier import verify_all
from suites import multis_suite, singles_suite

CANONICAL = """import odb
block = design.getBlock()
net = block.findNet("clk")
if net != None:
    net.setWeight(2)
for inst in block.getInsts():
    if inst.getName() == "u1":
        inst.setPlacementStatus(odb.PlacementStatus.PLACED)
print(len(block.getNets()))
"""


def test_parse_canonical_structure():
    script = parse(CANONICAL)
    assert isinstance(script, Script)
    s = script.statements
    assert len(s) == 6
    assert s[0] == ImportStmt("odb")
    assert s[1] == Assign("block", Call(Attribute(Name("design"), "getBlock"), ()))
    assert s[2] == Assign(
        "net", Call(Attribute(Name("block"), "findNet"), (StringLit("clk"),))
    )
    assert s[3] == IfStmt(
        test=BinOp("!=", Name("net"), NoneLit()),
        body=(ExprStmt(Call(Attribute(Name("net"), "setWeight"), (IntLit(2),))),),
    )
    assert isinstance(s[4], ForStmt)
    assert isinstance(s[5], ExprStmt)


def test_parse_records_locations():
    script = parse(CANONICAL)
    assert script.statements[0].line == 1
    assert script.statements[2].line == 3
    guarded = script.statements[3].body[0]
    assert guarded.line == 5
    assert guarded.col == 5


def test_to_source_is_canonical_on_canonical_input():
    script = parse(CANONICAL)
    assert module_to_source(script.statements) == CANONICAL


def test_to_source_normalizes_spacing():
    script = parse("x   =   1  +  2\n")
    assert module_to_source(script.statements) == "x = 1 + 2\n"


def test_parse_error_reports_position():
    failure = parse("x = = 1\n")
    assert isinstance(failure, SyntaxFailure)
    assert failure.errors[0].line == 1
    assert failure.errors[0].column >= 1


def test_parse_collects_multiple_errors():
    failure = parse("x = = 1\ny = 2\nz = )\n")
    assert isinstance(failure, SyntaxFailure)
    assert len(failure.errors) >= 2
    assert [e.line for e in failure.errors[:2]] == [1, 3]


def test_block_whose_statements_failed_is_not_also_reported_empty():
    failure = parse("if True:\n    x = )\ny = 1\n")
    assert isinstance(failure, SyntaxFailure)
    assert [(e.line, e.column, e.message) for e in failure.errors] == [(2, 9, "unexpected ')'")]
    nested = parse("if True:\n    if True:\n        x = )\n")
    assert [e.message for e in nested.errors] == ["unexpected ')'"]
    unlexed = parse("if True:\n    x = $\ny = 1\n")
    assert [e.message for e in unlexed.errors] == ["unexpected character '$'"]
    empty = parse("if True:\n    # nothing\ny = 1\n")
    assert [e.message for e in empty.errors] == ["expected an indented block"]


def test_integer_literal_longer_than_4300_digits_is_a_syntax_failure(int_str_limit):
    longest = "9" * 4300
    script = parse(f"x = {longest}\n")
    assert isinstance(script, Script)
    assert script.statements[0] == Assign("x", IntLit(10**4300 - 1))
    assert module_to_source(script.statements) == f"x = {longest}\n"
    failure = parse("x = " + "1" * 5000 + "\n")
    assert isinstance(failure, SyntaxFailure)
    assert [(e.line, e.column, e.message) for e in failure.errors] == [
        (1, 5, "integer literal has more than 4300 digits")
    ]


def _nested_ifs(levels: int, body: str = "x = 1") -> str:
    return "".join("    " * i + "if True:\n" for i in range(levels)) + "    " * levels + body + "\n"


# Each builder nests its program ``n`` levels deep. A level is a block around
# the statement, a pair of parentheses, or an operator or postfix operation
# applied above the innermost point; ``.getBlock()`` is two of them.
NESTINGS = {
    "parentheses": lambda n: "x = " + "(" * n + "1" + ")" * n + "\n",
    "unary minus": lambda n: "x = " + "-" * n + "1\n",
    "index chain": lambda n: 'x = "ab"' + "[0]" * n + "\n",
    "call chain": lambda n: "x = design" + ".getBlock()" * (n // 2) + ".name" * (n % 2) + "\n",
    "operator chain": lambda n: "x = 1" + " + 1" * n + "\n",
    "right operands": lambda n: "x = " + "1 + (" * (n // 2) + "-" * (n % 2) + "1" + ")" * (n // 2) + "\n",
    "call arguments": lambda n: "print(" * n + ")" * n + "\n",
    "blocks": _nested_ifs,
    "blocks around an expression": lambda n: _nested_ifs(n - 1, "print(1)"),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_programs_nested_to_the_limit_pass_every_stage(shape, schema, snapshot):
    source = NESTINGS[shape](MAX_NESTING)
    script = parse(source)
    assert isinstance(script, Script)
    assert parse(module_to_source(script.statements)) == script
    candidate = analyze(source, schema)
    assert candidate.typed is not None
    # With a graph and a judge, every layer runs that the program reaches.
    verdict = verify_all(candidate, DepGraph((), ()), schema, judge=RuleBasedJudge())
    assert verdict.failure_layer != 1
    result = Session(snapshot, schema).execute(source)
    assert result.error_kind != "SyntaxError", result.error_message


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_programs_nested_past_the_limit_are_syntax_failures(shape, schema, snapshot):
    for levels in (MAX_NESTING + 1, 4 * MAX_NESTING):
        source = NESTINGS[shape](levels)
        failure = parse(source)
        assert isinstance(failure, SyntaxFailure)
        assert NESTING_MESSAGE in [e.message for e in failure.errors]
        verdict = verify_all(analyze(source, schema), None, schema)
        assert verdict.failure_layer == 1
        result = Session(snapshot, schema).execute(source)
        assert (result.error_kind, result.error_message.endswith(NESTING_MESSAGE)) == (
            "SyntaxError", True
        )


def test_nesting_error_points_at_the_token_that_goes_too_deep():
    over = MAX_NESTING + 1
    cases = {
        # the last opening parenthesis, unary minus, '[' or operator
        NESTINGS["parentheses"](over): (1, 4 + over),
        NESTINGS["unary minus"](over): (1, 4 + over),
        NESTINGS["index chain"](over): (1, 6 + 3 * over),
        NESTINGS["operator chain"](over): (1, 3 + 4 * over),
        # the 'if' whose block would sit one level too deep
        _nested_ifs(over): (over, 1 + 4 * MAX_NESTING),
    }
    for source, where in cases.items():
        failure = parse(source)
        assert [(e.line, e.column, e.message) for e in failure.errors][0] == (*where, NESTING_MESSAGE)


def test_parse_else_branch():
    script = parse("if x == 1:\n    y = 1\nelse:\n    y = 2\n")
    assert isinstance(script, Script)
    stmt = script.statements[0]
    assert isinstance(stmt, IfStmt)
    assert len(stmt.body) == 1
    assert len(stmt.orelse) == 1
    assert module_to_source(script.statements) == "if x == 1:\n    y = 1\nelse:\n    y = 2\n"


def test_precedence_round_trip():
    # Parens required by precedence survive; redundant ones are dropped.
    script = parse("x = (a + b) * c\ny = a + b * c\nz = ((a))\n")
    assert module_to_source(script.statements) == "x = (a + b) * c\ny = a + b * c\nz = a\n"


def test_string_escapes_round_trip():
    script = parse('x = "a\\"b\\n"\n')
    assert isinstance(script, Script)
    again = parse(module_to_source(script.statements))
    assert again.statements == script.statements


def test_structural_equality_ignores_locations():
    a = parse('x = f(1)\ny = 2\n')
    b = parse('\n\nx = f(1)\n\ny = 2\n')
    assert a.statements == b.statements


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_idempotent_on_generated_programs(seed):
    source = random_conformant_program(random.Random(seed))
    script = parse(source)
    assert isinstance(script, Script)
    once = module_to_source(script.statements)
    again = parse(once)
    assert isinstance(again, Script)
    assert again.statements == script.statements
    assert module_to_source(again.statements) == once


def test_normalize_statements_ignores_formatting():
    a = parse("x = 1\nif x == 1:\n    y = x + 2\n")
    b = parse("x  =  1\nif  x == 1 :\n        y = x+2\n")
    assert normalize_statements(a) == normalize_statements(b)
    assert "y = x + 2" in normalize_statements(a)


def test_infer_types_canonical(schema):
    ts = infer_types(parse(CANONICAL), schema)
    assert ts.undefined_uses == ()
    assert ts.imports == ("odb",)
    sites = {(c.receiver_type.base, c.method): c for c in ts.call_sites}
    assert sites[("Block", "findNet")].receiver_type == TypeRef("Block")
    # findNet's nullability is visible where the guard reads the binding...
    guard = next(op for op in ts.operations if op.op == "!=")
    assert guard.operands == (TypeRef("Net", nullable=True), TypeRef("void", nullable=True))
    # ...but discharged inside the None guard.
    assert not sites[("Net", "setWeight")].receiver_type.nullable
    assert sites[("Net", "setWeight")].mutates
    assert sites[("Inst", "setPlacementStatus")].receiver_type == TypeRef("Inst")
    assert [op.op for op in ts.operations if op.op != "method"] == [
        "!=", "for", "==", "attribute", "attribute", "len", "print"
    ]
    assert sum(op.op == "method" for op in ts.operations) == len(ts.call_sites) == 7


def test_infer_types_flags_undefined(schema):
    ts = infer_types(parse("ghost.getName()\n"), schema)
    assert len(ts.undefined_uses) == 1
    assert ts.undefined_uses[0].name == "ghost"
    assert ts.undefined_uses[0].reason == "undefined"


def test_infer_types_loop_definitions_do_not_dominate(schema):
    src = "block = design.getBlock()\nfor net in block.getNets():\n    x = 1\nprint(x)\n"
    ts = infer_types(parse(src), schema)
    assert any(u.name == "x" for u in ts.undefined_uses)


def test_infer_types_unguarded_nullable_receiver(schema):
    src = 'block = design.getBlock()\nnet = block.findNet("clk")\nnet.setWeight(2)\n'
    ts = infer_types(parse(src), schema)
    site = next(c for c in ts.call_sites if c.method == "setWeight")
    assert site.receiver_type.nullable


def test_infer_types_loop_var_is_element_type(schema):
    src = "block = design.getBlock()\nfor net in block.getNets():\n    print(net.getName())\n"
    ts = infer_types(parse(src), schema)
    site = next(c for c in ts.call_sites if c.method == "getName")
    assert site.receiver_type == TypeRef("Net")


def test_infer_types_enum_chain_is_not_undefined(schema):
    src = "import odb\nx = odb.PlacementStatus.PLACED\n"
    ts = infer_types(parse(src), schema)
    assert ts.undefined_uses == ()
    assert [(op.operands, op.allowed) for op in ts.operations] == [
        ((TypeRef("module"),), True), ((TypeRef("enum PlacementStatus"),), True)
    ]


# ---- lexer pins: (source, tokens as (kind, text, line, col), issues as (line, col, message)) ----

LEX_TABLE = {
    'tab_indent': (
        'x = 1\n\ty = 2\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('INT', '1', 1, 5), ('NEWLINE', '', 1, 6),
         ('EOF', '', 3, 1)],
        [(2, 1, 'tab character not allowed')],
    ),
    'tab_inside': (
        'x =\t1\n',
        [('EOF', '', 2, 1)],
        [(1, 4, 'tab character not allowed')],
    ),
    'bad_dedent': (
        'if x:\n        y = 1\n    z = 2\n',
        [('KW', 'if', 1, 1), ('NAME', 'x', 1, 4), ('OP', ':', 1, 5), ('NEWLINE', '', 1, 6),
         ('INDENT', '', 2, 1), ('NAME', 'y', 2, 9), ('OP', '=', 2, 11), ('INT', '1', 2, 13),
         ('NEWLINE', '', 2, 14), ('DEDENT', '', 3, 1), ('NAME', 'z', 3, 5), ('OP', '=', 3, 7),
         ('INT', '2', 3, 9), ('NEWLINE', '', 3, 10), ('DEDENT', '', 4, 1), ('EOF', '', 4, 1)],
        [(3, 1, 'unindent does not match any outer level')],
    ),
    'unterminated_string': (
        'x = "abc\n',
        [('NEWLINE', '', 1, 9), ('EOF', '', 2, 1)],
        [(1, 5, 'unterminated string literal')],
    ),
    'unterminated_after_escape': (
        "x = 'ab\\'\n",
        [('NEWLINE', '', 1, 10), ('EOF', '', 2, 1)],
        [(1, 5, 'unterminated string literal')],
    ),
    'bad_escape': (
        'x = "a\\qb"\n',
        [('NEWLINE', '', 1, 11), ('EOF', '', 2, 1)],
        [(1, 7, 'bad escape sequence')],
    ),
    'escape_at_eol': (
        'x = "ab\\\n',
        [('NEWLINE', '', 1, 9), ('EOF', '', 2, 1)],
        [(1, 8, 'bad escape sequence')],
    ),
    'escapes': (
        'x = \'a\\\'b\\"c\\\\d\\ne\\tf\'\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('STRING', 'a\'b"c\\d\ne\tf', 1, 5),
         ('NEWLINE', '', 1, 23), ('EOF', '', 2, 1)],
        [],
    ),
    'dollar': (
        'x = $1\n',
        [('NEWLINE', '', 1, 7), ('EOF', '', 2, 1)],
        [(1, 5, "unexpected character '$'")],
    ),
    'tilde': (
        'y = 2\nx = ~1 + 3\n',
        [('NAME', 'y', 1, 1), ('OP', '=', 1, 3), ('INT', '2', 1, 5), ('NEWLINE', '', 1, 6),
         ('NEWLINE', '', 2, 11), ('EOF', '', 3, 1)],
        [(2, 5, "unexpected character '~'")],
    ),
    'non_ascii_letter': (
        'café = 1\n',
        [('NEWLINE', '', 1, 9), ('EOF', '', 2, 1)],
        [(1, 4, "unexpected character 'é'")],
    ),
    'unicode_digit': (
        'x = ٣ + 1٤.٥\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('INT', '٣', 1, 5), ('OP', '+', 1, 7),
         ('FLOAT', '1٤.٥', 1, 9), ('NEWLINE', '', 1, 13), ('EOF', '', 2, 1)],
        [],
    ),
    'dotted_number': (
        'x = 1.5.3\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('FLOAT', '1.5', 1, 5), ('OP', '.', 1, 8),
         ('INT', '3', 1, 9), ('NEWLINE', '', 1, 10), ('EOF', '', 2, 1)],
        [],
    ),
    'number_then_name': (
        'x = 12abc\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('INT', '12', 1, 5), ('NAME', 'abc', 1, 7),
         ('NEWLINE', '', 1, 10), ('EOF', '', 2, 1)],
        [],
    ),
    'mixed_quotes': (
        'x = "it\'s" + \'say "hi"\'\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('STRING', "it's", 1, 5), ('OP', '+', 1, 12),
         ('STRING', 'say "hi"', 1, 14), ('NEWLINE', '', 1, 24), ('EOF', '', 2, 1)],
        [],
    ),
    'hash_in_string': (
        "x = 'a#b'\n",
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('STRING', 'a#b', 1, 5),
         ('NEWLINE', '', 1, 10), ('EOF', '', 2, 1)],
        [],
    ),
    'trailing_comment': (
        'x = 1  # note = $\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('INT', '1', 1, 5), ('NEWLINE', '', 1, 18),
         ('EOF', '', 2, 1)],
        [],
    ),
    'blank_and_comment_lines': (
        '\n   \n# c\n  # indented comment\nx = 1\n\n',
        [('NAME', 'x', 5, 1), ('OP', '=', 5, 3), ('INT', '1', 5, 5), ('NEWLINE', '', 5, 6),
         ('EOF', '', 7, 1)],
        [],
    ),
    'unicode_space': (
        '\xa0# c\nx = 1\xa0\n',
        [('NEWLINE', '', 1, 5), ('NEWLINE', '', 2, 7), ('EOF', '', 3, 1)],
        [(1, 1, "unexpected character '\\xa0'"), (2, 6, "unexpected character '\\xa0'")],
    ),
    'form_feed_line': (
        'x = 1\n\x0c\ny = 2\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('INT', '1', 1, 5), ('NEWLINE', '', 1, 6),
         ('NEWLINE', '', 2, 2), ('NAME', 'y', 3, 1), ('OP', '=', 3, 3), ('INT', '2', 3, 5),
         ('NEWLINE', '', 3, 6), ('EOF', '', 4, 1)],
        [(2, 1, "unexpected character '\\x0c'")],
    ),
    'crlf': (
        'x = 1\r\nif x:\r\n    y = 2\r\n',
        [('NAME', 'x', 1, 1), ('OP', '=', 1, 3), ('INT', '1', 1, 5), ('NEWLINE', '', 1, 6),
         ('KW', 'if', 2, 1), ('NAME', 'x', 2, 4), ('OP', ':', 2, 5), ('NEWLINE', '', 2, 6),
         ('INDENT', '', 3, 1), ('NAME', 'y', 3, 5), ('OP', '=', 3, 7), ('INT', '2', 3, 9),
         ('NEWLINE', '', 3, 10), ('DEDENT', '', 4, 1), ('EOF', '', 4, 1)],
        [],
    ),
    'operators': (
        'a = b==c!=d<=e>=f<g>h+i-j*k/l%m\nz = f(x)[0].y, 1.\n',
        [('NAME', 'a', 1, 1), ('OP', '=', 1, 3), ('NAME', 'b', 1, 5), ('OP', '==', 1, 6),
         ('NAME', 'c', 1, 8), ('OP', '!=', 1, 9), ('NAME', 'd', 1, 11), ('OP', '<=', 1, 12),
         ('NAME', 'e', 1, 14), ('OP', '>=', 1, 15), ('NAME', 'f', 1, 17), ('OP', '<', 1, 18),
         ('NAME', 'g', 1, 19), ('OP', '>', 1, 20), ('NAME', 'h', 1, 21), ('OP', '+', 1, 22),
         ('NAME', 'i', 1, 23), ('OP', '-', 1, 24), ('NAME', 'j', 1, 25), ('OP', '*', 1, 26),
         ('NAME', 'k', 1, 27), ('OP', '/', 1, 28), ('NAME', 'l', 1, 29), ('OP', '%', 1, 30),
         ('NAME', 'm', 1, 31), ('NEWLINE', '', 1, 32), ('NAME', 'z', 2, 1), ('OP', '=', 2, 3),
         ('NAME', 'f', 2, 5), ('OP', '(', 2, 6), ('NAME', 'x', 2, 7), ('OP', ')', 2, 8),
         ('OP', '[', 2, 9), ('INT', '0', 2, 10), ('OP', ']', 2, 11), ('OP', '.', 2, 12),
         ('NAME', 'y', 2, 13), ('OP', ',', 2, 14), ('INT', '1', 2, 16), ('OP', '.', 2, 17),
         ('NEWLINE', '', 2, 18), ('EOF', '', 3, 1)],
        [],
    ),
    'keywords': (
        'import odb\nfor i in x:\n    if True:\n        y = None\n    else:\n        y = False\n',
        [('KW', 'import', 1, 1), ('NAME', 'odb', 1, 8), ('NEWLINE', '', 1, 11),
         ('KW', 'for', 2, 1), ('NAME', 'i', 2, 5), ('KW', 'in', 2, 7), ('NAME', 'x', 2, 10),
         ('OP', ':', 2, 11), ('NEWLINE', '', 2, 12), ('INDENT', '', 3, 1), ('KW', 'if', 3, 5),
         ('KW', 'True', 3, 8), ('OP', ':', 3, 12), ('NEWLINE', '', 3, 13), ('INDENT', '', 4, 1),
         ('NAME', 'y', 4, 9), ('OP', '=', 4, 11), ('KW', 'None', 4, 13), ('NEWLINE', '', 4, 17),
         ('DEDENT', '', 5, 1), ('KW', 'else', 5, 5), ('OP', ':', 5, 9), ('NEWLINE', '', 5, 10),
         ('INDENT', '', 6, 1), ('NAME', 'y', 6, 9), ('OP', '=', 6, 11), ('KW', 'False', 6, 13),
         ('NEWLINE', '', 6, 18), ('DEDENT', '', 7, 1), ('DEDENT', '', 7, 1), ('EOF', '', 7, 1)],
        [],
    ),
    'error_keeps_indent': (
        "if x:\n    y = 'open\n    z = 1\nw = 2\n",
        [('KW', 'if', 1, 1), ('NAME', 'x', 1, 4), ('OP', ':', 1, 5), ('NEWLINE', '', 1, 6),
         ('INDENT', '', 2, 1), ('NEWLINE', '', 2, 14), ('NAME', 'z', 3, 5), ('OP', '=', 3, 7),
         ('INT', '1', 3, 9), ('NEWLINE', '', 3, 10), ('DEDENT', '', 4, 1), ('NAME', 'w', 4, 1),
         ('OP', '=', 4, 3), ('INT', '2', 4, 5), ('NEWLINE', '', 4, 6), ('EOF', '', 5, 1)],
        [(2, 9, 'unterminated string literal')],
    ),
    'form_feed': (
        'x = 1\x0cy = 2\n',
        [('NEWLINE', '', 1, 12), ('EOF', '', 2, 1)],
        [(1, 6, "unexpected character '\\x0c'")],
    ),
    'line_separator': (
        'x = 1\u2028y = 2\n',
        [('NEWLINE', '', 1, 12), ('EOF', '', 2, 1)],
        [(1, 6, "unexpected character '\\u2028'")],
    ),
    'empty': (
        '',
        [('EOF', '', 1, 1)],
        [],
    ),
}



def _lexed(source: str) -> tuple[list[tuple], list[tuple]]:
    tokens, issues = tokenize(source)
    return (
        [(t.kind, t.text, t.line, t.col) for t in tokens],
        [(i.line, i.col, i.message) for i in issues],
    )


@pytest.mark.parametrize("name", sorted(LEX_TABLE))
def test_lexer_pinned_edge_cases(name):
    source, tokens, issues = LEX_TABLE[name]
    assert _lexed(source) == (tokens, issues)


def test_lexer_token_streams_of_suite_programs_are_pinned(schema):
    """Every suite prompt's template program and its planted-defect variants lex as recorded."""
    extractor = PatternTableExtractor(schema)
    generator = TemplateGenerator(schema)
    prompts = [t.prompt for t in singles_suite()] + [p for m in multis_suite() for p in m.steps]
    digest = hashlib.sha256()
    programs = 0
    for prompt in prompts:
        graph = extractor.extract(prompt, None, ())
        clean = generator.generate(GenerationRequest(prompt=prompt, graph=graph))
        for source in [clean] + [apply_defect(clean, kind, schema) for kind in DefectKind]:
            digest.update(repr(_lexed(source)).encode())
            programs += 1
    assert programs == 825
    assert digest.hexdigest()[:16] == "62e7ae5c950c894b"


_MUTATION_CHARS = " \n\t()[],.:=<>!+-*/%#'\"\\0123456789xyz_"


def _mutated(source: str, rng: random.Random) -> str:
    """The source with one character deleted, inserted or swapped, or a line repeated."""
    i = rng.randrange(len(source) + 1)
    how = rng.randrange(4)
    if how == 0:
        return source[:i] + source[i + 1 :]
    if how == 1:
        return source[:i] + rng.choice(_MUTATION_CHARS) + source[i:]
    if how == 2 and 0 < i < len(source):
        return source[: i - 1] + source[i] + source[i - 1] + source[i + 1 :]
    lines = source.splitlines(keepends=True) or [""]
    j = rng.randrange(len(lines))
    return "".join(lines[: j + 1] + lines[j:])


def test_parse_outcomes_of_suite_programs_are_pinned(schema):
    """The full parse of every suite program and of seeded mutants, locations included.

    ``repr`` of a Script shows every node with its line and column, and ``repr``
    of a SyntaxFailure every error in order, so any change to a tree, a
    location or an error message moves the digest.
    """
    extractor = PatternTableExtractor(schema)
    generator = TemplateGenerator(schema)
    prompts = [t.prompt for t in singles_suite()] + [p for m in multis_suite() for p in m.steps]
    rng = random.Random(13)
    digest = hashlib.sha256()
    outcomes = {Script: 0, SyntaxFailure: 0}
    for prompt in prompts:
        graph = extractor.extract(prompt, None, ())
        clean = generator.generate(GenerationRequest(prompt=prompt, graph=graph))
        for source in [clean] + [apply_defect(clean, kind, schema) for kind in DefectKind]:
            for variant in [source] + [_mutated(source, rng) for _ in range(3)]:
                outcome = parse(variant)
                outcomes[type(outcome)] += 1
                digest.update(repr(outcome).encode())
    assert sum(outcomes.values()) == 4 * 825
    assert min(outcomes.values()) > 500  # both outcomes are well represented
    assert digest.hexdigest()[:16] == "6e2601303367ed5d"

"""Recursive-descent parser producing a Script or a SyntaxFailure value.

A SyntaxFailure is a value, not an exception: the first verification layer
consumes it directly. The parser recovers at statement boundaries so a single
pass reports every syntax error it can find.

Nesting is bounded by ``MAX_NESTING``, so that the parser and every later walk
over the tree (analysis, execution, serialization) recurse a bounded number
of times. A point in a statement is as deep as the blocks around the
statement, the parentheses around the point, and the operators and postfix
operations applied above it; the token that goes one level deeper is a syntax
error.
"""

from __future__ import annotations

from typing import NamedTuple

from . import nodes
from .lexer import Token, tokenize
from .nodes import (
    Assign,
    Attribute,
    BinOp,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    IfStmt,
    ImportStmt,
    Index,
    IntLit,
    MAX_INT_DIGITS,
    Name,
    NoneLit,
    Stmt,
    StringLit,
    UnaryOp,
    int_of_digits,
)


class SyntaxIssue(NamedTuple):
    line: int
    column: int
    message: str


class SyntaxFailure(NamedTuple):
    """The outcome of parsing ill-formed source: every error found, in order."""

    errors: tuple[SyntaxIssue, ...]


class Script(NamedTuple):
    """A parsed program. Equality is structural and ignores source locations."""

    statements: tuple[Stmt, ...]


MAX_NESTING = 64
NESTING_MESSAGE = f"nested more than {MAX_NESTING} levels deep"

# Binding power of each binary operator; unary minus binds tighter than all.
_COMPARE, _UNARY = 1, 4
_BINARY = {
    **dict.fromkeys(nodes.COMPARE_OPS, _COMPARE),
    **dict.fromkeys(nodes.ADD_OPS, 2),
    **dict.fromkeys(nodes.MUL_OPS, 3),
}


_new = tuple.__new__  # builds a node from (line, col, *payload) directly


class _ParseAbort(Exception):
    pass


class _Parser:
    """Reads ``tokens`` from ``pos``. The hot paths test a token inline, and a
    Token is a tuple, so ``tok[:2]`` compares its kind and text at once.

    ``depth`` counts the levels around the expression being parsed: blocks,
    parentheses, and the nodes that will hold it. ``height`` is the number of
    nodes on the longest path down the expression parsed last, leaves not
    counted; a node is too deep when the two together pass ``MAX_NESTING``.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.height = 0
        self.errors: list[SyntaxIssue] = []

    # ---- token plumbing ----

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            if kind != "EOF":
                self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: str | None = None, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            self.error(tok, f"expected {what or text or kind.lower()}")
        self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> None:
        self.errors.append(SyntaxIssue(tok.line, tok.col, message))
        raise _ParseAbort

    # ---- recovery ----

    def _sync_statement(self) -> None:
        """Skip to the end of the current line; swallow any block it opened."""
        depth = 0
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "EOF":
                return
            if tok.kind == "INDENT":
                depth += 1
            elif tok.kind == "DEDENT":
                if depth == 0:
                    return
                depth -= 1
            elif tok.kind == "NEWLINE" and depth == 0:
                self.advance()
                # A block belonging to the broken statement follows; skip it too.
                if self.check("INDENT"):
                    continue
                return
            self.advance()

    # ---- grammar ----

    def parse_module(self) -> tuple[Stmt, ...]:
        statements: list[Stmt] = []
        tok = self.tokens[self.pos]
        while tok.kind != "EOF":
            if tok.kind == "NEWLINE":
                self.pos += 1
            elif tok.kind == "DEDENT" or tok.kind == "INDENT":
                self.pos += 1
                self.errors.append(SyntaxIssue(tok.line, tok.col, "unexpected indentation"))
            else:
                stmt = self._statement()
                if stmt is not None:
                    statements.append(stmt)
            tok = self.tokens[self.pos]
        return tuple(statements)

    def _block(self, opener: Token) -> tuple[Stmt, ...]:
        if self.depth >= MAX_NESTING:
            self.error(opener, NESTING_MESSAGE)
        self.expect("NEWLINE", what="end of line")
        self.expect("INDENT", what="an indented block")
        self.depth += 1
        body: list[Stmt] = []
        kind = self.tokens[self.pos].kind
        while kind != "DEDENT" and kind != "EOF":
            if kind == "NEWLINE":
                self.pos += 1
            else:
                stmt = self._statement()
                if stmt is not None:
                    body.append(stmt)
            kind = self.tokens[self.pos].kind
        self.depth -= 1
        self.accept("DEDENT")
        # An empty body needs no error of its own: INDENT comes only before a
        # line with tokens, so every line here failed to parse or to lex, and
        # that failure is already reported.
        return tuple(body)

    def _statement(self) -> Stmt | None:
        depth = self.depth
        try:
            return self._statement_inner()
        except _ParseAbort:
            self.depth = depth
            self._sync_statement()
            return None

    def _statement_inner(self) -> Stmt:
        tok = self.tokens[self.pos]
        if tok.kind == "KW" and tok.text == "import":
            return self._import_stmt()
        if tok.kind == "KW" and tok.text == "for":
            return self._for_stmt()
        if tok.kind == "KW" and tok.text == "if":
            return self._if_stmt()
        if tok.kind == "KW" and tok.text == "else":
            self.error(tok, "'else' without matching 'if'")
        if tok.kind == "NAME" and self.tokens[self.pos + 1][:2] == ("OP", "="):
            self.pos += 2
            stmt = _new(Assign, (tok.line, tok.col, tok.text, self._expression()))
        else:
            stmt = _new(ExprStmt, (tok.line, tok.col, self._expression()))
        end = self.tokens[self.pos]
        if end.kind != "NEWLINE":
            self.error(end, "expected end of line")
        self.pos += 1
        return stmt

    def _import_stmt(self) -> Stmt:
        kw = self.advance()
        parts = [self.expect("NAME", what="a module name").text]
        while self.tokens[self.pos][:2] == ("OP", "."):
            self.pos += 1
            parts.append(self.expect("NAME", what="a name after '.'").text)
        self.expect("NEWLINE", what="end of line")
        return _new(ImportStmt, (kw.line, kw.col, ".".join(parts)))

    def _for_stmt(self) -> Stmt:
        kw = self.advance()
        var = self.expect("NAME", what="a loop variable")
        self.expect("KW", "in")
        iterable = self._expression()
        self.expect("OP", ":")
        body = self._block(kw)
        return _new(ForStmt, (kw.line, kw.col, var.text, iterable, body))

    def _if_stmt(self) -> Stmt:
        kw = self.advance()
        test = self._expression()
        self.expect("OP", ":")
        body = self._block(kw)
        orelse: tuple[Stmt, ...] = ()
        mark = self.pos
        while self.accept("NEWLINE"):
            pass
        if self.accept("KW", "else"):
            self.expect("OP", ":")
            orelse = self._block(kw)
        else:
            self.pos = mark
        return _new(IfStmt, (kw.line, kw.col, test, body, orelse))

    # ---- expressions ----

    def _nested(self, opener: Token, min_prec: int = 1) -> Expr:
        """An expression one level below the current one, which ``opener`` opens."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(opener, NESTING_MESSAGE)
        expr = self._expression(min_prec)
        self.depth -= 1
        return expr

    def _expression(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over ``_BINARY``: operators of equal rank group
        left, and a comparison takes no further comparison as either operand."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text == "-":
            self.pos += 1
            left = _new(UnaryOp, (tok.line, tok.col, "-", self._nested(tok, _UNARY)))
            self.height += 1  # as deep as the operand, which was checked one level down
        else:
            left = self._postfix()
        while True:
            tok = self.tokens[self.pos]
            prec = _BINARY.get(tok.text, 0) if tok.kind == "OP" else 0
            if prec < min_prec:
                return left
            self.pos += 1
            height = self.height
            right = self._nested(tok, prec + 1)
            self._grow(tok, height)
            left = _new(BinOp, (tok.line, tok.col, tok.text, left, right))
            if prec == _COMPARE:
                return left

    def _grow(self, tok: Token, height: int) -> None:
        """Account for the node that ``tok`` builds over a subtree ``height`` high
        and the subtree parsed last; that node may not sit too deep."""
        height = max(height, self.height) + 1
        if self.depth + height > MAX_NESTING:
            self.error(tok, NESTING_MESSAGE)
        self.height = height

    def _postfix(self) -> Expr:
        self.height = 0
        expr = self._atom()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind != "OP":
                return expr
            height = self.height
            if tok.text == ".":
                attr = self.tokens[self.pos + 1]
                if attr.kind != "NAME":
                    self.error(attr, "expected a name after '.'")
                self.pos += 2
                expr = _new(Attribute, (tok.line, tok.col, expr, attr.text))
            elif tok.text == "(":
                self.pos += 1
                args: list[Expr] = []
                if not self.check("OP", ")"):
                    args.append(self._nested(tok))
                    height = max(height, self.height)
                    while self.tokens[self.pos][:2] == ("OP", ","):
                        self.pos += 1
                        args.append(self._nested(tok))
                        height = max(height, self.height)
                self.expect("OP", ")")
                expr = _new(Call, (tok.line, tok.col, expr, tuple(args)))
            elif tok.text == "[":
                self.pos += 1
                index = self._nested(tok)
                self.expect("OP", "]")
                expr = _new(Index, (tok.line, tok.col, expr, index))
            else:
                return expr
            self._grow(tok, height)

    def _atom(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "NAME":
            self.pos += 1
            return _new(Name, (tok.line, tok.col, tok.text))
        if tok.kind == "INT":
            if len(tok.text) > MAX_INT_DIGITS:
                self.error(tok, f"integer literal has more than {MAX_INT_DIGITS} digits")
            self.pos += 1
            return _new(IntLit, (tok.line, tok.col, int_of_digits(tok.text)))
        if tok.kind == "FLOAT":
            self.pos += 1
            return _new(FloatLit, (tok.line, tok.col, float(tok.text)))
        if tok.kind == "STRING":
            self.pos += 1
            return _new(StringLit, (tok.line, tok.col, tok.text))
        if tok.kind == "KW" and tok.text in ("True", "False"):
            self.pos += 1
            return _new(BoolLit, (tok.line, tok.col, tok.text == "True"))
        if tok.kind == "KW" and tok.text == "None":
            self.pos += 1
            return _new(NoneLit, (tok.line, tok.col))
        if tok.kind == "OP" and tok.text == "(":
            self.pos += 1
            inner = self._nested(tok)
            self.expect("OP", ")")
            return inner
        self.error(tok, f"unexpected {tok.text!r}" if tok.text else f"unexpected {tok.kind.lower()}")
        raise AssertionError("unreachable")


def parse(source: str) -> Script | SyntaxFailure:
    """Parse source text; returns a Script, or a SyntaxFailure listing all errors."""
    tokens, lex_issues = tokenize(source)
    parser = _Parser(tokens)
    statements = parser.parse_module()
    issues = [SyntaxIssue(li.line, li.col, li.message) for li in lex_issues]
    issues.extend(parser.errors)
    if issues:
        issues.sort(key=lambda i: (i.line, i.column))
        return SyntaxFailure(errors=tuple(issues))
    return Script(statements)

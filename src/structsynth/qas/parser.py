"""Recursive-descent parser producing a Script or a SyntaxFailure value.

A SyntaxFailure is a value, not an exception: the first verification layer
consumes it directly. The parser recovers at statement boundaries so a single
pass reports every syntax error it can find.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SyntaxIssue:
    line: int
    column: int
    message: str


@dataclass(frozen=True)
class SyntaxFailure:
    """The outcome of parsing ill-formed source: every error found, in order."""

    errors: tuple[SyntaxIssue, ...]


@dataclass(frozen=True)
class Script:
    """A parsed program. Equality is structural and ignores source locations."""

    source: str = field(compare=False)
    statements: tuple[Stmt, ...]

    def to_source(self) -> str:
        """Serialize to the normalized form (4-space indent, canonical spacing)."""
        return nodes.module_to_source(self.statements)


# Binding power of each binary operator; unary minus binds tighter than all.
_COMPARE, _UNARY = 1, 4
_BINARY = {
    **dict.fromkeys(nodes.COMPARE_OPS, _COMPARE),
    **dict.fromkeys(nodes.ADD_OPS, 2),
    **dict.fromkeys(nodes.MUL_OPS, 3),
}


class _ParseAbort(Exception):
    pass


class _Parser:
    """Reads ``tokens`` from ``pos``. The hot paths test a token inline, and a
    Token is a tuple, so ``tok[:2]`` compares its kind and text at once."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
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

    def _block(self) -> tuple[Stmt, ...]:
        self.expect("NEWLINE", what="end of line")
        self.expect("INDENT", what="an indented block")
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
        self.accept("DEDENT")
        if not body:
            tok = self.tokens[self.pos]
            self.errors.append(SyntaxIssue(tok.line, tok.col, "empty block"))
        return tuple(body)

    def _statement(self) -> Stmt | None:
        try:
            return self._statement_inner()
        except _ParseAbort:
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
            stmt = Assign(target=tok.text, value=self._expression(), line=tok.line, col=tok.col)
        else:
            stmt = ExprStmt(value=self._expression(), line=tok.line, col=tok.col)
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
        return ImportStmt(name=".".join(parts), line=kw.line, col=kw.col)

    def _for_stmt(self) -> Stmt:
        kw = self.advance()
        var = self.expect("NAME", what="a loop variable")
        self.expect("KW", "in")
        iterable = self._expression()
        self.expect("OP", ":")
        body = self._block()
        return ForStmt(var=var.text, iterable=iterable, body=body, line=kw.line, col=kw.col)

    def _if_stmt(self) -> Stmt:
        kw = self.advance()
        test = self._expression()
        self.expect("OP", ":")
        body = self._block()
        orelse: tuple[Stmt, ...] = ()
        mark = self.pos
        while self.accept("NEWLINE"):
            pass
        if self.accept("KW", "else"):
            self.expect("OP", ":")
            orelse = self._block()
        else:
            self.pos = mark
        return IfStmt(test=test, body=body, orelse=orelse, line=kw.line, col=kw.col)

    # ---- expressions ----

    def _expression(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over ``_BINARY``: operators of equal rank group
        left, and a comparison takes no further comparison as either operand."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text == "-":
            self.pos += 1
            left = UnaryOp(op="-", operand=self._expression(_UNARY), line=tok.line, col=tok.col)
        else:
            left = self._postfix()
        while True:
            tok = self.tokens[self.pos]
            prec = _BINARY.get(tok.text, 0) if tok.kind == "OP" else 0
            if prec < min_prec:
                return left
            self.pos += 1
            right = self._expression(prec + 1)
            left = BinOp(op=tok.text, left=left, right=right, line=tok.line, col=tok.col)
            if prec == _COMPARE:
                return left

    def _postfix(self) -> Expr:
        expr = self._atom()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind != "OP":
                return expr
            if tok.text == ".":
                attr = self.tokens[self.pos + 1]
                if attr.kind != "NAME":
                    self.error(attr, "expected a name after '.'")
                self.pos += 2
                expr = Attribute(value=expr, attr=attr.text, line=tok.line, col=tok.col)
            elif tok.text == "(":
                self.pos += 1
                args: list[Expr] = []
                if not self.check("OP", ")"):
                    args.append(self._expression())
                    while self.tokens[self.pos][:2] == ("OP", ","):
                        self.pos += 1
                        args.append(self._expression())
                self.expect("OP", ")")
                expr = Call(func=expr, args=tuple(args), line=tok.line, col=tok.col)
            elif tok.text == "[":
                self.pos += 1
                index = self._expression()
                self.expect("OP", "]")
                expr = Index(value=expr, index=index, line=tok.line, col=tok.col)
            else:
                return expr

    def _atom(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "NAME":
            self.pos += 1
            return Name(id=tok.text, line=tok.line, col=tok.col)
        if tok.kind == "INT":
            if len(tok.text) > MAX_INT_DIGITS:
                self.error(tok, f"integer literal has more than {MAX_INT_DIGITS} digits")
            self.pos += 1
            return IntLit(value=int_of_digits(tok.text), line=tok.line, col=tok.col)
        if tok.kind == "FLOAT":
            self.pos += 1
            return FloatLit(value=float(tok.text), line=tok.line, col=tok.col)
        if tok.kind == "STRING":
            self.pos += 1
            return StringLit(value=tok.text, line=tok.line, col=tok.col)
        if tok.kind == "KW" and tok.text in ("True", "False"):
            self.pos += 1
            return BoolLit(value=tok.text == "True", line=tok.line, col=tok.col)
        if tok.kind == "KW" and tok.text == "None":
            self.pos += 1
            return NoneLit(line=tok.line, col=tok.col)
        if tok.kind == "OP" and tok.text == "(":
            self.pos += 1
            inner = self._expression()
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
    return Script(source=source, statements=statements)

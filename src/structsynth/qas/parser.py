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


class _ParseAbort(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[SyntaxIssue] = []

    # ---- token plumbing ----

    def peek(self) -> Token:
        return self.tokens[self.pos]

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
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            want = what or (text if text else kind.lower())
            self.error(got, f"expected {want}")
        return tok

    def error(self, tok: Token, message: str) -> None:
        self.errors.append(SyntaxIssue(tok.line, tok.col, message))
        raise _ParseAbort

    # ---- recovery ----

    def _sync_statement(self) -> None:
        """Skip to the end of the current line; swallow any block it opened."""
        depth = 0
        while True:
            tok = self.peek()
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
        while not self.check("EOF"):
            if self.accept("NEWLINE"):
                continue
            if self.check("DEDENT") or self.check("INDENT"):
                tok = self.advance()
                self.errors.append(SyntaxIssue(tok.line, tok.col, "unexpected indentation"))
                continue
            stmt = self._statement()
            if stmt is not None:
                statements.append(stmt)
        return tuple(statements)

    def _block(self) -> tuple[Stmt, ...]:
        self.expect("NEWLINE", what="end of line")
        self.expect("INDENT", what="an indented block")
        body: list[Stmt] = []
        while not self.check("DEDENT") and not self.check("EOF"):
            if self.accept("NEWLINE"):
                continue
            stmt = self._statement()
            if stmt is not None:
                body.append(stmt)
        self.accept("DEDENT")
        if not body:
            tok = self.peek()
            self.errors.append(SyntaxIssue(tok.line, tok.col, "empty block"))
        return tuple(body)

    def _statement(self) -> Stmt | None:
        try:
            return self._statement_inner()
        except _ParseAbort:
            self._sync_statement()
            return None

    def _statement_inner(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "KW" and tok.text == "import":
            return self._import_stmt()
        if tok.kind == "KW" and tok.text == "for":
            return self._for_stmt()
        if tok.kind == "KW" and tok.text == "if":
            return self._if_stmt()
        if tok.kind == "KW" and tok.text == "else":
            self.error(tok, "'else' without matching 'if'")
        if tok.kind == "NAME" and self._lookahead_is_assign():
            name = self.advance()
            self.expect("OP", "=")
            value = self._expression()
            self.expect("NEWLINE", what="end of line")
            return Assign(target=name.text, value=value, line=name.line, col=name.col)
        value = self._expression()
        self.expect("NEWLINE", what="end of line")
        return ExprStmt(value=value, line=tok.line, col=tok.col)

    def _lookahead_is_assign(self) -> bool:
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        return nxt is not None and nxt.kind == "OP" and nxt.text == "="

    def _import_stmt(self) -> Stmt:
        kw = self.advance()
        parts = [self.expect("NAME", what="a module name").text]
        while self.accept("OP", "."):
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
        if self.check("KW", "else"):
            self.advance()
            self.expect("OP", ":")
            orelse = self._block()
        else:
            self.pos = mark
        return IfStmt(test=test, body=body, orelse=orelse, line=kw.line, col=kw.col)

    # ---- expressions ----

    def _expression(self) -> Expr:
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._arith()
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text in nodes.COMPARE_OPS:
            self.pos += 1
            right = self._arith()
            return BinOp(op=tok.text, left=left, right=right, line=tok.line, col=tok.col)
        return left

    def _arith(self) -> Expr:
        left = self._term()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "OP" and tok.text in nodes.ADD_OPS:
                self.pos += 1
                right = self._term()
                left = BinOp(op=tok.text, left=left, right=right, line=tok.line, col=tok.col)
            else:
                return left

    def _term(self) -> Expr:
        left = self._factor()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "OP" and tok.text in nodes.MUL_OPS:
                self.pos += 1
                right = self._factor()
                left = BinOp(op=tok.text, left=left, right=right, line=tok.line, col=tok.col)
            else:
                return left

    def _factor(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text == "-":
            self.pos += 1
            operand = self._factor()
            return UnaryOp(op="-", operand=operand, line=tok.line, col=tok.col)
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._atom()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "OP" and tok.text == ".":
                self.pos += 1
                attr = self.expect("NAME", what="a name after '.'")
                expr = Attribute(value=expr, attr=attr.text, line=tok.line, col=tok.col)
            elif tok.kind == "OP" and tok.text == "(":
                self.pos += 1
                args: list[Expr] = []
                if not self.check("OP", ")"):
                    args.append(self._expression())
                    while self.accept("OP", ","):
                        args.append(self._expression())
                self.expect("OP", ")")
                expr = Call(func=expr, args=tuple(args), line=tok.line, col=tok.col)
            elif tok.kind == "OP" and tok.text == "[":
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

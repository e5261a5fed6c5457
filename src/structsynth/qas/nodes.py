"""AST node types for the scripting language, plus the normalizing serializer.

Nodes compare structurally: source locations are carried for diagnostics but
excluded from equality, so two parses of equivalent text compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class _Node:
    line: int = field(compare=False, kw_only=True, default=0)
    col: int = field(compare=False, kw_only=True, default=0)

    @property
    def location(self) -> tuple[int, int]:
        return (self.line, self.col)


# ---- expressions ----


@dataclass(frozen=True)
class Name(_Node):
    id: str


@dataclass(frozen=True)
class IntLit(_Node):
    value: int


# An integer literal has at most MAX_INT_DIGITS digits, and the runtime prints
# no longer int. Python refuses int/str conversions past a limit that the
# environment may lower to 640 digits (PYTHONINTMAXSTRDIGITS), so both helpers
# convert in pieces of that size and give the same result under any limit.
MAX_INT_DIGITS = 4300
_PIECE = 640
_PIECE_BASE = 10**_PIECE


def int_of_digits(text: str) -> int:
    value = 0
    for i in range(0, len(text), _PIECE):
        piece = text[i : i + _PIECE]
        value = value * 10 ** len(piece) + int(piece)
    return value


def int_text(value: int) -> str:
    if -_PIECE_BASE < value < _PIECE_BASE:
        return str(value)
    head, tail = divmod(abs(value), _PIECE_BASE)
    return ("-" if value < 0 else "") + int_text(head) + f"{tail:0{_PIECE}d}"


@dataclass(frozen=True)
class FloatLit(_Node):
    value: float


@dataclass(frozen=True)
class StringLit(_Node):
    value: str


@dataclass(frozen=True)
class BoolLit(_Node):
    value: bool


@dataclass(frozen=True)
class NoneLit(_Node):
    pass


@dataclass(frozen=True)
class Attribute(_Node):
    value: "Expr"
    attr: str


@dataclass(frozen=True)
class Index(_Node):
    value: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    func: "Expr"
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class UnaryOp(_Node):
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: "Expr"
    right: "Expr"


Expr = Name | IntLit | FloatLit | StringLit | BoolLit | NoneLit | Attribute | Index | Call | UnaryOp | BinOp


# ---- statements ----


@dataclass(frozen=True)
class ImportStmt(_Node):
    name: str


@dataclass(frozen=True)
class Assign(_Node):
    target: str
    value: Expr


@dataclass(frozen=True)
class ExprStmt(_Node):
    value: Expr


@dataclass(frozen=True)
class ForStmt(_Node):
    var: str
    iterable: Expr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class IfStmt(_Node):
    test: Expr
    body: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


Stmt = ImportStmt | Assign | ExprStmt | ForStmt | IfStmt

COMPARE_OPS = ("==", "!=", "<=", ">=", "<", ">")
ADD_OPS = ("+", "-")
MUL_OPS = ("*", "/", "%")

_PREC_CMP = 1
_PREC_ADD = 2
_PREC_MUL = 3
_PREC_UNARY = 4
_PREC_POSTFIX = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in COMPARE_OPS:
            return _PREC_CMP
        if e.op in ADD_OPS:
            return _PREC_ADD
        return _PREC_MUL
    if isinstance(e, UnaryOp):
        return _PREC_UNARY
    return _PREC_POSTFIX


def expr_to_source(e: Expr) -> str:
    """Serialize an expression with minimal parentheses and canonical spacing."""
    if isinstance(e, Name):
        return e.id
    if isinstance(e, IntLit):
        return int_text(e.value)
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, StringLit):
        body = e.value.replace("\\", "\\\\").replace('"', '\\"')
        body = body.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{body}"'
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, NoneLit):
        return "None"
    if isinstance(e, Attribute):
        return f"{_wrap(e.value, _PREC_POSTFIX)}.{e.attr}"
    if isinstance(e, Index):
        return f"{_wrap(e.value, _PREC_POSTFIX)}[{expr_to_source(e.index)}]"
    if isinstance(e, Call):
        args = ", ".join(expr_to_source(a) for a in e.args)
        return f"{_wrap(e.func, _PREC_POSTFIX)}({args})"
    if isinstance(e, UnaryOp):
        return f"{e.op}{_wrap(e.operand, _PREC_UNARY)}"
    if isinstance(e, BinOp):
        me = _prec(e)
        left = _wrap(e.left, me)
        # Binary operators associate left; right operand needs one level more.
        right = _wrap(e.right, me + 1)
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, need: int) -> str:
    text = expr_to_source(e)
    if _prec(e) < need:
        return f"({text})"
    return text


def stmt_header(s: Stmt) -> str:
    """One-line normalized form of a statement (block headers end with ':')."""
    if isinstance(s, ImportStmt):
        return f"import {s.name}"
    if isinstance(s, Assign):
        return f"{s.target} = {expr_to_source(s.value)}"
    if isinstance(s, ExprStmt):
        return expr_to_source(s.value)
    if isinstance(s, ForStmt):
        return f"for {s.var} in {expr_to_source(s.iterable)}:"
    if isinstance(s, IfStmt):
        return f"if {expr_to_source(s.test)}:"
    raise TypeError(f"not a statement node: {s!r}")


def stmt_to_source(s: Stmt, indent: int = 0) -> list[str]:
    pad = "    " * indent
    lines = [pad + stmt_header(s)]
    if isinstance(s, ForStmt):
        for child in s.body:
            lines.extend(stmt_to_source(child, indent + 1))
    elif isinstance(s, IfStmt):
        for child in s.body:
            lines.extend(stmt_to_source(child, indent + 1))
        if s.orelse:
            lines.append(pad + "else:")
            for child in s.orelse:
                lines.extend(stmt_to_source(child, indent + 1))
    return lines


def module_to_source(statements: tuple[Stmt, ...]) -> str:
    lines: list[str] = []
    for s in statements:
        lines.extend(stmt_to_source(s))
    return "\n".join(lines) + ("\n" if lines else "")

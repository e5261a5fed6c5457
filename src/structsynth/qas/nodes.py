"""AST node types for the scripting language, plus the normalizing serializer.

Nodes compare structurally: source locations are carried for diagnostics but
excluded from equality, so two parses of equivalent text compare equal.
"""

from __future__ import annotations

try:
    from _collections import _tuplegetter  # the field reader NamedTuple uses
except ImportError:  # pragma: no cover - other Python implementations
    from operator import itemgetter

    def _tuplegetter(index: int, doc: str) -> property:
        return property(itemgetter(index), doc=doc)


class Node(tuple):
    """A node is the tuple ``(line, col, *payload)``, built once and never changed.

    A subclass declares ``__slots__ = ()`` and annotates its payload fields,
    as a NamedTuple does; a trailing field may have a default. Equality and
    hash read the class and the payload, so ``line`` and ``col`` never take
    part. ``repr`` lists every field by name, ``line`` and ``col`` first. The
    parser builds a node positionally with ``tuple.__new__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    line = _tuplegetter(0, "Source line of the node.")
    col = _tuplegetter(1, "Source column of the node.")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
        for i, name in enumerate(cls._fields, start=2):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __new__(cls, *args, line: int = 0, col: int = 0, **kwargs):
        fields = cls._fields
        missing = fields[len(args):]
        try:
            args += tuple(kwargs.pop(f) if f in kwargs else cls._defaults[f] for f in missing)
        except KeyError as exc:
            raise TypeError(f"{cls.__name__}() missing argument {exc}") from None
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{cls.__name__}() takes fields {fields}")
        return tuple.__new__(cls, (line, col, *args))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self[2:] == other[2:]

    def __ne__(self, other: object) -> bool:  # tuple's own would compare locations
        return not self == other

    def __hash__(self) -> int:
        return hash(self[2:])

    def __repr__(self) -> str:
        payload = "".join(f", {n}={v!r}" for n, v in zip(self._fields, self[2:]))
        return f"{type(self).__qualname__}(line={self[0]!r}, col={self[1]!r}{payload})"

    def _replace(self, **changes):
        """This node with some payload fields changed, at the same location."""
        payload = tuple(changes.pop(f, v) for f, v in zip(self._fields, self[2:]))
        if changes:
            raise ValueError(f"{type(self).__name__} has no fields {sorted(changes)}")
        return tuple.__new__(type(self), (self[0], self[1], *payload))

    @property
    def location(self) -> tuple[int, int]:
        return self[:2]


# ---- expressions ----


class Name(Node):
    __slots__ = ()
    id: str


class IntLit(Node):
    __slots__ = ()
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


class FloatLit(Node):
    __slots__ = ()
    value: float


class StringLit(Node):
    __slots__ = ()
    value: str


class BoolLit(Node):
    __slots__ = ()
    value: bool


class NoneLit(Node):
    __slots__ = ()


class Attribute(Node):
    __slots__ = ()
    value: "Expr"
    attr: str


class Index(Node):
    __slots__ = ()
    value: "Expr"
    index: "Expr"


class Call(Node):
    __slots__ = ()
    func: "Expr"
    args: tuple["Expr", ...]


class UnaryOp(Node):
    __slots__ = ()
    op: str
    operand: "Expr"


class BinOp(Node):
    __slots__ = ()
    op: str
    left: "Expr"
    right: "Expr"


Expr = Name | IntLit | FloatLit | StringLit | BoolLit | NoneLit | Attribute | Index | Call | UnaryOp | BinOp


# ---- statements ----


class ImportStmt(Node):
    __slots__ = ()
    name: str


class Assign(Node):
    __slots__ = ()
    target: str
    value: Expr


class ExprStmt(Node):
    __slots__ = ()
    value: Expr


class ForStmt(Node):
    __slots__ = ()
    var: str
    iterable: Expr
    body: tuple["Stmt", ...]


class IfStmt(Node):
    __slots__ = ()
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

"""Static analysis over parsed scripts: type inference.

``analyze`` turns a program's text into a ``Candidate`` once: its parse and
its types. Verification, uncertainty scoring and execution read that value
instead of parsing the text again.

Inference is a forward dataflow pass seeded by the schema roots. It resolves
a receiver type for every method call it can, tracks nullability until an
explicit None-comparison guard discharges it, and records everything later
verification layers need: call sites, every other operation whose operand
kinds ``kinds`` constrains, imports, and uses of names with no dominating
definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .. import kinds
from ..schema import UNKNOWN, ApiSchema, TypeRef
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
    Name,
    NoneLit,
    Stmt,
    StringLit,
    UnaryOp,
)
from .parser import Script, SyntaxFailure, parse

Location = tuple[int, int]


class CallSite(NamedTuple):
    receiver_type: TypeRef
    method: str
    arg_types: tuple[TypeRef, ...]
    location: Location
    returns: TypeRef | None
    mutates: bool


class Operation(NamedTuple):
    """One use of values whose kinds ``kinds`` constrains.

    ``op`` is a binary operator or one of ``print``, ``len``, ``range``,
    ``for``, ``index``, ``neg``, ``call``, ``method`` and ``attribute``.
    ``node`` is the expression that performs it; for ``for``, the expression
    iterated. ``allowed`` is the table's verdict; a receiver that may be None
    is judged as if it were not, since layer 2 reports that fault.
    """

    op: str
    operands: tuple[TypeRef, ...]
    node: Expr
    allowed: bool


class UndefinedUse(NamedTuple):
    name: str
    location: Location
    reason: str  # "undefined" or "not dominated"


@dataclass
class TypedScript:
    """A script plus everything inference learned about it."""

    call_sites: tuple[CallSite, ...]
    operations: tuple[Operation, ...]
    imports: tuple[str, ...]
    undefined_uses: tuple[UndefinedUse, ...]


def infer_types(script: Script, schema: ApiSchema) -> TypedScript:
    """Run forward type inference over a parsed script."""
    inf = _Inference(schema)
    return inf.run(script)


class Candidate(NamedTuple):
    """One generated program, parsed and typed once for every later stage.

    An unparseable program has ``typed`` None.
    """

    source: str
    script: Script | SyntaxFailure
    typed: TypedScript | None


def analyze(source: str, schema: ApiSchema) -> Candidate:
    """Parse and type a program."""
    script = parse(source)
    if isinstance(script, SyntaxFailure):
        return Candidate(source, script, None)
    return Candidate(source, script, infer_types(script, schema))


class _Inference:
    def __init__(self, schema: ApiSchema):
        self.schema = schema
        self.env: dict[str, TypeRef] = {}
        self.definite: set[str] = set()
        self.call_sites: list[CallSite] = []
        self.operations: list[Operation] = []
        self.imports: list[str] = []
        self.undefined_uses: list[UndefinedUse] = []

    def run(self, script: Script) -> TypedScript:
        for root_var, root_type in self.schema.roots.items():
            self.env[root_var] = TypeRef(root_type)
            self.definite.add(root_var)
        self._walk(script.statements)
        return TypedScript(
            call_sites=tuple(self.call_sites),
            operations=tuple(self.operations),
            imports=tuple(self.imports),
            undefined_uses=tuple(self.undefined_uses),
        )

    # ---- statement walk ----

    def _walk(self, statements: tuple[Stmt, ...]) -> set[str]:
        """Process a statement sequence; returns the set of assigned names."""
        assigned: set[str] = set()
        for s in statements:
            assigned |= self._stmt(s)
        return assigned

    def _stmt(self, s: Stmt) -> set[str]:
        if isinstance(s, ImportStmt):
            root = s.name.split(".")[0]
            self.imports.append(s.name)
            self.env[root] = kinds.MODULE_TYPE
            self.definite.add(root)
            return {root}
        if isinstance(s, Assign):
            value = self._expr(s.value)
            self.env[s.target] = value
            self.definite.add(s.target)
            return {s.target}
        if isinstance(s, ExprStmt):
            self._expr(s.value)
            return set()
        if isinstance(s, ForStmt):
            return self._for(s)
        if isinstance(s, IfStmt):
            return self._if(s)
        raise TypeError(f"not a statement node: {s!r}")

    def _for(self, s: ForStmt) -> set[str]:
        elem = self._apply("for", (self._expr(s.iterable),), s.iterable)
        pre_def = set(self.definite)
        records = (self.call_sites, self.operations, self.imports, self.undefined_uses)
        marks = [len(r) for r in records]
        while True:
            start = dict(self.env)
            self.env[s.var] = elem
            self.definite.add(s.var)
            assigned = self._walk(s.body) | {s.var}
            # The body may run zero times, or again on the state it left:
            # merge each binding it changed with the state it started from.
            # A new binding survives with its body type, not definite.
            carried = assigned & start.keys()
            for var in carried:
                self.env[var] = kinds.join(start[var], self.env[var])
            self.definite = set(pre_def)
            if all(self.env[var] == start[var] for var in carried):
                return assigned
            # A type widened: type the body again from the wider state.
            for r, n in zip(records, marks):
                del r[n:]

    def _if(self, s: IfStmt) -> set[str]:
        self._expr(s.test)
        guard = self._null_guard(s.test)
        pre_env = dict(self.env)
        pre_def = set(self.definite)

        if guard is not None and guard[1] == "ne":
            self._narrow(guard[0])
        assigned_then = self._walk(s.body)
        env_then = dict(self.env)

        self.env = dict(pre_env)
        self.definite = set(pre_def)
        assigned_else: set[str] = set()
        env_else = dict(pre_env)
        if s.orelse:
            if guard is not None and guard[1] == "eq":
                self._narrow(guard[0])
            assigned_else = self._walk(s.orelse)
            env_else = dict(self.env)

        self.env = dict(pre_env)
        self.definite = pre_def | (assigned_then & assigned_else if s.orelse else set())
        for var in assigned_then | assigned_else:
            t_then = env_then.get(var, pre_env.get(var))
            t_else = env_else.get(var, pre_env.get(var))
            if t_then is None or t_else is None:
                self.env[var] = t_then if t_then is not None else t_else  # type: ignore[assignment]
            else:
                self.env[var] = kinds.join(t_then, t_else)
        return assigned_then | assigned_else

    def _null_guard(self, test: Expr) -> tuple[str, str] | None:
        if not isinstance(test, BinOp) or test.op not in ("==", "!="):
            return None
        var: str | None = None
        if isinstance(test.left, Name) and isinstance(test.right, NoneLit):
            var = test.left.id
        elif isinstance(test.right, Name) and isinstance(test.left, NoneLit):
            var = test.right.id
        if var is None:
            return None
        return (var, "ne" if test.op == "!=" else "eq")

    def _narrow(self, var: str) -> None:
        binding = self.env.get(var)
        if binding is not None and binding.nullable:
            self.env[var] = binding.without_null()

    # ---- expression walk ----

    def _expr(self, e: Expr) -> TypeRef:
        if isinstance(e, Name):
            return self._name(e)
        if isinstance(e, IntLit):
            return kinds.INT_TYPE
        if isinstance(e, FloatLit):
            return kinds.FLOAT_TYPE
        if isinstance(e, StringLit):
            return kinds.STRING_TYPE
        if isinstance(e, BoolLit):
            return kinds.BOOL_TYPE
        if isinstance(e, NoneLit):
            return kinds.NONE_TYPE
        if isinstance(e, Attribute):
            return self._attribute(e)
        if isinstance(e, Index):
            return self._apply("index", (self._expr(e.value), self._expr(e.index)), e)
        if isinstance(e, Call):
            return self._call(e)
        if isinstance(e, UnaryOp):
            return self._apply("neg", (self._expr(e.operand),), e)
        if isinstance(e, BinOp):
            return self._apply(e.op, (self._expr(e.left), self._expr(e.right)), e)
        raise TypeError(f"not an expression node: {e!r}")

    def _apply(self, op: str, operands: tuple[TypeRef, ...], node: Expr) -> TypeRef:
        """Record ``op`` on ``operands``; the type it yields, or UNKNOWN when it fails."""
        allowed = kinds.allows(op, operands, self.schema)
        self.operations.append(Operation(op, operands, node, allowed))
        return kinds.result(op, operands) if allowed else UNKNOWN

    def _name(self, e: Name) -> TypeRef:
        binding = self.env.get(e.id)
        if binding is None:
            self.undefined_uses.append(UndefinedUse(e.id, e.location, "undefined"))
            return UNKNOWN
        if e.id not in self.definite:
            self.undefined_uses.append(UndefinedUse(e.id, e.location, "not dominated"))
        return binding

    def _attribute(self, e: Attribute) -> TypeRef:
        receiver = self._expr(e.value)
        read = kinds.attribute(receiver, e.attr, self.schema)
        self.operations.append(Operation("attribute", (receiver,), e, read is not None))
        return read if read is not None else UNKNOWN

    def _call(self, e: Call) -> TypeRef:
        if isinstance(e.func, Attribute):
            return self._method_call(e)
        arg_types = tuple(self._expr(a) for a in e.args)
        if isinstance(e.func, Name) and e.func.id in kinds.BUILTINS:
            return self._apply(e.func.id, arg_types, e)
        return self._apply("call", (self._expr(e.func),), e)

    def _method_call(self, e: Call) -> TypeRef:
        func = e.func
        assert isinstance(func, Attribute)
        receiver = self._expr(func.value)
        arg_types = tuple(self._expr(a) for a in e.args)
        sig = self.schema.method(receiver.base, func.attr)
        allowed = kinds.allows("method", (receiver.without_null(),), self.schema)
        self.operations.append(Operation("method", (receiver,), e, allowed))
        self.call_sites.append(
            CallSite(
                receiver_type=receiver,
                method=func.attr,
                arg_types=arg_types,
                location=e.location,
                returns=sig.returns if sig is not None else None,
                mutates=sig.mutates if sig is not None else False,
            )
        )
        return sig.returns if sig is not None else UNKNOWN

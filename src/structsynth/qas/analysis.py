"""Static analysis over parsed scripts: normalization and type inference.

``analyze`` turns a program's text into a ``Candidate`` once: its parse, its
types and its statement fingerprint. Verification, the loop guard and
uncertainty scoring read that value instead of parsing the text again.

Inference is a forward dataflow pass seeded by the schema roots. It resolves
a receiver type for every method call it can, tracks nullability until an
explicit None-comparison guard discharges it, and records everything later
verification layers need: call sites, builtin calls, loop iterables, attribute
reads, imports, enum-style dotted references, and uses of names with no
dominating definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    expr_to_source,
    stmt_header,
)
from .parser import Script, SyntaxFailure, parse

Location = tuple[int, int]

# Builtin callables: name -> (arity, param kind). Param kinds are checked at
# the API-alignment layer; "any" is unchecked.
BUILTINS: dict[str, tuple[int, str]] = {
    "print": (1, "any"),
    "len": (1, "many"),
    "range": (1, "int"),
}

_BOOL = TypeRef("bool")
_INT = TypeRef("int")
_FLOAT = TypeRef("float")
_STRING = TypeRef("string")
_VOID = TypeRef("void")
_NONE = TypeRef("void", nullable=True)


@dataclass(frozen=True)
class ModuleBinding:
    """An imported namespace; not a value type."""

    name: str


@dataclass(frozen=True)
class CallSite:
    receiver_text: str
    receiver_type: TypeRef
    method: str
    arg_types: tuple[TypeRef, ...]
    location: Location
    returns: TypeRef | None
    mutates: bool


@dataclass(frozen=True)
class BuiltinCall:
    name: str
    arg_types: tuple[TypeRef, ...]
    location: Location


@dataclass(frozen=True)
class LoopIterable:
    """What a ``for`` loop iterates over."""

    iterable_text: str
    iterable_type: TypeRef
    location: Location


@dataclass(frozen=True)
class AttributeRead:
    receiver_text: str
    receiver_type: TypeRef
    attribute: str
    location: Location


@dataclass(frozen=True)
class EnumRef:
    """A dotted reference that syntactically looks like an enum constant."""

    name: str
    location: Location


@dataclass(frozen=True)
class UndefinedUse:
    name: str
    location: Location
    reason: str  # "undefined" or "not dominated"


@dataclass
class TypedScript:
    """A script plus everything inference learned about it."""

    final_env: dict[str, TypeRef]
    call_sites: tuple[CallSite, ...]
    builtin_calls: tuple[BuiltinCall, ...]
    loop_iterables: tuple[LoopIterable, ...]
    attribute_reads: tuple[AttributeRead, ...]
    imports: tuple[str, ...]
    enum_refs: tuple[EnumRef, ...]
    undefined_uses: tuple[UndefinedUse, ...]


def normalize_statements(script: Script) -> frozenset[str]:
    """Whitespace-collapsed one-line forms of every statement, as a set.

    Block headers and nested statements each contribute one entry; comments
    and indentation width never survive normalization.
    """
    out: set[str] = set()

    def walk(statements: tuple[Stmt, ...]) -> None:
        for s in statements:
            out.add(stmt_header(s))
            if isinstance(s, ForStmt):
                walk(s.body)
            elif isinstance(s, IfStmt):
                walk(s.body)
                walk(s.orelse)

    walk(script.statements)
    return frozenset(out)


def infer_types(script: Script, schema: ApiSchema) -> TypedScript:
    """Run forward type inference over a parsed script."""
    inf = _Inference(schema)
    return inf.run(script)


@dataclass(frozen=True)
class Candidate:
    """One generated program, parsed and typed once for every later stage.

    An unparseable program has ``typed`` None and a line-based statement
    fingerprint, so similarity measures still see its text.
    """

    source: str
    script: Script | SyntaxFailure
    typed: TypedScript | None
    statements: frozenset[str]


def analyze(source: str, schema: ApiSchema) -> Candidate:
    """Parse, type and fingerprint a program."""
    script = parse(source)
    if isinstance(script, SyntaxFailure):
        lines = frozenset(line.strip() for line in source.splitlines() if line.strip())
        return Candidate(source, script, None, lines)
    return Candidate(source, script, infer_types(script, schema), normalize_statements(script))


def _dotted(expr: Expr) -> list[str] | None:
    """Flatten a pure Name/Attribute chain into its dotted segments."""
    parts: list[str] = []
    node = expr
    while isinstance(node, Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _Inference:
    def __init__(self, schema: ApiSchema):
        self.schema = schema
        self.env: dict[str, TypeRef | ModuleBinding] = {}
        self.definite: set[str] = set()
        self.call_sites: list[CallSite] = []
        self.builtin_calls: list[BuiltinCall] = []
        self.loop_iterables: list[LoopIterable] = []
        self.attribute_reads: list[AttributeRead] = []
        self.imports: list[str] = []
        self.enum_refs: list[EnumRef] = []
        self.undefined_uses: list[UndefinedUse] = []

    def run(self, script: Script) -> TypedScript:
        for root_var, root_type in self.schema.roots.items():
            self.env[root_var] = TypeRef(root_type)
            self.definite.add(root_var)
        self._walk(script.statements)
        final = {k: v for k, v in self.env.items() if isinstance(v, TypeRef)}
        return TypedScript(
            final_env=final,
            call_sites=tuple(self.call_sites),
            builtin_calls=tuple(self.builtin_calls),
            loop_iterables=tuple(self.loop_iterables),
            attribute_reads=tuple(self.attribute_reads),
            imports=tuple(self.imports),
            enum_refs=tuple(self.enum_refs),
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
            self.env[root] = ModuleBinding(root)
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
        iterable = self._as_type(self._expr(s.iterable))
        self.loop_iterables.append(
            LoopIterable(expr_to_source(s.iterable), iterable, s.location)
        )
        elem = iterable.element()
        pre_env = dict(self.env)
        pre_def = set(self.definite)
        self.env[s.var] = elem
        self.definite.add(s.var)
        assigned = self._walk(s.body) | {s.var}
        # The body may run zero times: merge against the pre-loop state.
        for var in assigned:
            post = self.env.get(var)
            pre = pre_env.get(var)
            if pre is None:
                continue  # new binding survives with its body type, not definite
            if pre != post:
                self.env[var] = UNKNOWN
        self.definite = pre_def
        return assigned

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
            elif t_then == t_else:
                self.env[var] = t_then
            else:
                self.env[var] = UNKNOWN
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
        if isinstance(binding, TypeRef) and binding.nullable:
            self.env[var] = binding.without_null()

    # ---- expression walk ----

    def _expr(self, e: Expr) -> TypeRef | ModuleBinding:
        if isinstance(e, Name):
            return self._name(e)
        if isinstance(e, IntLit):
            return _INT
        if isinstance(e, FloatLit):
            return _FLOAT
        if isinstance(e, StringLit):
            return _STRING
        if isinstance(e, BoolLit):
            return _BOOL
        if isinstance(e, NoneLit):
            return _NONE
        if isinstance(e, Attribute):
            return self._attribute(e)
        if isinstance(e, Index):
            return self._index(e)
        if isinstance(e, Call):
            return self._call(e)
        if isinstance(e, UnaryOp):
            operand = self._as_type(self._expr(e.operand))
            return operand if operand.base in ("int", "float") else UNKNOWN
        if isinstance(e, BinOp):
            return self._binop(e)
        raise TypeError(f"not an expression node: {e!r}")

    def _name(self, e: Name) -> TypeRef | ModuleBinding:
        binding = self.env.get(e.id)
        if binding is None:
            self.undefined_uses.append(UndefinedUse(e.id, e.location, "undefined"))
            return UNKNOWN
        if e.id not in self.definite:
            self.undefined_uses.append(UndefinedUse(e.id, e.location, "not dominated"))
        return binding

    def _attribute(self, e: Attribute) -> TypeRef | ModuleBinding:
        chain = _dotted(e)
        if chain is not None:
            base_binding = self.env.get(chain[0])
            if isinstance(base_binding, ModuleBinding) or base_binding is None:
                return self._namespace_chain(e, chain, base_binding)
        receiver = self._expr(e.value)
        if isinstance(receiver, ModuleBinding):
            return UNKNOWN
        self.attribute_reads.append(
            AttributeRead(expr_to_source(e.value), receiver, e.attr, e.location)
        )
        declared = self.schema.attribute(receiver.base, e.attr)
        return declared if declared is not None else UNKNOWN

    def _namespace_chain(
        self, e: Attribute, chain: list[str], base: ModuleBinding | None
    ) -> TypeRef | ModuleBinding:
        """Resolve module-rooted or unbound dotted chains.

        Three-segment-or-longer chains are recorded as enum reference
        candidates whether or not they resolve, so fabricated enum names
        stay countable downstream.
        """
        dotted = ".".join(chain)
        if len(chain) >= 3:
            self.enum_refs.append(EnumRef(dotted, e.location))
            if base is not None and chain[1] in self.schema.enums and len(chain) == 3:
                return TypeRef(chain[1])
            return UNKNOWN
        if base is None:
            self.undefined_uses.append(UndefinedUse(chain[0], e.location, "undefined"))
        return UNKNOWN

    def _index(self, e: Index) -> TypeRef:
        value = self._as_type(self._expr(e.value))
        self._expr(e.index)
        if value.many:
            return value.element()
        if value.base == "string":
            return _STRING
        return UNKNOWN

    def _call(self, e: Call) -> TypeRef:
        if isinstance(e.func, Attribute):
            return self._method_call(e)
        arg_types = tuple(self._as_type(self._expr(a)) for a in e.args)
        if isinstance(e.func, Name):
            builtin = BUILTINS.get(e.func.id)
            if builtin is not None:
                self.builtin_calls.append(BuiltinCall(e.func.id, arg_types, e.location))
                if e.func.id == "len":
                    return _INT
                if e.func.id == "range":
                    return TypeRef("int", many=True)
                return _VOID
            self._name(e.func)
            return UNKNOWN
        self._expr(e.func)
        return UNKNOWN

    def _method_call(self, e: Call) -> TypeRef:
        func = e.func
        assert isinstance(func, Attribute)
        receiver = self._expr(func.value)
        arg_types = tuple(self._as_type(self._expr(a)) for a in e.args)
        if isinstance(receiver, ModuleBinding):
            return UNKNOWN
        sig = self.schema.method(receiver.base, func.attr) if not receiver.is_unknown else None
        self.call_sites.append(
            CallSite(
                receiver_text=expr_to_source(func.value),
                receiver_type=receiver,
                method=func.attr,
                arg_types=arg_types,
                location=e.location,
                returns=sig.returns if sig is not None else None,
                mutates=sig.mutates if sig is not None else False,
            )
        )
        return sig.returns if sig is not None else UNKNOWN

    def _binop(self, e: BinOp) -> TypeRef:
        left = self._as_type(self._expr(e.left))
        right = self._as_type(self._expr(e.right))
        if e.op in ("==", "!=", "<", "<=", ">", ">="):
            return _BOOL
        numeric = {"int", "float"}
        if left.base in numeric and right.base in numeric and not (left.many or right.many):
            return _FLOAT if "float" in (left.base, right.base) else _INT
        if e.op == "+" and left.base == "string" and right.base == "string":
            return _STRING
        return UNKNOWN

    @staticmethod
    def _as_type(binding: TypeRef | ModuleBinding) -> TypeRef:
        return binding if isinstance(binding, TypeRef) else UNKNOWN

"""Mock execution environment: an object store plus a small interpreter.

A snapshot is a typed object graph loaded from JSON and checked against the
schema before anything runs. Method dispatch follows naming conventions:
``get*`` reads children or fields, ``find*`` searches children by name,
``set*`` writes a field. Missing data auto-materializes with typed defaults,
so a statically clean program never trips over an incomplete snapshot; what
remains fatal at runtime is exactly what static layers promise to prevent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import kinds
from .qas import nodes as qn
from .qas.parser import Script, SyntaxFailure, parse
from .schema import ApiSchema, ParseError, TypeRef, Violation, _shaped, read_json, valid_import

# Interpreter steps one execution may take; the verifier's L4 bound reads it too.
STEP_BUDGET = 100_000


class SnapshotError(Exception):
    """Snapshot does not conform to the schema; carries every violation."""

    def __init__(self, violations: list[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.location}: {v.message}" for v in violations)
        super().__init__(f"{len(violations)} snapshot violation(s): {lines}")


@dataclass
class ObjRecord:
    id: str
    type: str
    fields: dict = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class ObjRef:
    id: str
    type: str


@dataclass(frozen=True)
class Snapshot:
    """A conformance-checked object graph, shared read-only by every session.

    ``refs`` holds one interned ``ObjRef`` per record, built here once; a
    record's type never changes, so every session reads its refs from it.
    """

    objects: dict[str, ObjRecord]
    roots: dict[str, str]
    refs: dict[str, ObjRef] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        refs = {oid: ObjRef(oid, rec.type) for oid, rec in self.objects.items()}
        object.__setattr__(self, "refs", refs)


def load_snapshot(path: str | Path, schema: ApiSchema) -> Snapshot:
    return snapshot_from_dict(read_json(path, "snapshot"), schema)


def snapshot_from_dict(raw: dict, schema: ApiSchema) -> Snapshot:
    """Decode and conformance-check a snapshot document.

    Conformance is eager and exhaustive: fields, children or roots of the
    wrong shape, undeclared object types, dangling child ids, children keyed
    by non-methods, fields that their attribute or ``get*`` method types
    otherwise, empty root types, and schema methods that fit no dispatch
    convention are all collected and reported together. An enum field's text
    ``"<Enum>.<CONST>"`` is stored as that ``EnumVal``. Unbound schema roots
    bind to the first record of their type.
    """
    if not isinstance(raw, dict) or not isinstance(raw.get("objects"), list):
        raise ParseError("snapshot document needs an 'objects' list")
    violations: list[Violation] = []
    objects: dict[str, ObjRecord] = {}
    for i, item in enumerate(raw["objects"]):
        if not isinstance(item, dict) or "id" not in item or "type" not in item:
            violations.append(Violation(f"objects[{i}]", "record needs id and type"))
            continue
        children: dict[str, list[str]] = {}
        for key, kids in _shaped(item.get("children", {}), f"objects[{i}].children",
                                 violations).items():
            if isinstance(kids, list):
                children[key] = [str(c) for c in kids]
            else:
                violations.append(Violation(f"objects[{i}].children.{key}", "needs a list of ids"))
        rec = ObjRecord(
            id=str(item["id"]),
            type=str(item["type"]),
            fields=dict(_shaped(item.get("fields", {}), f"objects[{i}].fields", violations)),
            children=children,
        )
        if rec.id in objects:
            violations.append(Violation(f"objects[{i}]", f"duplicate id {rec.id!r}"))
        objects[rec.id] = rec

    field_types: dict[str, dict[str, list[TypeRef]]] = {}  # per record type
    for rec in objects.values():
        decl = schema.type_decl(rec.type)
        if decl is None:
            violations.append(Violation(rec.id, f"type {rec.type!r} not in schema"))
            continue
        for key, kids in rec.children.items():
            sig = decl.methods.get(key)
            if sig is None or not schema.is_object_type(sig.returns.base):
                violations.append(
                    Violation(f"{rec.id}.children.{key}", "not an object-returning method")
                )
                continue
            for cid in kids:
                child = objects.get(cid)
                if child is None:
                    violations.append(
                        Violation(f"{rec.id}.children.{key}", f"dangling child id {cid!r}")
                    )
                elif child.type != sig.returns.base:
                    violations.append(
                        Violation(
                            f"{rec.id}.children.{key}",
                            f"{cid} is {child.type}, method returns {sig.returns.base}",
                        )
                    )
        if rec.type not in field_types:
            field_types[rec.type] = _field_types(decl, schema)
        for key, value in rec.fields.items():
            refs = field_types[rec.type].get(key, ())
            for ref in refs:
                value = _decoded(ref, value, schema)
            wrong = [kinds.describe(ref) for ref in refs if not _holds(ref, value, schema)]
            if wrong:
                violations.append(Violation(f"{rec.id}.fields.{key}",
                                            f"declared {wrong[0]}, holds {rec.fields[key]!r}"))
            rec.fields[key] = value  # a key that is already there: the dict keeps its size

    by_type: dict[str, list[str]] = {}
    for rid in sorted(objects):
        by_type.setdefault(objects[rid].type, []).append(rid)
    for root_type in set(schema.roots.values()):
        if not by_type.get(root_type):
            violations.append(Violation("objects", f"no record of root type {root_type}"))

    for tname, decl in schema.types.items():
        for mname in decl.methods:
            if not mname.startswith(("get", "find", "set")):
                violations.append(
                    Violation(
                        f"{tname}.{mname}",
                        "method fits no dispatch convention (get*/find*/set*)",
                    )
                )

    roots: dict[str, str] = {}
    for var, rid in _shaped(raw.get("roots", {}), "roots", violations).items():
        want = schema.roots.get(var)
        if want is None:
            violations.append(Violation(f"roots.{var}", "not a schema root"))
            continue
        rec = objects.get(str(rid))
        if rec is None:
            violations.append(Violation(f"roots.{var}", f"unknown object {rid!r}"))
        elif rec.type != want:
            violations.append(Violation(f"roots.{var}", f"{rid} is {rec.type}, want {want}"))
        else:
            roots[var] = str(rid)
    for var, want in schema.roots.items():
        if var not in roots and by_type.get(want):
            roots[var] = by_type[want][0]

    if violations:
        raise SnapshotError(violations)
    return Snapshot(objects=objects, roots=roots)


class ExecStatus(Enum):
    OK = "ok"
    RUNTIME_ERROR = "runtime_error"
    TIMEOUT = "timeout"


class ExecutionResult(NamedTuple):
    status: ExecStatus
    output: tuple[str, ...]
    error_kind: str | None = None
    error_message: str = ""
    steps: int = 0
    mutations: int = 0


@dataclass(frozen=True)
class EnumVal:
    enum: str
    const: str


@dataclass(frozen=True)
class ModuleVal:
    name: str


@dataclass(frozen=True)
class EnumNamespace:
    module: str
    enum: str


# The kind of each runtime value type that some parameter check accepts.
_VALUE_KINDS = {str: kinds.STRING, bool: kinds.BOOL, int: kinds.INT, float: kinds.FLOAT,
                ObjRef: kinds.OBJECT, EnumVal: kinds.ENUM}


def _holds(ref: TypeRef, value, schema: ApiSchema) -> bool:
    """Whether ``value`` is one that the declared type ``ref`` accepts."""
    if ref.many:
        return isinstance(value, list) and all(_holds(ref.element(), v, schema) for v in value)
    if value is None:
        return ref.nullable
    name = value.type if isinstance(value, ObjRef) else getattr(value, "enum", "")
    return kinds.accepts(ref, _VALUE_KINDS.get(type(value), ""), name, schema)


def _field_types(decl, schema: ApiSchema) -> dict[str, list[TypeRef]]:
    """Each field key of a record of type ``decl`` and the types that read it:
    the attribute of that name, and the ``get*`` method whose key it is."""
    types = {key: [ref] for key, ref in decl.attributes.items()}
    for method, sig in decl.methods.items():
        rule, key = _dispatch_rule(method)
        if rule == "get" and not schema.is_object_type(sig.returns.base):
            types.setdefault(key, []).append(sig.returns)
    return types


def _decoded(ref: TypeRef, value, schema: ApiSchema):
    """A snapshot field's value as type ``ref`` reads it: ``"<Enum>.<CONST>"``
    text of a constant of the enum ``ref`` names becomes that ``EnumVal``."""
    if ref.many and type(value) is list:
        return [_decoded(ref.element(), v, schema) for v in value]
    if type(value) is str and ref.base in schema.enums:
        enum, _, const = value.partition(".")
        if enum == ref.base and schema.enum_has(enum, const):
            return EnumVal(enum, const)
    return value


class _Abort(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message
        super().__init__(f"{kind}: {message}")


class _OverBudget(Exception):
    pass


def _dispatch_rule(method: str) -> tuple[str, str]:
    """The naming convention a method follows (get, find or set) and its field key."""
    for prefix in ("get", "find", "set"):
        if method.startswith(prefix):
            rest = method[len(prefix) :]
            return prefix, rest[:1].lower() + rest[1:]
    return "", method


# Value of a declared scalar that the snapshot leaves unset; an enum reads its first
# constant, and other types read None.
_DEFAULTS = {"string": "", "int": 0, "float": 0.0, "bool": False}


def _unset(ref: TypeRef, schema: ApiSchema):
    """What a declared value that the snapshot leaves unset reads as: [] when ``many``."""
    if ref.many:
        return []
    constants = schema.enums.get(ref.base)
    return EnumVal(ref.base, constants[0]) if constants else _DEFAULTS.get(ref.base)


class Session:
    """One live environment: a mutable store plus per-call accounting.

    The store is copy-on-write over the shared snapshot: a session starts with
    an empty overlay and copies a record into it on the record's first write,
    so setup costs the same at any snapshot size and no write reaches the
    snapshot or another session. Copying one record's ``fields`` dict and
    ``children`` lists is enough because scripts never mutate a value in place.

    Every execute() increments tool_calls exactly once, succeed or fail, and
    times out after ``step_budget`` interpreter steps.
    """

    def __init__(self, snapshot: Snapshot, schema: ApiSchema, step_budget: int = STEP_BUDGET):
        self.schema = schema
        self.roots = snapshot.roots
        self._base = snapshot.objects
        self._overlay: dict[str, ObjRecord] = {}
        self._refs = snapshot.refs
        self._made: dict[str, ObjRef] = {}  # refs of the records this session materialized
        self.step_budget = step_budget
        self.tool_calls = 0
        self._auto_n = 0

    def object(self, oid: str) -> ObjRecord:
        """The session's current record for ``oid``.

        Read-only: it may be the snapshot's own record, shared with every
        other session. Writes go through ``_writable``.
        """
        return self._overlay.get(oid) or self._base[oid]

    def ref(self, oid: str) -> ObjRef:
        """The interned ref of ``oid``: the snapshot's, or the one made with the record."""
        return self._made.get(oid) or self._refs[oid]

    def _writable(self, oid: str) -> ObjRecord:
        """The session's own copy of ``oid``, made on first write."""
        rec = self._overlay.get(oid)
        if rec is None:
            base = self._base[oid]
            children = base.children
            rec = ObjRecord(
                base.id,
                base.type,
                dict(base.fields),
                {key: list(kids) for key, kids in children.items()} if children else {},
            )
            self._overlay[oid] = rec
        return rec

    def execute(self, program: str | Script | SyntaxFailure) -> ExecutionResult:
        """Run source text, or the outcome of parsing it; both give the same result."""
        self.tool_calls += 1
        parsed = parse(program) if isinstance(program, str) else program
        if isinstance(parsed, SyntaxFailure):
            first = parsed.errors[0]
            return ExecutionResult(
                ExecStatus.RUNTIME_ERROR,
                (),
                "SyntaxError",
                f"line {first.line}: {first.message}",
                0,
                0,
            )
        interp = _Interp(self)
        status, kind, message = ExecStatus.OK, None, ""
        try:
            interp.run(parsed.statements)
        except _Abort as exc:
            status, kind, message = ExecStatus.RUNTIME_ERROR, exc.kind, exc.message
        except _OverBudget:
            status, message = ExecStatus.TIMEOUT, f"step budget of {self.step_budget} exceeded"
        return ExecutionResult(
            status, tuple(interp.output), kind, message, interp.steps, interp.mutations
        )

    def materialize(self, type_name: str) -> ObjRef:
        self._auto_n += 1
        oid = f"auto_{type_name.lower()}_{self._auto_n}"
        self._overlay[oid] = ObjRecord(id=oid, type=type_name)
        ref = self._made[oid] = ObjRef(oid, type_name)
        return ref


def _truthy(value) -> bool:
    if value is None:
        return False
    if isinstance(value, (ObjRef, EnumVal, ModuleVal, EnumNamespace)):
        return True
    return bool(value)


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _comparable(a, b) -> bool:
    if isinstance(a, str) and isinstance(b, str):
        return True
    return _numeric(a) and _numeric(b)


def _equals(a, b) -> bool:
    if type(a) is str and type(b) is str:
        return a == b
    if isinstance(a, ObjRef) and isinstance(b, ObjRef):
        return a.id == b.id
    if isinstance(a, EnumVal) and isinstance(b, EnumVal):
        return a == b
    if type(a) is bool or type(b) is bool:
        return a is b
    if _numeric(a) and _numeric(b):
        return a == b
    if type(a) is not type(b):
        return False
    return a == b


_UNPRINTABLE = 10**qn.MAX_INT_DIGITS


def _fmt(value) -> str:
    if value is None:
        return "None"
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        if not -_UNPRINTABLE < value < _UNPRINTABLE:
            raise _Abort("TypeError",
                         f"cannot print an int of more than {qn.MAX_INT_DIGITS} digits")
        return qn.int_text(value)
    if isinstance(value, ObjRef):
        return f"<{value.type} {value.id}>"
    if isinstance(value, EnumVal):
        return f"{value.enum}.{value.const}"
    if isinstance(value, ModuleVal):
        return f"<module {value.name}>"
    if isinstance(value, EnumNamespace):
        return f"<enum {value.enum}>"
    if isinstance(value, range):
        return f"range({_fmt(_length(value))})"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _operator(op: str, fn):
    """``op`` on two evaluated operands, with the language's type checks."""
    orders, concat, divides = op in qn.COMPARE_OPS, op == "+", op in ("/", "%")

    def apply(a, b):
        if type(a) is int and type(b) is int and not divides:
            return fn(a, b)  # of int operations only ``/`` and ``%`` can fail
        if orders:
            if not _comparable(a, b):
                raise _Abort("TypeError", f"cannot order {_fmt(a)} and {_fmt(b)}")
            return fn(a, b)
        if concat and isinstance(a, str) and isinstance(b, str):
            return a + b
        if _numeric(a) and _numeric(b):
            if divides and b == 0:
                raise _Abort("TypeError", "division by zero")
            try:
                return fn(a, b)
            except OverflowError:  # an int too large for a float met one, or ``/``
                raise _Abort("TypeError", f"number out of float range in {op!r}") from None
        raise _Abort("TypeError", f"bad operands for {op!r}")

    return apply


def _mul(a, b):
    """``a * b``. An int product too long to print aborts, so that repeated
    squaring cannot make each step cost more than the last."""
    product = a * b
    if type(product) is int and not -_UNPRINTABLE < product < _UNPRINTABLE:
        raise _Abort("TypeError", f"int product of more than {qn.MAX_INT_DIGITS} digits")
    return product


# Every binary operator the parser produces.
_BINOPS = {
    "==": _equals,
    "!=": lambda a, b: not _equals(a, b),
    "<": _operator("<", operator.lt),
    "<=": _operator("<=", operator.le),
    ">": _operator(">", operator.gt),
    ">=": _operator(">=", operator.ge),
    "+": _operator("+", operator.add),
    "-": _operator("-", operator.sub),
    "*": _operator("*", _mul),
    "/": _operator("/", operator.truediv),
    "%": _operator("%", operator.mod),
}


def _subscript(base, idx):
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise _Abort("TypeError", "index must be an int")
    if isinstance(base, (list, str, range)):
        try:
            return base[idx]
        except IndexError:
            raise _Abort("TypeError", f"index {_fmt(idx)} out of range") from None
    raise _Abort("TypeError", "value is not indexable")


def _length(value: list | str | range) -> int:
    """A collection's length. A ``range(n)`` holds max(n, 0) ints, even past ``len``'s limit."""
    return max(value.stop, 0) if isinstance(value, range) else len(value)


def _len(args: list):
    if len(args) != 1 or not isinstance(args[0], (list, str, range)):
        raise _Abort("TypeError", "len takes one collection")
    return _length(args[0])


def _range(args: list):
    if len(args) != 1 or not isinstance(args[0], int) or isinstance(args[0], bool):
        raise _Abort("TypeError", "range takes one int")
    return range(args[0])


def _undefined(name: str, args: list):
    raise _Abort("NameError", f"name {name!r} is not defined")


def _not_callable(args: list):
    raise _Abort("TypeError", "value is not callable")


def _bad_print(args: list):
    raise _Abort("TypeError", "print takes 1 argument")


_LITERALS = (qn.StringLit, qn.IntLit, qn.FloatLit, qn.BoolLit, qn.NoneLit)


def _literal_value(e):
    """The value of a literal node (``None`` for ``NoneLit``)."""
    return getattr(e, "value", None)


def min_steps(statements: tuple) -> int:
    """A lower bound on the steps ``_Interp`` takes to run ``statements`` to the end.

    Each statement counts one step, whatever its expressions hold. An ``if``
    adds the cheaper of its branches; a ``for`` adds N iterations of one
    step plus its body over ``range(<int literal>)``, and none over anything
    else. A static cost bound in the spirit of SPEED (Gulwani, Mehra and
    Chilimbi, POPL 2009), kept to literal loop bounds.
    """
    return sum(1 + _stmt_steps(st) for st in statements)


def _stmt_steps(st) -> int:
    if isinstance(st, qn.IfStmt):
        return min(min_steps(st.body), min_steps(st.orelse))
    if isinstance(st, qn.ForStmt):
        it = st.iterable
        literal = (isinstance(it, qn.Call) and isinstance(it.func, qn.Name)
                   and it.func.id == "range" and len(it.args) == 1
                   and isinstance(it.args[0], qn.IntLit))
        return it.args[0].value * (1 + min_steps(st.body)) if literal else 0
    return 0


class _Interp:
    """One execution: the script is compiled into closures once, then run.

    A step is one statement or one loop iteration: ``block`` and ``loop``
    count it and test the budget before running it, so the budget bounds
    what a reader can count in the text, and ``min_steps`` bounds the same
    count from below without running. Expressions count nothing, so a node
    may fold a child into itself, as with the superinstructions of Ertl and
    Gregg (PLDI 2003), picked from the node's shape: literal method
    arguments and a literal right operand are held as values; a variable
    receiver, or a variable left of a literal, is read by the call's or the
    operator's closure; ``==`` and ``!=`` against a string literal skip
    ``_equals``; a one-statement loop body runs without an inner loop; an
    ``if`` without ``else`` runs nothing when false; ``print`` appends a str
    as it is; getters and attribute reads look their record up themselves.

    Each node becomes a closure over its children's closures and over every
    decision that needs no runtime value. A method call site resolves the
    rest on first meeting each receiver type: signature, arity, argument
    checks and a get, find or set action specialised for the signature.
    """

    __slots__ = ("s", "env", "output", "steps", "mutations", "budget")

    def __init__(self, session: Session):
        self.s = session
        self.env: dict[str, object] = {
            var: session.ref(oid) for var, oid in session.roots.items()
        }
        self.output: list[str] = []
        self.steps = 0
        self.mutations = 0
        self.budget = session.step_budget

    def run(self, statements: tuple) -> None:
        self.block(statements)()

    # ---- statements: each counts one step ----

    def block(self, statements: tuple):
        compiled, budget = [self.stmt(st) for st in statements], self.budget

        def run_block():
            for step in compiled:
                self.steps += 1
                if self.steps > budget:
                    raise _OverBudget()
                step()

        return run_block

    def stmt(self, st):
        env = self.env
        if isinstance(st, qn.Assign):
            target, value = st.target, self.expr(st.value)

            def assign():
                env[target] = value()

            return assign
        if isinstance(st, qn.ExprStmt):
            return self.expr(st.value)
        if isinstance(st, qn.ForStmt):
            return self.loop(st)
        if isinstance(st, qn.IfStmt):
            test, body = self.expr(st.test), self.block(st.body)
            orelse = self.block(st.orelse) if st.orelse else None
            if isinstance(st.test, qn.BinOp) and st.test.op in qn.COMPARE_OPS:

                def branch_on_bool():  # a comparison gives a bool: no _truthy
                    taken = body if test() else orelse
                    if taken is not None:
                        taken()

                return branch_on_bool

            def branch():
                taken = body if _truthy(test()) else orelse
                if taken is not None:
                    taken()

            return branch
        if isinstance(st, qn.ImportStmt):
            # The import rule is L3's: a schema module, optionally one of its
            # enums or one constant. The import binds the root module.
            root = st.name.split(".")[0]
            schema = self.s.schema
            module = ModuleVal(root) if valid_import(schema, st.name) else None
            missing = root if root not in schema.modules else st.name

            def load():
                if module is None:
                    raise _Abort("ImportError", f"no module named {missing!r}")
                env[root] = module

            return load
        raise TypeError(f"not a statement node: {st!r}")

    def loop(self, st: qn.ForStmt):
        """Each iteration counts one step, then runs its body: one statement directly."""
        env, var, budget = self.env, st.var, self.budget
        iterable = self.expr(st.iterable)
        only = self.stmt(st.body[0]) if len(st.body) == 1 else None
        body = self.block(st.body) if only is None else None

        def run_loop():
            seq = iterable()
            if not isinstance(seq, (list, range)):
                raise _Abort("TypeError", "for-loop needs a collection")
            if only is not None:
                for item in seq:
                    steps = self.steps + 2  # the iteration and its one statement
                    if steps > budget:
                        self.steps = budget + 1  # the first step past the budget
                        raise _OverBudget()
                    self.steps = steps
                    env[var] = item
                    only()
                return
            for item in seq:
                self.steps += 1
                if self.steps > budget:
                    raise _OverBudget()
                env[var] = item
                body()

        return run_loop

    # ---- expressions: no steps ----

    def expr(self, e):
        if isinstance(e, qn.Name):
            return self.name(e.id)
        if isinstance(e, qn.Call):
            if isinstance(e.func, qn.Attribute):
                return self.method_call(e.func, e.args)
            if isinstance(e.func, qn.Name):
                if e.func.id == "print" and len(e.args) == 1:
                    return self.emit(e.args[0])
                impl = {"print": _bad_print, "len": _len, "range": _range}.get(e.func.id)
                return self.builtin(impl or partial(_undefined, e.func.id), e.args)
            return self.builtin(_not_callable, ())
        if isinstance(e, _LITERALS):
            value = _literal_value(e)
            return lambda: value
        if isinstance(e, qn.Attribute):
            return self.attribute(e)
        if isinstance(e, qn.BinOp):
            if e.op in ("==", "!=") and isinstance(e.right, qn.StringLit):
                return self.text_equals(e.left, e.right.value, e.op == "==")
            return self.pair(_BINOPS[e.op], e.left, e.right)
        if isinstance(e, qn.Index):
            return self.pair(_subscript, e.value, e.index)
        if isinstance(e, qn.UnaryOp):
            return self.negate(e.operand)
        raise TypeError(f"not an expression node: {e!r}")

    def name(self, name: str):
        env = self.env

        def load():
            try:
                return env[name]
            except KeyError:
                raise _Abort("NameError", f"name {name!r} is not defined") from None

        return load

    def attribute(self, e: qn.Attribute):
        value, attr = self.expr(e.value), e.attr
        session, schema = self.s, self.s.schema
        overlay, records = session._overlay, session._base
        names_enum = attr in schema.enums
        # A member of a module or enum namespace depends only on that base, so
        # the last one read is kept; an object's fields are read every time.
        last_base = last = None

        def read():
            nonlocal last_base, last
            base = value()
            if base is None:
                raise _Abort("NullAccess", f"attribute {attr!r} read on None")
            if isinstance(base, ObjRef):
                declared = schema.attribute(base.type, attr)
                if declared is None:
                    raise _Abort("BadAttribute", f"{base.type} has no attribute {attr!r}")
                fields = (overlay.get(base.id) or records[base.id]).fields
                return fields[attr] if attr in fields else _unset(declared, schema)
            if base is last_base:
                return last
            if isinstance(base, ModuleVal):
                if names_enum:
                    last_base, last = base, EnumNamespace(base.name, attr)
                    return last
                raise _Abort("EnumError", f"module {base.name!r} has no member {attr!r}")
            if isinstance(base, EnumNamespace):
                if schema.enum_has(base.enum, attr):
                    last_base, last = base, EnumVal(base.enum, attr)
                    return last
                raise _Abort("EnumError", f"{base.enum} has no constant {attr!r}")
            raise _Abort("BadAttribute", f"attribute {attr!r} on {_fmt(base)}")

        return read

    def pair(self, apply, left_node, right_node):
        """Evaluate both operands, left first, and ``apply`` to their values."""
        if not isinstance(right_node, _LITERALS):
            left, right = self.expr(left_node), self.expr(right_node)
            return lambda: apply(left(), right())
        fixed = _literal_value(right_node)
        if not isinstance(left_node, qn.Name):
            left = self.expr(left_node)
            return lambda: apply(left(), fixed)
        env, name = self.env, left_node.id

        def apply_to_variable():
            try:
                value = env[name]
            except KeyError:
                raise _Abort("NameError", f"name {name!r} is not defined") from None
            return apply(value, fixed)

        return apply_to_variable

    def text_equals(self, left_node, text: str, equal: bool):
        """``==`` or ``!=`` against a string literal: ``_equals`` with a str is str equality."""
        left = self.expr(left_node)
        if equal:
            return lambda: type(value := left()) is str and value == text
        return lambda: type(value := left()) is not str or value != text

    def negate(self, operand_node):
        operand = self.expr(operand_node)

        def run_negate():
            value = operand()
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Abort("TypeError", "unary minus needs a number")
            return -value

        return run_negate

    def builtin(self, impl, arg_nodes: tuple):
        arg_fns = tuple(self.expr(a) for a in arg_nodes)
        return lambda: impl([f() for f in arg_fns])

    def emit(self, arg_node):
        """``print`` of one argument: format it onto the output."""
        arg, append = self.expr(arg_node), self.output.append
        return lambda: append(value if type(value := arg()) is str else _fmt(value))

    def method_call(self, func: qn.Attribute, arg_nodes: tuple):
        method, resolve, env = func.attr, self.resolve, self.env
        receiver_name = func.value.id if isinstance(func.value, qn.Name) else None
        receiver_of = None if receiver_name else self.expr(func.value)
        nargs, fixed, only, arg_fns = len(arg_nodes), None, None, ()
        if all(isinstance(a, _LITERALS) for a in arg_nodes):
            fixed = [_literal_value(a) for a in arg_nodes]  # built once
        elif nargs == 1:
            only = self.expr(arg_nodes[0])
        else:
            arg_fns = tuple(self.expr(a) for a in arg_nodes)
        # Receiver type -> its resolved action: an inline cache (Deutsch and
        # Schiffman, POPL 1984) that lives as long as this execution.
        actions: dict[str, Callable[[str, list], object]] = {}

        def invoke():
            if receiver_of is not None:
                receiver = receiver_of()
            else:
                try:
                    receiver = env[receiver_name]
                except KeyError:
                    raise _Abort("NameError", f"name {receiver_name!r} is not defined") from None
            args = (fixed if fixed is not None else [only()] if only is not None
                    else [f() for f in arg_fns])
            if receiver is None:
                raise _Abort("NullAccess", f"method {method!r} called on None")
            if not isinstance(receiver, ObjRef):
                raise _Abort("UnknownMethod", f"{_fmt(receiver)} has no methods")
            act = actions.get(receiver.type)
            if act is None:
                act = actions[receiver.type] = resolve(receiver.type, method, nargs)
            return act(receiver.id, args)

        return invoke

    def resolve(self, tname: str, method: str, nargs: int) -> Callable[[str, list], object]:
        """What calling ``method`` with ``nargs`` arguments on a ``tname`` does, checks first."""
        sig = self.s.schema.method(tname, method)
        if sig is None:
            return _fails("UnknownMethod", f"{tname} has no method {method!r}")
        if nargs != sig.arity:
            return _fails(
                "TypeError", f"{tname}.{method} takes {sig.arity} argument(s), got {nargs}"
            )
        rule, key = _dispatch_rule(method)
        if rule == "get":
            act = self.getter(method, key, sig.returns)
        elif rule == "find":
            act = self.finder(tname, sig.returns)
        elif rule == "set":
            act = self.setter(key, sig.mutates)
        else:
            act = _fails("UnknownMethod", f"no dispatch rule for {method!r}")
        checks = []  # (position, parameter, its check) for each checked parameter
        for i, param in enumerate(sig.params):
            accepts = kinds.argument_check(param.type, self.s.schema)
            if accepts is not None:
                checks.append((i, param, accepts))
        if not checks:
            return act

        def checked(oid: str, args: list):
            for i, param, accepts in checks:
                value = args[i]
                name = value.type if isinstance(value, ObjRef) else getattr(value, "enum", "")
                if not accepts(_VALUE_KINDS.get(type(value), ""), name):
                    raise _Abort(
                        "TypeError",
                        f"{tname}.{method} argument {param.name!r} expects {param.type.base}, "
                        f"got {_fmt(value)}",
                    )
            return act(oid, args)

        return checked

    def getter(self, method: str, key: str, returns: TypeRef):
        session, schema = self.s, self.s.schema
        overlay, records = session._overlay, session._base
        if schema.is_object_type(returns.base):
            if returns.many:
                # Snapshot ids only: conformance checks every child id, and a
                # session materializes single children only.
                refs = session._refs

                def get_many(oid: str, args: list):
                    kids = (overlay.get(oid) or records[oid]).children.get(method)
                    return [refs[cid] for cid in kids] if kids else []

                return get_many

            def get_one(oid: str, args: list):
                kids = session.object(oid).children.get(method)
                if kids:
                    return session.ref(kids[0])
                if returns.nullable:
                    return None
                child = session.materialize(returns.base)
                session._writable(oid).children[method] = [child.id]
                return child

            return get_one
        unset = _unset(returns, schema)

        def get_field(oid: str, args: list):
            return (overlay.get(oid) or records[oid]).fields.get(key, unset)

        return get_field

    def finder(self, tname: str, returns: TypeRef):
        session, base = self.s, returns.base
        overlay, records = session._overlay, session._base
        # Conformance types each child list by its method's return, so only
        # the lists of methods returning ``base`` can hold a match. They are
        # searched in name order.
        decl = session.schema.type_decl(tname)
        keys = tuple(sorted(m for m, sig in decl.methods.items() if sig.returns.base == base))
        miss_is_none = returns.nullable or not session.schema.is_object_type(base)

        def find(oid: str, args: list):
            wanted = args[0] if args else ""
            children = (overlay.get(oid) or records[oid]).children
            for child_key in keys:
                for cid in children.get(child_key, ()):
                    child = overlay.get(cid) or records[cid]
                    if child.type == base and child.fields.get("name") == wanted:
                        return session.ref(cid)
            if miss_is_none:
                return None
            raise _Abort("TypeError", f"nothing named {wanted!r} found")

        return find

    def setter(self, key: str, mutates: bool):
        session = self.s

        def set_field(oid: str, args: list):
            session._writable(oid).fields[key] = args[0] if args else None
            if mutates:
                self.mutations += 1

        return set_field


def _fails(kind: str, message: str):
    """An action that aborts with ``kind`` and ``message`` whatever it is called on."""

    def fail(oid: str, args: list):
        raise _Abort(kind, message)

    return fail

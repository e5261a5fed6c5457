"""Mock execution environment: an object store plus a small interpreter.

A snapshot is a typed object graph loaded from JSON and checked against the
schema before anything runs. Method dispatch follows naming conventions:
``get*`` reads children or fields, ``find*`` searches children by name,
``set*`` writes a field. Missing data auto-materializes with typed defaults,
so a statically clean program never trips over an incomplete snapshot; what
remains fatal at runtime is exactly what static layers promise to prevent.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import kinds
from .qas import nodes as qn
from .qas.parser import Script, SyntaxFailure, parse
from .schema import ApiSchema, ParseError, TypeRef, Violation, _shaped, valid_import

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
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read snapshot {path}: {exc}") from exc
    return snapshot_from_dict(raw, schema)


def snapshot_from_dict(raw: dict, schema: ApiSchema) -> Snapshot:
    """Decode and conformance-check a snapshot document.

    Conformance is eager and exhaustive: fields, children or roots of the
    wrong shape, undeclared object types, dangling child ids, children keyed
    by non-methods, scalar attribute fields holding a value of the wrong kind,
    empty root types, and schema methods that fit no dispatch convention are
    all collected and reported together. Unbound schema roots bind to the
    first record of their type.
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
        for key, value in rec.fields.items():
            ref = decl.attributes.get(key)
            if ref is not None and ref.base in _DEFAULTS and not _holds(ref, value, schema):
                violations.append(
                    Violation(f"{rec.id}.fields.{key}",
                              f"declared {kinds.describe(ref)}, holds {value!r}")
                )

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
    return kinds.accepts(ref, _VALUE_KINDS.get(type(value), ""), "", schema)


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


# Value of a declared scalar that the snapshot leaves unset; other types read None.
_DEFAULTS = {"string": "", "int": 0, "float": 0.0, "bool": False}


def _unset(ref: TypeRef):
    """What a declared value that the snapshot leaves unset reads as: [] when ``many``."""
    return [] if ref.many else _DEFAULTS.get(ref.base)


class Session:
    """One live environment: a mutable store plus per-call accounting.

    The store is copy-on-write over the shared snapshot: a session starts with
    an empty overlay and copies a record into it on the record's first write,
    so setup costs the same at any snapshot size and no write reaches the
    snapshot or another session. Copying one record's ``fields`` dict and
    ``children`` lists is enough because scripts never mutate a value in place.

    Every execute() increments tool_calls exactly once, succeed or fail.
    Crash injection, off by default, makes a seeded fraction of calls die
    with a "Crash" error before running anything.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        schema: ApiSchema,
        step_budget: int = STEP_BUDGET,
        crash_probability: float = 0.0,
        seed: int = 0,
    ):
        self.schema = schema
        self.roots = snapshot.roots
        self._base = snapshot.objects
        self._overlay: dict[str, ObjRecord] = {}
        self._refs = snapshot.refs
        self._made: dict[str, ObjRef] = {}  # refs of the records this session materialized
        self.step_budget = step_budget
        self.crash_probability = crash_probability
        self.tool_calls = 0
        self.mutations = 0
        # Only crash injection draws from it, so a session without it seeds none.
        self._rng = random.Random(seed) if crash_probability > 0 else None
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
            rec = ObjRecord(
                base.id,
                base.type,
                dict(base.fields),
                {key: list(kids) for key, kids in base.children.items()},
            )
            self._overlay[oid] = rec
        return rec

    def execute(self, program: str | Script | SyntaxFailure) -> ExecutionResult:
        """Run source text, or the outcome of parsing it; both give the same result."""
        self.tool_calls += 1
        if self.crash_probability > 0 and self._rng.random() < self.crash_probability:
            return ExecutionResult(
                ExecStatus.RUNTIME_ERROR, (), "Crash", "injected crash", 0, 0
            )
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
        else:
            self.mutations += interp.mutations
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
    "*": _operator("*", operator.mul),
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
    may fold a literal child into itself, as with the superinstructions of
    Ertl and Gregg (PLDI 2003): all-literal method arguments are built once
    and a literal right operand is held as a value.

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
            test, body, orelse = self.expr(st.test), self.block(st.body), self.block(st.orelse)
            if isinstance(st.test, qn.BinOp) and st.test.op in qn.COMPARE_OPS:

                def branch_on_bool():  # a comparison gives a bool: no _truthy
                    (body if test() else orelse)()

                return branch_on_bool

            def branch():
                (body if _truthy(test()) else orelse)()

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
        """Each iteration counts one step; its body's statements run here, one step each."""
        env, var, budget = self.env, st.var, self.budget
        iterable, body = self.expr(st.iterable), [self.stmt(s) for s in st.body]

        def run_loop():
            seq = iterable()
            if not isinstance(seq, (list, range)):
                raise _Abort("TypeError", "for-loop needs a collection")
            for item in seq:
                self.steps += 1
                if self.steps > budget:
                    raise _OverBudget()
                env[var] = item
                for step in body:
                    self.steps += 1
                    if self.steps > budget:
                        raise _OverBudget()
                    step()

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
                fields = session.object(base.id).fields
                return fields[attr] if attr in fields else _unset(declared)
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
        left = self.expr(left_node)
        if not isinstance(right_node, _LITERALS):
            right = self.expr(right_node)
            return lambda: apply(left(), right())
        fixed = _literal_value(right_node)
        return lambda: apply(left(), fixed)

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
        return lambda: append(_fmt(arg()))

    def method_call(self, func: qn.Attribute, arg_nodes: tuple):
        receiver_of, method, resolve = self.expr(func.value), func.attr, self.resolve
        nargs = len(arg_nodes)
        if all(isinstance(a, _LITERALS) for a in arg_nodes):
            fixed, arg_fns = [_literal_value(a) for a in arg_nodes], None  # built once
        else:
            fixed, arg_fns = None, tuple(self.expr(a) for a in arg_nodes)
        # Receiver type -> its resolved action: an inline cache (Deutsch and
        # Schiffman, POPL 1984) that lives as long as this execution.
        actions: dict[str, Callable[[str, list], object]] = {}

        def invoke():
            receiver = receiver_of()
            args = fixed if arg_fns is None else [f() for f in arg_fns]
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
        if schema.is_object_type(returns.base):
            if returns.many:
                # Snapshot ids only: conformance checks every child id, and a
                # session materializes single children only.
                refs = session._refs

                def get_many(oid: str, args: list):
                    kids = session.object(oid).children.get(method)
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
        names_enum = returns.base in schema.enums

        def get_field(oid: str, args: list):
            fields = session.object(oid).fields
            if key not in fields:
                return _unset(returns)
            value = fields[key]
            if names_enum and isinstance(value, str):
                enum, _, const = value.partition(".")
                if schema.enum_has(enum, const):
                    return EnumVal(enum, const)
            return value

        return get_field

    def finder(self, tname: str, returns: TypeRef):
        session, base = self.s, returns.base
        # Conformance types each child list by its method's return, so only
        # the lists of methods returning ``base`` can hold a match.
        decl = session.schema.type_decl(tname)
        keys = {m for m, sig in decl.methods.items() if sig.returns.base == base}
        miss_is_none = returns.nullable or not session.schema.is_object_type(base)

        def find(oid: str, args: list):
            wanted = args[0] if args else ""
            children = session.object(oid).children
            for child_key in sorted(children):
                if child_key not in keys:
                    continue
                for cid in children[child_key]:
                    child = session.object(cid)
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

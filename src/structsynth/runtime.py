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
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .qas import nodes as qn
from .qas.parser import SyntaxFailure, parse
from .schema import ApiSchema, MethodSig, ParseError, TypeRef, Violation


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
class Snapshot:
    """A conformance-checked object graph, shared read-only by every session."""

    objects: dict[str, ObjRecord]
    roots: dict[str, str]


def load_snapshot(path: str | Path, schema: ApiSchema) -> Snapshot:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read snapshot {path}: {exc}") from exc
    return snapshot_from_dict(raw, schema)


def snapshot_from_dict(raw: dict, schema: ApiSchema) -> Snapshot:
    """Decode and conformance-check a snapshot document.

    Conformance is eager and exhaustive: undeclared object types, dangling
    child ids, children keyed by non-methods, empty root types, and schema
    methods that fit no dispatch convention are all collected and reported
    together. Unbound schema roots bind to the first record of their type.
    """
    if not isinstance(raw, dict) or not isinstance(raw.get("objects"), list):
        raise ParseError("snapshot document needs an 'objects' list")
    violations: list[Violation] = []
    objects: dict[str, ObjRecord] = {}
    for i, item in enumerate(raw["objects"]):
        if not isinstance(item, dict) or "id" not in item or "type" not in item:
            violations.append(Violation(f"objects[{i}]", "record needs id and type"))
            continue
        rec = ObjRecord(
            id=str(item["id"]),
            type=str(item["type"]),
            fields=dict(item.get("fields", {})),
            children={k: [str(c) for c in v] for k, v in item.get("children", {}).items()},
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
    for var, rid in raw.get("roots", {}).items():
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


@dataclass(frozen=True)
class ExecutionResult:
    status: ExecStatus
    output: tuple[str, ...]
    error_kind: str | None = None
    error_message: str = ""
    steps: int = 0
    mutations: int = 0


@dataclass(frozen=True)
class ObjRef:
    id: str
    type: str


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


class _Abort(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message
        super().__init__(f"{kind}: {message}")


class _OverBudget(Exception):
    pass


def _lcfirst(s: str) -> str:
    return s[:1].lower() + s[1:] if s else s


def _field_key(method: str) -> str:
    for prefix in ("get", "set", "find"):
        if method.startswith(prefix):
            return _lcfirst(method[len(prefix) :])
    return method


def _default_for(ref: TypeRef):
    if ref.base == "string":
        return ""
    if ref.base == "int":
        return 0
    if ref.base == "float":
        return 0.0
    if ref.base == "bool":
        return False
    return None


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
        step_budget: int = 100_000,
        crash_probability: float = 0.0,
        seed: int = 0,
    ):
        self.schema = schema
        self.roots = snapshot.roots
        self._base = snapshot.objects
        self._overlay: dict[str, ObjRecord] = {}
        self.step_budget = step_budget
        self.crash_probability = crash_probability
        self.tool_calls = 0
        self.mutations = 0
        self._rng = random.Random(seed)
        self._auto_n = 0

    def object(self, oid: str) -> ObjRecord:
        """The session's current record for ``oid``.

        Read-only: it may be the snapshot's own record, shared with every
        other session. Writes go through ``_writable``.
        """
        return self._overlay.get(oid) or self._base[oid]

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

    def execute(self, source: str) -> ExecutionResult:
        self.tool_calls += 1
        if self.crash_probability > 0 and self._rng.random() < self.crash_probability:
            return ExecutionResult(
                ExecStatus.RUNTIME_ERROR, (), "Crash", "injected crash", 0, 0
            )
        parsed = parse(source)
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
        try:
            interp.run(parsed.statements)
        except _Abort as exc:
            return ExecutionResult(
                ExecStatus.RUNTIME_ERROR,
                tuple(interp.output),
                exc.kind,
                exc.message,
                interp.steps,
                interp.mutations,
            )
        except _OverBudget:
            return ExecutionResult(
                ExecStatus.TIMEOUT,
                tuple(interp.output),
                None,
                f"step budget of {self.step_budget} exceeded",
                interp.steps,
                interp.mutations,
            )
        self.mutations += interp.mutations
        return ExecutionResult(
            ExecStatus.OK, tuple(interp.output), None, "", interp.steps, interp.mutations
        )

    def materialize(self, type_name: str) -> ObjRecord:
        self._auto_n += 1
        oid = f"auto_{type_name.lower()}_{self._auto_n}"
        rec = ObjRecord(id=oid, type=type_name)
        self._overlay[oid] = rec
        return rec


class _Interp:
    def __init__(self, session: Session):
        self.s = session
        self.env: dict[str, object] = {}
        for var, oid in session.roots.items():
            rec = session.object(oid)
            self.env[var] = ObjRef(rec.id, rec.type)
        self.output: list[str] = []
        self.steps = 0
        self.mutations = 0

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.s.step_budget:
            raise _OverBudget()

    def run(self, statements: tuple) -> None:
        for st in statements:
            self.stmt(st)

    def stmt(self, st) -> None:
        self.tick()
        if isinstance(st, qn.ImportStmt):
            root = st.name.split(".")[0]
            if root not in self.s.schema.modules:
                raise _Abort("ImportError", f"no module named {root!r}")
            self.env[root] = ModuleVal(root)
        elif isinstance(st, qn.Assign):
            self.env[st.target] = self.expr(st.value)
        elif isinstance(st, qn.ExprStmt):
            self.expr(st.value)
        elif isinstance(st, qn.ForStmt):
            seq = self.expr(st.iterable)
            if not isinstance(seq, (list, range)):
                raise _Abort("TypeError", "for-loop needs a collection")
            for item in seq:
                self.tick()
                self.env[st.var] = item
                self.run(st.body)
        elif isinstance(st, qn.IfStmt):
            if self.truthy(self.expr(st.test)):
                self.run(st.body)
            elif st.orelse:
                self.run(st.orelse)
        else:
            raise _Abort("TypeError", f"cannot execute {type(st).__name__}")

    @staticmethod
    def truthy(value) -> bool:
        if value is None:
            return False
        if isinstance(value, (ObjRef, EnumVal, ModuleVal, EnumNamespace)):
            return True
        return bool(value)

    def expr(self, e):
        self.tick()
        if isinstance(e, qn.IntLit):
            return e.value
        if isinstance(e, qn.FloatLit):
            return e.value
        if isinstance(e, qn.StringLit):
            return e.value
        if isinstance(e, qn.BoolLit):
            return e.value
        if isinstance(e, qn.NoneLit):
            return None
        if isinstance(e, qn.Name):
            if e.id not in self.env:
                raise _Abort("NameError", f"name {e.id!r} is not defined")
            return self.env[e.id]
        if isinstance(e, qn.Attribute):
            return self.attribute(e)
        if isinstance(e, qn.Index):
            return self.index(e)
        if isinstance(e, qn.Call):
            return self.call(e)
        if isinstance(e, qn.UnaryOp):
            operand = self.expr(e.operand)
            if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                raise _Abort("TypeError", "unary minus needs a number")
            return -operand
        if isinstance(e, qn.BinOp):
            return self.binop(e)
        raise _Abort("TypeError", f"cannot evaluate {type(e).__name__}")

    def attribute(self, e: qn.Attribute):
        base = self.expr(e.value)
        if base is None:
            raise _Abort("NullAccess", f"attribute {e.attr!r} read on None")
        if isinstance(base, ModuleVal):
            if e.attr in self.s.schema.enums:
                return EnumNamespace(base.name, e.attr)
            raise _Abort("EnumError", f"module {base.name!r} has no member {e.attr!r}")
        if isinstance(base, EnumNamespace):
            if self.s.schema.enum_has(base.enum, e.attr):
                return EnumVal(base.enum, e.attr)
            raise _Abort("EnumError", f"{base.enum} has no constant {e.attr!r}")
        if isinstance(base, ObjRef):
            declared = self.s.schema.attribute(base.type, e.attr)
            if declared is None:
                raise _Abort("BadAttribute", f"{base.type} has no attribute {e.attr!r}")
            rec = self.s.object(base.id)
            if e.attr in rec.fields:
                return rec.fields[e.attr]
            return _default_for(declared)
        raise _Abort("BadAttribute", f"attribute {e.attr!r} on {self.fmt(base)}")

    def index(self, e: qn.Index):
        base = self.expr(e.value)
        idx = self.expr(e.index)
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise _Abort("TypeError", "index must be an int")
        if isinstance(base, (list, str)) or isinstance(base, range):
            try:
                return base[idx]
            except IndexError:
                raise _Abort("TypeError", f"index {idx} out of range") from None
        raise _Abort("TypeError", "value is not indexable")

    def call(self, e: qn.Call):
        if isinstance(e.func, qn.Name):
            return self.builtin(e.func.id, e)
        if not isinstance(e.func, qn.Attribute):
            raise _Abort("TypeError", "value is not callable")
        receiver = self.expr(e.func.value)
        args = [self.expr(a) for a in e.args]
        method = e.func.attr
        if receiver is None:
            raise _Abort("NullAccess", f"method {method!r} called on None")
        if not isinstance(receiver, ObjRef):
            raise _Abort("UnknownMethod", f"{self.fmt(receiver)} has no methods")
        sig = self.s.schema.method(receiver.type, method)
        if sig is None:
            raise _Abort("UnknownMethod", f"{receiver.type} has no method {method!r}")
        if len(args) != sig.arity:
            raise _Abort(
                "TypeError",
                f"{receiver.type}.{method} takes {sig.arity} argument(s), got {len(args)}",
            )
        for param, arg in zip(sig.params, args):
            self.check_arg(receiver.type, method, param.name, param.type, arg)
        return self.dispatch(receiver, method, sig, args)

    def check_arg(self, tname: str, method: str, pname: str, ref: TypeRef, value) -> None:
        ok = True
        if ref.base == "string":
            ok = isinstance(value, str)
        elif ref.base == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif ref.base == "float":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif ref.base == "bool":
            ok = isinstance(value, bool)
        elif ref.base in self.s.schema.enums:
            ok = isinstance(value, EnumVal) and value.enum == ref.base
        elif self.s.schema.is_object_type(ref.base):
            ok = isinstance(value, ObjRef) and value.type == ref.base
        if not ok:
            raise _Abort(
                "TypeError",
                f"{tname}.{method} argument {pname!r} expects {ref.base}, "
                f"got {self.fmt(value)}",
            )

    def dispatch(self, receiver: ObjRef, method: str, sig: MethodSig, args: list):
        rec = self.s.object(receiver.id)
        if method.startswith("get"):
            return self.do_get(rec, method, sig)
        if method.startswith("find"):
            return self.do_find(rec, sig, args[0] if args else "")
        if method.startswith("set"):
            self.s._writable(rec.id).fields[_field_key(method)] = args[0] if args else None
            if sig.mutates:
                self.mutations += 1
            return None
        raise _Abort("UnknownMethod", f"no dispatch rule for {method!r}")

    def do_get(self, rec: ObjRecord, method: str, sig: MethodSig):
        if self.s.schema.is_object_type(sig.returns.base):
            kids = rec.children.get(method)
            if sig.returns.many:
                ids = kids if kids is not None else []
                return [ObjRef(cid, self.s.object(cid).type) for cid in ids]
            if kids:
                return ObjRef(kids[0], self.s.object(kids[0]).type)
            if sig.returns.nullable:
                return None
            child = self.s.materialize(sig.returns.base)
            self.s._writable(rec.id).children[method] = [child.id]
            return ObjRef(child.id, child.type)
        key = _field_key(method)
        if key in rec.fields:
            value = rec.fields[key]
            if sig.returns.base in self.s.schema.enums and isinstance(value, str):
                enum, _, const = value.partition(".")
                if self.s.schema.enum_has(enum, const):
                    return EnumVal(enum, const)
            return value
        return _default_for(sig.returns)

    def do_find(self, rec: ObjRecord, sig: MethodSig, wanted):
        for key in sorted(rec.children):
            for cid in rec.children[key]:
                child = self.s.object(cid)
                if child.type == sig.returns.base and child.fields.get("name") == wanted:
                    return ObjRef(child.id, child.type)
        if sig.returns.nullable or not self.s.schema.is_object_type(sig.returns.base):
            return None
        raise _Abort("TypeError", f"nothing named {wanted!r} found")

    def builtin(self, name: str, e: qn.Call):
        args = [self.expr(a) for a in e.args]
        if name == "print":
            if len(args) != 1:
                raise _Abort("TypeError", "print takes 1 argument")
            self.output.append(self.fmt(args[0]))
            return None
        if name == "len":
            if len(args) != 1 or not isinstance(args[0], (list, str, range)):
                raise _Abort("TypeError", "len takes one collection")
            return len(args[0])
        if name == "range":
            if len(args) != 1 or not isinstance(args[0], int) or isinstance(args[0], bool):
                raise _Abort("TypeError", "range takes one int")
            return range(args[0])
        raise _Abort("NameError", f"name {name!r} is not defined")

    def binop(self, e: qn.BinOp):
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        if op in ("==", "!="):
            same = self.equals(left, right)
            return same if op == "==" else not same
        if op in ("<", "<=", ">", ">="):
            if not self.comparable(left, right):
                raise _Abort(
                    "TypeError", f"cannot order {self.fmt(left)} and {self.fmt(right)}"
                )
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[op]
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if self.numeric(left) and self.numeric(right):
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise _Abort("TypeError", "division by zero")
                return left / right
        raise _Abort("TypeError", f"bad operands for {op!r}")

    @staticmethod
    def numeric(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    @staticmethod
    def comparable(a, b) -> bool:
        if isinstance(a, str) and isinstance(b, str):
            return True
        return _Interp.numeric(a) and _Interp.numeric(b)

    @staticmethod
    def equals(a, b) -> bool:
        if isinstance(a, ObjRef) and isinstance(b, ObjRef):
            return a.id == b.id
        if isinstance(a, EnumVal) and isinstance(b, EnumVal):
            return a == b
        if type(a) is bool or type(b) is bool:
            return a is b
        if _Interp.numeric(a) and _Interp.numeric(b):
            return a == b
        if type(a) is not type(b):
            return False
        return a == b

    def fmt(self, value) -> str:
        if value is None:
            return "None"
        if isinstance(value, bool):
            return "True" if value else "False"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, (int, str)):
            return str(value)
        if isinstance(value, ObjRef):
            return f"<{value.type} {value.id}>"
        if isinstance(value, EnumVal):
            return f"{value.enum}.{value.const}"
        if isinstance(value, ModuleVal):
            return f"<module {value.name}>"
        if isinstance(value, EnumNamespace):
            return f"<enum {value.enum}>"
        if isinstance(value, range):
            return f"range({len(value)})"
        if isinstance(value, list):
            return "[" + ", ".join(self.fmt(v) for v in value) + "]"
        return str(value)

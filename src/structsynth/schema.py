"""API schema: the authoritative universe of types, methods, attributes, and enums.

Every other stage (type inference, graph validation, API alignment checks,
uncertainty scoring, the mock runtime) treats the loaded schema as ground
truth. A schema is immutable once loaded; the loader reports every violation
it finds rather than stopping at the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

PRIMITIVES = frozenset({"string", "int", "float", "bool", "void"})

# Sentinel base used by type inference when a static type cannot be resolved.
UNKNOWN_BASE = "?"


class ParseError(Exception):
    """Schema document is not valid JSON or has the wrong top-level shape."""


class Violation(NamedTuple):
    """A single schema invariant violation, addressed by a dotted location."""

    location: str
    message: str


class SchemaError(Exception):
    """Raised when schema invariants fail; carries every violation found."""

    def __init__(self, violations: list[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.location}: {v.message}" for v in violations)
        super().__init__(f"{len(violations)} schema violation(s): {lines}")


class TypeRef(NamedTuple):
    """A reference to a value type: base name plus collection/nullability flags."""

    base: str
    many: bool = False
    nullable: bool = False

    @property
    def is_unknown(self) -> bool:
        return self.base == UNKNOWN_BASE

    def element(self) -> "TypeRef":
        """Element type of a collection; UNKNOWN when not many-valued."""
        if not self.many:
            return UNKNOWN
        return TypeRef(self.base, many=False, nullable=False)

    def without_null(self) -> "TypeRef":
        return TypeRef(self.base, many=self.many) if self.nullable else self

    def to_dict(self) -> dict:
        out: dict = {"base": self.base}
        if self.many:
            out["many"] = True
        if self.nullable:
            out["nullable"] = True
        return out

    @staticmethod
    def from_dict(raw: dict) -> "TypeRef":
        return TypeRef(
            base=str(raw["base"]),
            many=bool(raw.get("many", False)),
            nullable=bool(raw.get("nullable", False)),
        )


UNKNOWN = TypeRef(UNKNOWN_BASE)


class Param(NamedTuple):
    name: str
    type: TypeRef


class MethodSig(NamedTuple):
    """Signature of one API method on a receiver type."""

    name: str
    params: tuple[Param, ...]
    returns: TypeRef
    mutates: bool = False

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class TypeDecl:
    """One declared object type: its callable methods and readable attributes."""

    name: str
    methods: dict[str, MethodSig] = field(default_factory=dict)
    attributes: dict[str, TypeRef] = field(default_factory=dict)


class ApiSchema(NamedTuple):
    """The full API universe a script may legally touch.

    roots maps pre-bound session variables to their type; modules lists
    importable namespace names under which enum constants are addressed.
    """

    version: str
    types: dict[str, TypeDecl]
    enums: dict[str, tuple[str, ...]]
    roots: dict[str, str]
    modules: frozenset[str] = frozenset()

    def type_decl(self, name: str) -> TypeDecl | None:
        return self.types.get(name)

    def is_object_type(self, name: str) -> bool:
        return name in self.types

    def method(self, receiver: str, name: str) -> MethodSig | None:
        decl = self.types.get(receiver)
        if decl is None:
            return None
        return decl.methods.get(name)

    def attribute(self, receiver: str, name: str) -> TypeRef | None:
        decl = self.types.get(receiver)
        if decl is None:
            return None
        return decl.attributes.get(name)

    def enum_has(self, enum: str, constant: str) -> bool:
        return constant in self.enums.get(enum, ())


def valid_import(schema: ApiSchema, name: str) -> bool:
    """A dotted import names a schema module, optionally one of its enums or one constant."""
    segs = name.split(".")
    if segs[0] not in schema.modules:
        return False
    if len(segs) == 1:
        return True
    if segs[1] not in schema.enums:
        return False
    if len(segs) == 2:
        return True
    return len(segs) == 3 and segs[2] in schema.enums[segs[1]]


def valid_enum_ref(schema: ApiSchema, name: str) -> bool:
    """True when the dotted chain's last two segments name a declared constant."""
    segs = name.split(".")
    if len(segs) < 2:
        return False
    return schema.enum_has(segs[-2], segs[-1])


def load_schema(path: str | Path) -> ApiSchema:
    """Load and validate a schema document.

    Raises ParseError for malformed documents and SchemaError carrying the
    complete list of invariant violations; a returned schema is fully valid.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read schema from {path}: {exc}") from exc
    return schema_from_dict(raw)


def _shaped(value, location: str, violations: list[Violation]) -> dict:
    """``value`` if it is a JSON object; otherwise records a violation and reads as empty."""
    if isinstance(value, dict):
        return value
    violations.append(Violation(location, "needs a JSON object"))
    return {}


def _strings(value) -> bool:
    """True when ``value`` is a JSON array of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def schema_from_dict(raw: object) -> ApiSchema:
    """Build an ApiSchema from decoded JSON, collecting violations exhaustively."""
    if not isinstance(raw, dict):
        raise ParseError("schema document must be a JSON object")
    for key, want in (("types", dict), ("enums", dict), ("roots", dict)):
        if key in raw and not isinstance(raw[key], want):
            raise ParseError(f"schema field {key!r} must be an object")
    if "modules" in raw and not isinstance(raw["modules"], list):
        raise ParseError("schema field 'modules' must be an array")

    violations: list[Violation] = []
    version = str(raw.get("version", ""))
    if not version:
        violations.append(Violation("version", "missing or empty version"))

    enums: dict[str, tuple[str, ...]] = {}
    for ename, consts in raw.get("enums", {}).items():
        if not _strings(consts):
            violations.append(Violation(f"enums.{ename}", "constants must be a list of strings"))
            continue
        if len(set(consts)) != len(consts):
            violations.append(Violation(f"enums.{ename}", "duplicate constants"))
        enums[ename] = tuple(consts)

    types: dict[str, TypeDecl] = {}
    raw_types = raw.get("types", {})
    valid_bases = set(raw_types) | set(enums) | set(PRIMITIVES)
    for tname in sorted(set(raw_types) & set(enums)):
        violations.append(Violation(f"types.{tname}", "name collides with an enum"))

    def type_ref(raw_ref: object, location: str) -> TypeRef:
        if not isinstance(raw_ref, dict) or "base" not in raw_ref:
            violations.append(Violation(location, "needs a type object with a 'base'"))
            return UNKNOWN
        ref = TypeRef.from_dict(raw_ref)
        if ref.base not in valid_bases:
            violations.append(Violation(location, f"unresolvable type {ref.base!r}"))
        return ref

    for tname, tdecl in raw_types.items():
        if not isinstance(tdecl, dict):
            violations.append(Violation(f"types.{tname}", "type declaration must be an object"))
            continue
        methods: dict[str, MethodSig] = {}
        for mname, mdecl in _shaped(tdecl.get("methods", {}), f"types.{tname}.methods",
                                    violations).items():
            loc = f"types.{tname}.methods.{mname}"
            if not isinstance(mdecl, dict):
                violations.append(Violation(loc, "method declaration must be an object"))
                continue
            raw_params = mdecl.get("params", [])
            if not isinstance(raw_params, list):
                violations.append(Violation(f"{loc}.params", "needs a JSON array"))
                raw_params = []
            params: list[Param] = []
            seen_params: set[str] = set()
            for i, p in enumerate(raw_params):
                if not isinstance(p, dict) or "name" not in p or "type" not in p:
                    violations.append(Violation(f"{loc}.params[{i}]", "param needs name and type"))
                    continue
                pname = str(p["name"])
                if pname in seen_params:
                    violations.append(Violation(f"{loc}.params[{i}]", f"duplicate param {pname!r}"))
                seen_params.add(pname)
                params.append(Param(pname, type_ref(p["type"], f"{loc}.params[{i}]")))
            methods[mname] = MethodSig(
                name=mname,
                params=tuple(params),
                returns=type_ref(mdecl.get("returns", {"base": "void"}), f"{loc}.returns"),
                mutates=bool(mdecl.get("mutates", False)),
            )
        attributes = {
            aname: type_ref(adecl, f"types.{tname}.attributes.{aname}")
            for aname, adecl in _shaped(tdecl.get("attributes", {}),
                                        f"types.{tname}.attributes", violations).items()
        }
        types[tname] = TypeDecl(name=tname, methods=methods, attributes=attributes)

    roots: dict[str, str] = {}
    for rname, rtype in raw.get("roots", {}).items():
        if not isinstance(rtype, str) or rtype not in raw_types:
            violations.append(Violation(f"roots.{rname}", f"root type {rtype!r} not declared"))
        roots[rname] = str(rtype)
    if not roots:
        violations.append(Violation("roots", "at least one root is required"))

    modules = frozenset(str(m) for m in raw.get("modules", []))

    if violations:
        raise SchemaError(violations)
    return ApiSchema(version=version, types=types, enums=enums, roots=roots, modules=modules)

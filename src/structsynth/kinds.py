"""Value kinds of the script language and the operations each kind supports.

The runtime raises an API fault when a value of the wrong kind reaches an
operation; layer 3 promises to reject such a program before it runs. Type
inference, layer 3 and the runtime's argument check all read this one table.

A static type stands for a set of kinds: its own, plus None when it is
nullable. ``ANY``, the type of a variable whose paths disagree, stands for
every kind. An operation is allowed only when every kind in the set supports
it. ``UNKNOWN`` passes every check: inference gives it only to a value whose
own fault another check reports, so one fault is reported once.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from .schema import UNKNOWN, ApiSchema, TypeRef

OBJECT, STRING, INT, FLOAT, BOOL, NONE = "object", "string", "int", "float", "bool", "None"
COLLECTION, ENUM, NAMESPACE, MODULE = "collection", "enum", "enum namespace", "module"
ALL = frozenset({OBJECT, STRING, INT, FLOAT, BOOL, NONE, COLLECTION, ENUM, NAMESPACE, MODULE})
_ONLY = {kind: frozenset({kind}) for kind in ALL}
_OR_NONE = {kind: frozenset({kind, NONE}) for kind in ALL}

BOOL_TYPE, INT_TYPE, FLOAT_TYPE = TypeRef("bool"), TypeRef("int"), TypeRef("float")
STRING_TYPE, NONE_TYPE = TypeRef("string"), TypeRef("void", nullable=True)
MODULE_TYPE = TypeRef("module")
ANY = TypeRef("<any type>")
_NAMESPACE = "enum "  # base prefix of an enum addressed through its module

_BASE_KINDS = {"string": STRING, "int": INT, "float": FLOAT, "bool": BOOL, "void": NONE,
               "module": MODULE}
_NUMBERS = frozenset({INT, FLOAT})
_NUMBER_PAIRS = frozenset(product(_NUMBERS, _NUMBERS))

# Binary operator -> the (left, right) kind pairs it accepts.
_PAIRS = {op: _NUMBER_PAIRS | {(STRING, STRING)} for op in ("<", "<=", ">", ">=", "+")}
_PAIRS.update({op: _NUMBER_PAIRS for op in ("-", "*", "/", "%")})
_PAIRS.update({op: frozenset(product(ALL, ALL)) for op in ("==", "!=")})

# Any other operation -> the kinds it accepts for each operand, in order.
# Builtins are called by name, so calling a value accepts no kind.
_OPERANDS: dict[str, tuple[frozenset[str], ...]] = {
    "print": (ALL,),
    "len": (frozenset({COLLECTION, STRING}),),
    "range": (frozenset({INT}),),
    "for": (frozenset({COLLECTION}),),
    "index": (frozenset({COLLECTION, STRING}), frozenset({INT})),
    "neg": (_NUMBERS,),
    "call": (frozenset(),),
    "method": (frozenset({OBJECT}),),
    "attribute": (frozenset({OBJECT, MODULE, NAMESPACE}),),
}
# Builtin function -> the type it returns.
BUILTINS = {"print": TypeRef("void"), "len": INT_TYPE, "range": TypeRef("int", many=True)}

# Parameter kind -> the argument kinds its check accepts. Enum and object
# parameters also need the argument's type name to match; others are unchecked.
_ARGUMENTS = {STRING: {STRING}, INT: {INT}, FLOAT: {INT, FLOAT}, BOOL: {BOOL}, ENUM: {ENUM},
              OBJECT: {OBJECT}}


def _base_kind(base: str, schema: ApiSchema) -> str | None:
    """Kind of a single, non-null value whose type is named ``base``."""
    if base in _BASE_KINDS:
        return _BASE_KINDS[base]
    if base.startswith(_NAMESPACE):
        return NAMESPACE
    if base in schema.enums:
        return ENUM
    return OBJECT if base in schema.types else None


def kinds(t: TypeRef, schema: ApiSchema) -> frozenset[str] | None:
    """The kinds a value of static type ``t`` may have at runtime; None if unresolved."""
    if t.is_unknown:
        return None
    kind = COLLECTION if t.many else _base_kind(t.base, schema)
    if kind is None:
        return ALL
    return (_OR_NONE if t.nullable else _ONLY)[kind]


def may_be_none(t: TypeRef) -> bool:
    """Whether a value of type ``t`` can be None: a nullable type or a void result."""
    return t.nullable or t.base == "void"


def allows(op: str, operands: Sequence[TypeRef], schema: ApiSchema) -> bool:
    """Whether ``op`` succeeds at runtime on every value of the operands' types.

    Value faults, such as division by zero or an index out of range, are not
    kind rules.
    """
    sets = [kinds(t, schema) for t in operands]
    if op in _PAIRS:
        left, right = sets
        return left is None or right is None or all(p in _PAIRS[op] for p in product(left, right))
    accepted = _OPERANDS[op]
    return len(sets) == len(accepted) and all(s is None or s <= ok for s, ok in zip(sets, accepted))


def result(op: str, operands: Sequence[TypeRef]) -> TypeRef:
    """The type ``op`` yields on operands it allows."""
    if op in ("==", "!=", "<", "<=", ">", ">="):
        return BOOL_TYPE
    if op in BUILTINS:
        return BUILTINS[op]
    first = operands[0]
    if op in _PAIRS:
        second = operands[1]
        if first.is_unknown or second.is_unknown:
            return UNKNOWN
        if first == STRING_TYPE:
            return STRING_TYPE
        return FLOAT_TYPE if op == "/" or FLOAT_TYPE in (first, second) else INT_TYPE
    if op in ("for", "index"):
        return STRING_TYPE if first == STRING_TYPE else first.element()
    return first if op == "neg" else UNKNOWN


def attribute(receiver: TypeRef, name: str, schema: ApiSchema) -> TypeRef | None:
    """The type ``receiver.name`` reads; None when a value of that type has no such member.

    Objects expose their declared attributes, a module its enums and an enum
    namespace its constants. A receiver that may be None is looked up as if
    it were not: layer 2 reports that fault.
    """
    if receiver.is_unknown:
        return UNKNOWN
    if not allows("attribute", (receiver.without_null(),), schema):
        return None
    if receiver.base == MODULE_TYPE.base:
        return TypeRef(_NAMESPACE + name) if name in schema.enums else None
    if receiver.base.startswith(_NAMESPACE):
        enum = receiver.base[len(_NAMESPACE):]
        return TypeRef(enum) if schema.enum_has(enum, name) else None
    return schema.attribute(receiver.base, name)


def accepts(param: TypeRef, arg_kind: str, arg_base: str, schema: ApiSchema) -> bool:
    """Whether a value of kind ``arg_kind`` and type name ``arg_base`` passes ``param``'s check."""
    check = argument_check(param, schema)
    return check is None or check(arg_kind, arg_base)


def argument_check(param: TypeRef, schema: ApiSchema) -> Callable[[str, str], bool] | None:
    """``accepts`` for one parameter, resolved once; None when the parameter is unchecked."""
    pkind = _base_kind(param.base, schema)
    allowed = _ARGUMENTS.get(pkind)  # type: ignore[arg-type]
    if allowed is None:
        return None
    if pkind in (ENUM, OBJECT):
        return lambda arg_kind, arg_base: arg_kind in allowed and arg_base == param.base
    return lambda arg_kind, arg_base: arg_kind in allowed


def join(a: TypeRef, b: TypeRef) -> TypeRef:
    """A type covering the values of both ``a`` and ``b``, where two paths merge.

    ``UNKNOWN`` comes from a path that faults before it gets there, so it adds
    no value.
    """
    if a == b or b.is_unknown:
        return a
    if a.is_unknown:
        return b
    if a.base == "void":
        a, b = b, a
    if a != ANY and (b.base == "void" or (a.base, a.many) == (b.base, b.many)):
        return TypeRef(a.base, a.many, nullable=True)
    return ANY


def describe(t: TypeRef) -> str:
    """A type as messages show it."""
    text = f"a {t.base} collection" if t.many else t.base
    return f"{text} or None" if t.nullable else text

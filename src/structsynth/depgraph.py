"""Typed structural dependency graphs over API object types.

A graph hypothesizes which objects a task needs (object nodes), how they are
acquired from one another (acquisition edges), and what is done to them
(action nodes fed by dependency edges, optionally through condition nodes).
Validation checks every node and edge against the schema and produces
structured feedback an extractor can consume on the next round. A validated
graph is the task's contract: ``DepGraph.calls`` lists the API paths it
names, and ``DepGraph.realizers`` is the one rule for which calls realize an
acquisition edge, read by layer 2, the generator and ``calls``. Labels carry
the rest: an object's ``name=clk show=getName|weight|count``, a condition's
``key=value`` tests and an action's spelled call, ``setWeight(2)``.
``DepGraph.elements`` is their one reader; ``calls``, validation and the
generator read its resolved elements, never a label. A literal in a label is
read by the script lexer's own token rule (``qas.lexer.one_token``).
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import NamedTuple, Protocol

from . import kinds
from .qas.lexer import one_token
from .qas.nodes import MAX_INT_DIGITS
from .schema import ApiSchema, ParseError, TypeRef


class GraphInvariantError(Exception):
    """The graph is structurally unusable (bad ids, cycles, untyped objects...)."""

    def __init__(self, problems: list[str]):
        self.problems = tuple(problems)
        super().__init__("; ".join(problems))


class ExtractorFailure(Exception):
    """Extraction ended without a graph that validated against the schema."""


class ExtractorOutputError(ParseError):
    """One extractor response, or a graph document, could not be parsed into a graph."""


class NodeKind(str, Enum):
    OBJECT = "object"
    CONDITION = "condition"
    ACTION = "action"


class EdgeKind(str, Enum):
    ACQUISITION = "acquisition"
    DEPENDENCY = "dependency"


class GraphNode(NamedTuple):
    id: str
    kind: NodeKind
    type_name: str | None = None
    label: str = ""


class GraphEdge(NamedTuple):
    src: str
    dst: str
    kind: EdgeKind
    via_method: str | None = None


class LabelElement(NamedTuple):
    """One label token resolved against the schema, by ``DepGraph.elements``.

    ``role``: ``name``, ``count``, ``show`` (a method) or ``read`` (an attribute)
    on an object; ``test`` for a condition's ``key=value`` (one naming no member
    if it tests nothing); ``call`` for an action. ``owner`` is the object node
    it applies to, if any, and ``member`` what it names there. ``literal`` is
    source text: the quoted name, the tested value or the call's arguments
    (None if unreadable or untested). ``guard`` is the condition a call holds
    under, None for a call made on its object directly.
    """

    node: str
    owner: str | None
    role: str
    member: str | None
    literal: tuple[str, ...] | None = ()
    guard: str | None = None


class DepGraph(NamedTuple):
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def node_map(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}

    @staticmethod
    def edge_id(edge: GraphEdge) -> str:
        base = f"{edge.src}->{edge.dst}"
        return f"{base}#{edge.via_method}" if edge.via_method else base

    def check_invariants(self) -> None:
        """Raise GraphInvariantError listing every structural problem found."""
        problems: list[str] = []
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            problems.append(f"duplicate node ids: {dupes}")
        for n in self.nodes:
            if n.kind is NodeKind.OBJECT and not n.type_name:
                problems.append(f"object node {n.id!r} has no type name")
        nmap = self.node_map()
        indeg: dict[str, int] = {i: 0 for i in nmap}
        adj: dict[str, list[str]] = {i: [] for i in nmap}
        seen_edges: set[tuple[str, str, EdgeKind, str | None]] = set()
        for e in self.edges:
            if e.src not in nmap or e.dst not in nmap:
                problems.append(f"edge {e.src}->{e.dst} references a missing node")
                continue
            key = (e.src, e.dst, e.kind, e.via_method)
            if key in seen_edges:
                problems.append(f"duplicate edge {e.src}->{e.dst} ({e.kind.value})")
            seen_edges.add(key)
            indeg[e.dst] += 1
            adj[e.src].append(e.dst)
            if e.kind is EdgeKind.ACQUISITION:
                src_kind = nmap[e.src].kind
                dst_kind = nmap[e.dst].kind
                if src_kind is not NodeKind.OBJECT or dst_kind is not NodeKind.OBJECT:
                    problems.append(f"acquisition edge {e.src}->{e.dst} must connect object nodes")
        for n in self.nodes:
            if n.kind is NodeKind.ACTION and indeg.get(n.id, 0) == 0:
                problems.append(f"action node {n.id!r} has no incoming dependency")
        if problems:
            raise GraphInvariantError(problems)
        # Kahn's algorithm, over the edges just counted: a cycle leaves some node never ready.
        ready = [i for i, d in indeg.items() if d == 0]
        done = 0
        while ready:
            done += 1
            for nxt in adj[ready.pop()]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if done != len(self.nodes):
            raise GraphInvariantError(["graph contains a cycle"])

    def acquisition_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.kind is EdgeKind.ACQUISITION)

    def realizers(self, edge: GraphEdge, schema: ApiSchema) -> tuple[str, ...]:
        """The methods that realize an acquisition edge, by name: its ``via``,
        or else every method of the source type that returns the target type."""
        if edge.via_method is not None:
            return (edge.via_method,)
        nmap = self.node_map()
        decl = schema.type_decl(nmap[edge.src].type_name or "")
        if decl is None:
            return ()
        dst = nmap[edge.dst].type_name
        return tuple(sorted(m for m, sig in decl.methods.items() if sig.returns.base == dst))

    def elements(self, schema: ApiSchema) -> tuple[LabelElement, ...]:
        """Every label token resolved, in graph order: an action's or condition's
        once for each object (and condition) it applies to (``_owners``), or
        once with no owner."""
        nmap = self.node_map()
        parents: dict[str, list[str]] = {}
        for e in self.edges:
            if e.kind is EdgeKind.DEPENDENCY:
                parents.setdefault(e.dst, []).append(e.src)
        out: list[LabelElement] = []
        for n in self.nodes:
            if n.kind is NodeKind.OBJECT:
                tname, tokens = n.type_name or "", parse_label(n.label)
                if "name" in tokens:
                    out.append(LabelElement(n.id, n.id, "name", None, (f'"{tokens["name"]}"',)))
                for m in tokens["show"].split("|") if "show" in tokens else ():
                    if m == "count":
                        out.append(LabelElement(n.id, n.id, "count", None))
                    elif m:
                        method = schema.method(tname, m) is not None
                        role = "show" if method or schema.attribute(tname, m) is None else "read"
                        out.append(LabelElement(n.id, n.id, role, m))
                continue
            tests = parse_label(n.label) if n.kind is NodeKind.CONDITION else {}
            for owner, guard in _owners(n, parents, nmap) or [(None, None)]:
                if n.kind is NodeKind.ACTION:
                    out.append(LabelElement(n.id, owner, "call", *_spelled_call(n.label), guard))
                    continue
                owner_type = nmap[owner].type_name or "" if owner is not None else ""
                if not tests:
                    out.append(LabelElement(n.id, owner, "test", None, None))
                for key, value in tests.items():
                    getter = f"get{key[:1].upper()}{key[1:]}"
                    sig = schema.method(owner_type, getter)
                    # The value as source text: quoted for a string, Enum.CONST for an enum.
                    base = sig.returns.base if sig is not None else ""
                    literal = f'"{value}"' if base == "string" else value
                    literal = f"{base}.{value}" if base in schema.enums else literal
                    out.append(LabelElement(n.id, owner, "test", getter, (literal,)))
        return tuple(out)

    def calls(self, schema: ApiSchema) -> tuple[str, ...]:
        """Every ``Type.member`` path the contract names, in graph order, once each:
        each acquisition edge's realizers, then the member of each label element
        that has an owner and names one."""
        nmap = self.node_map()
        paths = [f"{nmap[e.src].type_name}.{m}"
                 for e in self.acquisition_edges() for m in self.realizers(e, schema)]
        paths.extend(f"{nmap[el.owner].type_name}.{el.member}" for el in self.elements(schema)
                     if el.owner is not None and el.member)
        return tuple(dict.fromkeys(paths))

    def to_dict(self) -> dict:
        nodes = []
        for n in self.nodes:
            out: dict = {"id": n.id, "kind": n.kind.value}
            if n.type_name is not None:
                out["type"] = n.type_name
            if n.label:
                out["label"] = n.label
            nodes.append(out)
        edges = []
        for e in self.edges:
            out = {"src": e.src, "dst": e.dst, "kind": e.kind.value}
            if e.via_method:
                out["via"] = e.via_method
            edges.append(out)
        return {"nodes": nodes, "edges": edges}

    @staticmethod
    def from_dict(raw: dict) -> "DepGraph":
        if not isinstance(raw, dict) or "nodes" not in raw or "edges" not in raw:
            raise ExtractorOutputError("graph document needs 'nodes' and 'edges'")
        try:
            nodes = tuple(
                GraphNode(
                    id=_string(n, "id", required=True),
                    kind=NodeKind(n.get("kind", "object")),
                    type_name=_string(n, "type"),
                    label=_string(n, "label") or "",
                )
                for n in raw["nodes"]
            )
            edges = tuple(
                GraphEdge(
                    src=_string(e, "src", required=True),
                    dst=_string(e, "dst", required=True),
                    kind=EdgeKind(e.get("kind", "acquisition")),
                    via_method=_string(e, "via"),
                )
                for e in raw["edges"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExtractorOutputError(f"bad graph document: {exc}") from exc
        return DepGraph(nodes=nodes, edges=edges)


def parse_label(label: str) -> dict[str, str]:
    """The ``key=value`` tokens of a node label; tokens without ``=`` are skipped."""
    out: dict[str, str] = {}
    for token in label.split():
        if "=" in token:
            key, _, value = token.partition("=")
            out[key] = value
    return out


def _owners(
    node: GraphNode, parents: dict[str, list[str]], nmap: dict[str, GraphNode]
) -> list[tuple[str, str | None]]:
    """The objects an action or condition applies to, each with the condition an
    action holds under there (None when it depends on the object directly), once
    each. A condition applies to the objects it depends on, and a condition on a
    condition to nothing; one condition holds every test. An action that also
    depends on one of an object's conditions holds only under that condition."""
    found: list[tuple[str, str | None]] = []
    for pid in parents.get(node.id, ()):
        if nmap[pid].kind is NodeKind.OBJECT:
            found.append((pid, None))
        elif nmap[pid].kind is NodeKind.CONDITION and node.kind is NodeKind.ACTION:
            found.extend((q, pid) for q in parents.get(pid, ()) if nmap[q].kind is NodeKind.OBJECT)
    guarded = {q for q, cid in found if cid is not None}
    return list(dict.fromkeys((q, cid) for q, cid in found if cid is not None or q not in guarded))


def _spelled_call(label: str) -> tuple[str, tuple[str, ...] | None]:
    """An action label's method and argument texts; None for no call's spelling."""
    head, paren, rest = label.partition("(")
    inner, close, tail = rest.rpartition(")")
    if paren and (not close or tail.strip()):
        return head.strip(), None
    inner = inner.strip()
    return head.strip(), tuple(a.strip() for a in inner.split(",")) if inner else ()


def _string(raw: dict, key: str, required: bool = False) -> str | None:
    """A string field; an optional one reads as None when missing or null."""
    value = raw[key] if required else raw.get(key)
    if not isinstance(value, str) and (required or value is not None):
        raise TypeError(f"{key!r} must be a string, not {type(value).__name__}")
    return value


def checked_graph(raw, where: str) -> DepGraph:
    """The graph a document read from a file describes, its invariants checked.

    Raises ParseError for a malformed document, or one naming ``where`` for a
    graph that breaks an invariant.
    """
    graph = DepGraph.from_dict(raw)
    try:
        graph.check_invariants()
    except GraphInvariantError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return graph


class Feedback(NamedTuple):
    target: str
    code: str
    message: str


class GraphReport(NamedTuple):
    """Validation outcome: one feedback entry per finding; ``ok`` when there is none."""

    feedback: tuple[Feedback, ...]
    ok: bool


def _relation_graph(schema: ApiSchema) -> dict[str, set[str]]:
    """Schema type graph: parent -> children producible by some method."""
    rel: dict[str, set[str]] = {t: set() for t in schema.types}
    for tname, decl in schema.types.items():
        for sig in decl.methods.values():
            if sig.returns.base in schema.types:
                rel[tname].add(sig.returns.base)
    return rel


def _shortest_paths(rel: dict[str, set[str]], src: str, dst: str) -> list[list[str]]:
    """All shortest src->dst paths over the schema relation graph."""
    if src not in rel:
        return []
    best: dict[str, int] = {src: 0}
    paths: dict[str, list[list[str]]] = {src: [[src]]}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            continue
        for nxt in sorted(rel.get(cur, ())):
            depth = best[cur] + 1
            if nxt not in best:
                best[nxt] = depth
                paths[nxt] = [p + [nxt] for p in paths[cur]]
                queue.append(nxt)
            elif best[nxt] == depth:
                paths[nxt].extend(p + [nxt] for p in paths[cur])
    return paths.get(dst, [])


def validate_graph(g: DepGraph, schema: ApiSchema) -> GraphReport:
    """Check every node, edge and label element of g against the schema.

    Object nodes are valid when their type is declared and grounded by an
    acquisition path from a root type; undeclared types are hallucinated;
    declared-but-ungrounded nodes are real types whose acquisition is missing.
    Each label element must name a member of its owner's type that takes its
    literal (``_element_finding``). Every finding is an error.
    """
    g.check_invariants()
    nmap = g.node_map()
    rel = _relation_graph(schema)
    feedback: list[Feedback] = []

    valid_edges: list[GraphEdge] = []
    for e in g.acquisition_edges():
        eid = DepGraph.edge_id(e)
        src_t = nmap[e.src].type_name or ""
        dst_t = nmap[e.dst].type_name or ""
        if e.via_method is not None:
            sig = schema.method(src_t, e.via_method)
            if sig is None:
                feedback.append(
                    Feedback(eid, "unknown_method", f"{src_t} has no method {e.via_method!r}")
                )
                continue
            if sig.returns.base != dst_t:
                feedback.append(
                    Feedback(
                        eid,
                        "invalid_transition",
                        f"{src_t}.{e.via_method} returns {sig.returns.base}, not {dst_t}",
                    )
                )
                _suggest_intermediates(rel, src_t, dst_t, eid, feedback)
                continue
        elif dst_t not in rel.get(src_t, ()):
            feedback.append(
                Feedback(eid, "invalid_transition", f"no method of {src_t} returns {dst_t}")
            )
            _suggest_intermediates(rel, src_t, dst_t, eid, feedback)
            continue
        valid_edges.append(e)

    root_types = set(schema.roots.values())
    reachable: set[str] = set()
    frontier = [n.id for n in g.nodes if n.kind is NodeKind.OBJECT and n.type_name in root_types]
    reachable.update(frontier)
    while frontier:
        nxt: list[str] = []
        for e in valid_edges:
            if e.src in reachable and e.dst not in reachable:
                reachable.add(e.dst)
                nxt.append(e.dst)
        frontier = nxt

    for n in g.nodes:
        if n.kind is not NodeKind.OBJECT:
            continue
        if n.type_name not in schema.types:
            feedback.append(
                Feedback(n.id, "hallucinated_type", f"type {n.type_name!r} is not in the API")
            )
        elif n.id not in reachable:
            feedback.append(
                Feedback(
                    n.id,
                    "unreachable_type",
                    f"{n.type_name} is real but no valid acquisition path reaches it",
                )
            )
    for el in g.elements(schema):
        finding = _element_finding(g, el, nmap, schema)
        if finding is not None:
            feedback.append(Feedback(el.node, *finding))
    # An action under two conditions of one object is two elements, but one finding.
    return GraphReport(feedback=tuple(dict.fromkeys(feedback)), ok=not feedback)


def _element_finding(
    g: DepGraph, el: LabelElement, nmap: dict[str, GraphNode], schema: ApiSchema
) -> tuple[str, str] | None:
    """What is wrong with one label element, as (code, message); None if nothing.

    The owner's member must exist: a method (an attribute for ``read``), and
    an action's must mutate. A condition must test something. A call's
    arguments, a condition's value and a name must be literals the member's
    signature accepts, read by L3's rule (``kinds.accepts``). ``count`` needs
    a collection to count: the edge acquiring its node returns many.
    """
    if el.owner is None:
        return "no_owner", f"{nmap[el.node].kind.value} {el.node!r} has no object node to act on"
    if el.role == "test" and el.member is None:
        return "no_test", f"condition {el.node!r} tests no key=value"
    tname = nmap[el.owner].type_name or ""
    if tname not in schema.types or el.role == "read":
        return None  # hallucinated_type says so, or the attribute is there
    if el.role == "name":
        if _literal_kind(el.literal[0]) == kinds.STRING:
            return None
        return "bad_literal", f"name {el.literal[0]} is not a string literal"
    if el.role == "count":
        for e in g.acquisition_edges():
            first = g.realizers(e, schema)[:1] if e.dst == el.node else ()
            sig = schema.method(nmap[e.src].type_name or "", first[0]) if first else None
            if sig is not None and sig.returns.many:
                return None
        return "not_a_collection", f"show=count on {el.node!r}, which no collection acquires"
    path = f"{tname}.{el.member}"
    sig = schema.method(tname, el.member or "")
    if sig is None:
        member = "method or attribute" if el.role == "show" else "method"
        return "unknown_member", f"{tname} has no {member} {el.member!r}"
    if el.literal is None:
        return "bad_literal", f"cannot read the call {nmap[el.node].label!r}"
    given = len(el.literal) if el.role == "call" else 0
    if given != sig.arity:
        return "bad_arity", f"{path} takes {sig.arity} argument(s), got {given}"
    if el.role == "call":
        if not sig.mutates:
            return "no_effect", f"{path} changes nothing, so it cannot be an action"
        for param, arg in zip(sig.params, el.literal):
            if not _accepts(param.type, arg, schema):
                return "bad_literal", (f"{path} argument {param.name!r} expects "
                                       f"{param.type.base}, got {arg}")
    elif el.role == "test" and not _accepts(sig.returns, el.literal[0], schema):
        return "bad_literal", f"{path} returns {kinds.describe(sig.returns)}, never {el.literal[0]}"
    return None


# The kind of a token that is a whole literal.
_LITERAL_KINDS = {"INT": kinds.INT, "FLOAT": kinds.FLOAT, "STRING": kinds.STRING,
                  "True": kinds.BOOL, "False": kinds.BOOL}


def _literal_kind(text: str) -> str | None:
    """The kind of the literal ``text`` as the script's lexer and parser read it,
    a number perhaps negated; None for text that is no such literal."""
    negated = text.startswith("-")
    kind, spelled = one_token(text[1:] if negated else text) or ("", "")
    if negated and kind not in ("INT", "FLOAT") or kind == "INT" and len(spelled) > MAX_INT_DIGITS:
        return None
    return _LITERAL_KINDS.get(spelled if kind == "KW" else kind)


def _accepts(t: TypeRef, text: str, schema: ApiSchema) -> bool:
    """Whether the literal ``text`` is a value of type ``t`` by L3's rule.

    An enum constant is spelled ``Enum.CONST``, which the generator addresses
    through the schema's module; text that is no literal is accepted by nothing.
    """
    kind = _literal_kind(text)
    if kind is not None:
        return kinds.accepts(t, kind, kind, schema)
    enum, _, const = text.partition(".")
    return bool(schema.modules) and schema.enum_has(enum, const) and kinds.accepts(
        t, kinds.ENUM, enum, schema)


def _suggest_intermediates(
    rel: dict[str, set[str]],
    src_t: str,
    dst_t: str,
    eid: str,
    feedback: list[Feedback],
) -> None:
    paths = _shortest_paths(rel, src_t, dst_t)
    if len(paths) == 1 and len(paths[0]) > 2:
        for mid in paths[0][1:-1]:
            feedback.append(
                Feedback(eid, "missing_intermediate", f"insert {mid} between {src_t} and {dst_t}")
            )
    elif len(paths) > 1:
        options = ", ".join("->".join(p) for p in paths)
        feedback.append(Feedback(eid, "invalid_transition", f"candidate paths: {options}"))


class GraphExtractor(Protocol):
    """Produces graph hypotheses from a prompt, refined by validator feedback."""

    def extract(
        self, prompt: str, previous: DepGraph | None, feedback: tuple[Feedback, ...]
    ) -> DepGraph: ...


# Extraction rounds before the task is refused.
MAX_ROUNDS = 3


def extract_graph(
    prompt: str,
    extractor: GraphExtractor,
    schema: ApiSchema,
    seed_feedback: tuple[Feedback, ...] = (),
) -> DepGraph:
    """Iteratively extract a graph until it validates or rounds run out.

    Returns the first hypothesis whose report has no finding. Raises
    ExtractorFailure after two unparseable responses in a row, or when no
    round validated; its message names the last round's feedback.
    """
    feedback: tuple[Feedback, ...] = seed_feedback
    previous: DepGraph | None = None
    unparseable_streak = 0
    for _ in range(MAX_ROUNDS):
        try:
            hypothesis = extractor.extract(prompt, previous, feedback)
            unparseable_streak = 0
        except ExtractorOutputError as exc:
            unparseable_streak += 1
            if unparseable_streak >= 2:
                raise ExtractorFailure(f"extractor gave no graph twice in a row: {exc}") from exc
            feedback = (Feedback("", "unparseable", str(exc)),)
            continue
        previous = hypothesis
        try:
            report = validate_graph(hypothesis, schema)
        except GraphInvariantError as exc:
            feedback = tuple(Feedback("", "graph_invariant", p) for p in exc.problems)
            continue
        if report.ok:
            return hypothesis
        feedback = report.feedback
    findings = "; ".join(f"{f.code}: {f.message}" for f in feedback)
    raise ExtractorFailure(f"no graph validated in {MAX_ROUNDS} rounds ({findings})")


class GraphMetrics(NamedTuple):
    node_precision: float
    node_recall: float
    node_f1: float
    edge_precision: float
    edge_recall: float
    edge_f1: float
    exact_match: bool


def _node_identity(g: DepGraph) -> set[tuple[str, str | None]]:
    return {(n.kind.value, n.type_name if n.kind is NodeKind.OBJECT else None) for n in g.nodes}


def _edge_identity(g: DepGraph) -> set[tuple[str | None, str | None, str]]:
    nmap = g.node_map()

    def tn(nid: str) -> str | None:
        n = nmap[nid]
        return n.type_name if n.kind is NodeKind.OBJECT else None

    return {(tn(e.src), tn(e.dst), e.kind.value) for e in g.edges}


def _prf(pred: set, truth: set) -> tuple[float, float, float]:
    inter = len(pred & truth)
    p = inter / len(pred) if pred else 1.0
    r = inter / len(truth) if truth else 1.0
    f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
    return p, r, f1


def graph_metrics(pred: DepGraph, truth: DepGraph) -> GraphMetrics:
    """Type-level set precision/recall/F1 for nodes and edges, plus exact match."""
    pn, tn = _node_identity(pred), _node_identity(truth)
    pe, te = _edge_identity(pred), _edge_identity(truth)
    np_, nr, nf = _prf(pn, tn)
    ep, er, ef = _prf(pe, te)
    return GraphMetrics(
        node_precision=np_,
        node_recall=nr,
        node_f1=nf,
        edge_precision=ep,
        edge_recall=er,
        edge_f1=ef,
        exact_match=(pn == tn and pe == te),
    )

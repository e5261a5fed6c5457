"""Typed structural dependency graphs over API object types.

A graph hypothesizes which objects a task needs (object nodes), how they are
acquired from one another (acquisition edges), and what is done to them
(action nodes fed by dependency edges, optionally through condition nodes).
Validation checks every node and edge against the schema and produces
structured feedback an extractor can consume on the next round.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import NamedTuple, Protocol

from .schema import ApiSchema, ParseError


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
        known = set(ids)
        for n in self.nodes:
            if n.kind is NodeKind.OBJECT and not n.type_name:
                problems.append(f"object node {n.id!r} has no type name")
        nmap = {n.id: n for n in self.nodes}
        indeg: dict[str, int] = {i: 0 for i in known}
        seen_edges: set[tuple[str, str, EdgeKind, str | None]] = set()
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                problems.append(f"edge {e.src}->{e.dst} references a missing node")
                continue
            key = (e.src, e.dst, e.kind, e.via_method)
            if key in seen_edges:
                problems.append(f"duplicate edge {e.src}->{e.dst} ({e.kind.value})")
            seen_edges.add(key)
            indeg[e.dst] += 1
            if e.kind is EdgeKind.ACQUISITION:
                src_kind = nmap[e.src].kind
                dst_kind = nmap[e.dst].kind
                if src_kind is not NodeKind.OBJECT or dst_kind is not NodeKind.OBJECT:
                    problems.append(f"acquisition edge {e.src}->{e.dst} must connect object nodes")
        for n in self.nodes:
            if n.kind is NodeKind.ACTION and indeg.get(n.id, 0) == 0:
                problems.append(f"action node {n.id!r} has no incoming dependency")
        if not problems and self._has_cycle():
            problems.append("graph contains a cycle")
        if problems:
            raise GraphInvariantError(problems)

    def _has_cycle(self) -> bool:
        """Kahn's algorithm: a cycle leaves some node never ready. Needs
        every edge to name known nodes, as ``check_invariants`` has checked."""
        indeg: dict[str, int] = {n.id: 0 for n in self.nodes}
        adj: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            adj[e.src].append(e.dst)
            indeg[e.dst] += 1
        ready = [i for i, d in indeg.items() if d == 0]
        done = 0
        while ready:
            done += 1
            for nxt in adj[ready.pop()]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        return done != len(self.nodes)

    def acquisition_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.kind is EdgeKind.ACQUISITION)

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
    """Validation outcome: one feedback entry per finding.

    ``ok`` is false when an object node's type is hallucinated or an
    acquisition edge is invalid; an unreachable real type is advisory.
    """

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
    """Check every node and edge of g against the schema.

    Object nodes are valid when their type is declared and grounded by an
    acquisition path from a root type; undeclared types are hallucinated;
    declared-but-ungrounded nodes are real types whose acquisition is missing.
    """
    g.check_invariants()
    nmap = g.node_map()
    rel = _relation_graph(schema)
    feedback: list[Feedback] = []

    acquisitions = g.acquisition_edges()
    valid_edges: list[GraphEdge] = []
    for e in acquisitions:
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

    ok = len(valid_edges) == len(acquisitions)
    for n in g.nodes:
        if n.kind is not NodeKind.OBJECT:
            continue
        if n.type_name not in schema.types:
            ok = False
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

    return GraphReport(feedback=tuple(feedback), ok=ok)


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

    Returns the first hypothesis whose report shows no hallucinated nodes and
    no invalid edges. Raises ExtractorFailure after two consecutive
    unparseable responses, or when no round validated; its message names
    the last round's feedback.
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

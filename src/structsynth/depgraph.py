"""Typed structural dependency graphs over API object types.

A graph hypothesizes which objects a task needs (object nodes), how they are
acquired from one another (acquisition edges), and what is done to them
(action nodes fed by dependency edges, optionally through condition nodes).
Validation checks every node and edge against the schema and produces
structured feedback an extractor can consume on the next round.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Protocol

from .qas.analysis import TypedScript
from .schema import ApiSchema, ParseError


class GraphInvariantError(Exception):
    """The graph is structurally unusable (bad ids, cycles, untyped objects...)."""

    def __init__(self, problems: list[str]):
        self.problems = tuple(problems)
        super().__init__("; ".join(problems))


class ExtractorFailure(Exception):
    """The extractor produced unparseable output twice in a row."""


class ExtractorOutputError(ParseError):
    """One extractor response, or a graph document, could not be parsed into a graph."""


class NodeKind(str, Enum):
    OBJECT = "object"
    CONDITION = "condition"
    ACTION = "action"


class EdgeKind(str, Enum):
    ACQUISITION = "acquisition"
    DEPENDENCY = "dependency"


class NodeClass(str, Enum):
    VALID = "valid"
    MISSING_BUT_REAL = "missing_but_real"
    HALLUCINATED = "hallucinated"


class EdgeVerdict(str, Enum):
    OK = "ok"
    INVALID_TRANSITION = "invalid_transition"
    UNKNOWN_METHOD = "unknown_method"


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

    def find_edge(self, edge_id: str) -> GraphEdge | None:
        for e in self.edges:
            if DepGraph.edge_id(e) == edge_id:
                return e
        return None

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
        return len(self.topo_order()) != len(self.nodes)

    def topo_order(self) -> list[str]:
        """Kahn's algorithm with id-ordered tie-breaking; truncated on cycles."""
        indeg: dict[str, int] = {n.id: 0 for n in self.nodes}
        adj: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            if e.src in adj and e.dst in indeg:
                adj[e.src].append(e.dst)
                indeg[e.dst] += 1
        ready = [i for i, d in sorted(indeg.items()) if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for nxt in adj[nid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        return order

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
                    id=str(n["id"]),
                    kind=NodeKind(n.get("kind", "object")),
                    type_name=n.get("type"),
                    label=str(n.get("label", "")),
                )
                for n in raw["nodes"]
            )
            edges = tuple(
                GraphEdge(
                    src=str(e["src"]),
                    dst=str(e["dst"]),
                    kind=EdgeKind(e.get("kind", "acquisition")),
                    via_method=e.get("via"),
                )
                for e in raw["edges"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExtractorOutputError(f"bad graph document: {exc}") from exc
        return DepGraph(nodes=nodes, edges=edges)


class Feedback(NamedTuple):
    target: str
    code: str
    message: str


class GraphReport(NamedTuple):
    """Validation outcome: a class for every node, a verdict for every edge."""

    node_classes: dict[str, NodeClass]
    edge_verdicts: dict[str, EdgeVerdict]
    inserted_intermediates: tuple[tuple[str, str], ...]
    feedback: tuple[Feedback, ...]

    @property
    def ok(self) -> bool:
        no_bad_nodes = all(c is not NodeClass.HALLUCINATED for c in self.node_classes.values())
        no_bad_edges = all(v is EdgeVerdict.OK for v in self.edge_verdicts.values())
        return no_bad_nodes and no_bad_edges


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

    edge_verdicts: dict[str, EdgeVerdict] = {}
    inserted: list[tuple[str, str]] = []
    for e in g.edges:
        eid = DepGraph.edge_id(e)
        if e.kind is EdgeKind.DEPENDENCY:
            edge_verdicts[eid] = EdgeVerdict.OK
            continue
        src_t = nmap[e.src].type_name or ""
        dst_t = nmap[e.dst].type_name or ""
        if e.via_method is not None:
            sig = schema.method(src_t, e.via_method)
            if sig is None:
                edge_verdicts[eid] = EdgeVerdict.UNKNOWN_METHOD
                feedback.append(
                    Feedback(eid, "unknown_method", f"{src_t} has no method {e.via_method!r}")
                )
                continue
            if sig.returns.base != dst_t:
                edge_verdicts[eid] = EdgeVerdict.INVALID_TRANSITION
                feedback.append(
                    Feedback(
                        eid,
                        "invalid_transition",
                        f"{src_t}.{e.via_method} returns {sig.returns.base}, not {dst_t}",
                    )
                )
                _suggest_intermediates(rel, src_t, dst_t, eid, inserted, feedback)
                continue
            edge_verdicts[eid] = EdgeVerdict.OK
            continue
        if dst_t in rel.get(src_t, set()):
            edge_verdicts[eid] = EdgeVerdict.OK
        else:
            edge_verdicts[eid] = EdgeVerdict.INVALID_TRANSITION
            feedback.append(
                Feedback(eid, "invalid_transition", f"no method of {src_t} returns {dst_t}")
            )
            _suggest_intermediates(rel, src_t, dst_t, eid, inserted, feedback)

    root_types = set(schema.roots.values())
    reachable: set[str] = set()
    frontier = [n.id for n in g.nodes if n.kind is NodeKind.OBJECT and n.type_name in root_types]
    reachable.update(frontier)
    while frontier:
        nxt: list[str] = []
        for e in g.edges:
            if (
                e.kind is EdgeKind.ACQUISITION
                and e.src in reachable
                and e.dst not in reachable
                and edge_verdicts.get(DepGraph.edge_id(e)) is EdgeVerdict.OK
            ):
                reachable.add(e.dst)
                nxt.append(e.dst)
        frontier = nxt

    node_classes: dict[str, NodeClass] = {}
    for n in g.nodes:
        if n.kind is not NodeKind.OBJECT:
            node_classes[n.id] = NodeClass.VALID
            continue
        if n.type_name not in schema.types:
            node_classes[n.id] = NodeClass.HALLUCINATED
            feedback.append(
                Feedback(n.id, "hallucinated_type", f"type {n.type_name!r} is not in the API")
            )
        elif n.id in reachable:
            node_classes[n.id] = NodeClass.VALID
        else:
            node_classes[n.id] = NodeClass.MISSING_BUT_REAL
            feedback.append(
                Feedback(
                    n.id,
                    "unreachable_type",
                    f"{n.type_name} is real but no valid acquisition path reaches it",
                )
            )

    return GraphReport(
        node_classes=node_classes,
        edge_verdicts=edge_verdicts,
        inserted_intermediates=tuple(inserted),
        feedback=tuple(feedback),
    )


def _suggest_intermediates(
    rel: dict[str, set[str]],
    src_t: str,
    dst_t: str,
    eid: str,
    inserted: list[tuple[str, str]],
    feedback: list[Feedback],
) -> None:
    paths = _shortest_paths(rel, src_t, dst_t)
    if len(paths) == 1 and len(paths[0]) > 2:
        for mid in paths[0][1:-1]:
            inserted.append((mid, eid))
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


# Extraction rounds before the last hypothesis is returned unvalidated.
MAX_ROUNDS = 3


@dataclass
class ExtractionResult:
    graph: DepGraph
    report: GraphReport | None
    rounds_used: int
    validated: bool


def extract_graph(
    prompt: str,
    extractor: GraphExtractor,
    schema: ApiSchema,
    seed_feedback: tuple[Feedback, ...] = (),
) -> ExtractionResult:
    """Iteratively extract a graph until it validates or rounds run out.

    Returns the first hypothesis whose report shows no hallucinated nodes and
    no invalid edges; otherwise the last hypothesis, flagged unvalidated.
    Raises ExtractorFailure after two consecutive unparseable responses.
    """
    feedback: tuple[Feedback, ...] = seed_feedback
    previous: DepGraph | None = None
    last_report: GraphReport | None = None
    unparseable_streak = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        try:
            hypothesis = extractor.extract(prompt, previous, feedback)
            unparseable_streak = 0
        except ExtractorOutputError as exc:
            unparseable_streak += 1
            if unparseable_streak >= 2:
                raise ExtractorFailure(f"extractor output unparseable twice: {exc}") from exc
            feedback = (Feedback("", "unparseable", str(exc)),)
            continue
        previous = hypothesis
        try:
            report = validate_graph(hypothesis, schema)
        except GraphInvariantError as exc:
            last_report = None
            feedback = tuple(Feedback("", "graph_invariant", p) for p in exc.problems)
            continue
        last_report = report
        if report.ok:
            return ExtractionResult(hypothesis, report, rounds, validated=True)
        feedback = report.feedback
    if previous is None:
        raise ExtractorFailure("extractor produced no usable graph")
    return ExtractionResult(previous, last_report, MAX_ROUNDS, validated=False)


def ground_truth_graph(ts: TypedScript, schema: ApiSchema) -> tuple[DepGraph, int]:
    """Derive the reference graph a typed script implies.

    One object node per distinct acquired type, one acquisition edge per
    producing call, one action node per mutating call. Returns the graph and
    the count of call sites skipped for lack of a resolved receiver type.
    """
    node_ids: dict[str, str] = {}
    nodes: list[GraphNode] = []
    edges: list[GraphEdge] = []
    seen_edges: set[tuple[str, str, str | None]] = set()
    skipped = 0
    action_n = 0

    def ensure(type_name: str) -> str:
        nid = node_ids.get(type_name)
        if nid is None:
            nid = f"t_{type_name.lower()}"
            node_ids[type_name] = nid
            nodes.append(GraphNode(id=nid, kind=NodeKind.OBJECT, type_name=type_name))
        return nid

    for cs in ts.call_sites:
        recv = cs.receiver_type
        if recv.is_unknown or recv.base not in schema.types:
            skipped += 1
            continue
        sig = schema.method(recv.base, cs.method)
        if sig is None:
            skipped += 1
            continue
        src = ensure(recv.base)
        if sig.returns.base in schema.types:
            dst = ensure(sig.returns.base)
            key = (src, dst, cs.method)
            if key not in seen_edges:
                seen_edges.add(key)
                edges.append(
                    GraphEdge(src=src, dst=dst, kind=EdgeKind.ACQUISITION, via_method=cs.method)
                )
        if sig.mutates:
            action_n += 1
            aid = f"a_{action_n}_{cs.method.lower()}"
            nodes.append(GraphNode(id=aid, kind=NodeKind.ACTION, label=cs.method))
            edges.append(GraphEdge(src=src, dst=aid, kind=EdgeKind.DEPENDENCY))
            for arg in cs.arg_types:
                if not arg.is_unknown and arg.base in schema.types:
                    edges.append(
                        GraphEdge(src=ensure(arg.base), dst=aid, kind=EdgeKind.DEPENDENCY)
                    )
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges)), skipped


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

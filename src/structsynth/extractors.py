"""Graph extractor: a deterministic pattern table.

The table writes the contract's label language, which ``DepGraph.elements``
alone reads: object nodes use space-separated ``key=value`` tokens
(``name=clk``, ``show=getName|weight|count``), condition nodes test
``name=<x>`` through ``getName``, and action nodes spell the call itself
(``setWeight(2)``, ``setPlacementStatus(PlacementStatus.PLACED)``).
"""

from __future__ import annotations

import re

from .depgraph import (
    DepGraph,
    EdgeKind,
    ExtractorOutputError,
    Feedback,
    GraphEdge,
    GraphNode,
    NodeKind,
)
from .schema import ApiSchema


def _obj(nid: str, type_name: str, label: str = "") -> GraphNode:
    return GraphNode(id=nid, kind=NodeKind.OBJECT, type_name=type_name, label=label)


def _acq(src: str, dst: str, via: str) -> GraphEdge:
    return GraphEdge(src=src, dst=dst, kind=EdgeKind.ACQUISITION, via_method=via)


def _dep(src: str, dst: str) -> GraphEdge:
    return GraphEdge(src=src, dst=dst, kind=EdgeKind.DEPENDENCY)


def _spine() -> tuple[list[GraphNode], list[GraphEdge]]:
    nodes = [_obj("design", "Design"), _obj("block", "Block")]
    edges = [_acq("design", "block", "getBlock")]
    return nodes, edges


def _named_net_graph(name: str, extra_label: str = "") -> DepGraph:
    label = f"name={name}" + (f" {extra_label}" if extra_label else "")
    nodes, edges = _spine()
    nodes.append(_obj("net", "Net", label))
    edges.append(_acq("block", "net", "findNet"))
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges))


def _with_action(g: DepGraph, on: str, call: str) -> DepGraph:
    act = GraphNode(id="act", kind=NodeKind.ACTION, label=call)
    return DepGraph(nodes=g.nodes + (act,), edges=g.edges + (_dep(on, "act"),))


def _all_of(type_name: str, via: str, show: str) -> DepGraph:
    nodes, edges = _spine()
    nid = type_name.lower()
    nodes.append(_obj(nid, type_name, f"show={show}"))
    edges.append(_acq("block", nid, via))
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges))


def _named_inst_graph(name: str) -> tuple[list[GraphNode], list[GraphEdge]]:
    nodes, edges = _spine()
    nodes.append(_obj("inst", "Inst"))
    edges.append(_acq("block", "inst", "getInsts"))
    nodes.append(GraphNode(id="cond", kind=NodeKind.CONDITION, label=f"name={name}"))
    edges.append(_dep("inst", "cond"))
    return nodes, edges


def _status_const(word: str) -> str:
    return f"PlacementStatus.{word.upper()}"


class PatternTableExtractor:
    """Maps task prompts onto graphs with a fixed table of phrase patterns.

    Deterministic and feedback-blind: the table is already consistent with
    the API it was written for, so refinement feedback is accepted but unused.
    A prompt no pattern matches raises ExtractorOutputError: no default contract.
    """

    def __init__(self, schema: ApiSchema):
        self.schema = schema

    def extract(
        self, prompt: str, previous: DepGraph | None, feedback: tuple[Feedback, ...]
    ) -> DepGraph:
        for pattern, build in _PATTERNS:
            m = pattern.search(prompt)
            if m:
                return build(m)
        raise ExtractorOutputError(f"no pattern matches the prompt {prompt!r}")


def _build_set_weight(m: re.Match) -> DepGraph:
    g = _named_net_graph(m.group(1))
    return _with_action(g, "net", f"setWeight({m.group(2)})")


def _build_mark_inst(m: re.Match) -> DepGraph:
    nodes, edges = _named_inst_graph(m.group(1))
    call = f"setPlacementStatus({_status_const(m.group(2))})"
    nodes.append(GraphNode(id="act", kind=NodeKind.ACTION, label=call))
    edges.append(_dep("cond", "act"))
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges))


def _build_mark_all(m: re.Match) -> DepGraph:
    nodes, edges = _spine()
    nodes.append(_obj("inst", "Inst"))
    edges.append(_acq("block", "inst", "getInsts"))
    call = f"setPlacementStatus({_status_const(m.group(1))})"
    nodes.append(GraphNode(id="act", kind=NodeKind.ACTION, label=call))
    edges.append(_dep("inst", "act"))
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges))


def _build_show_net_weight(m: re.Match) -> DepGraph:
    return _named_net_graph(m.group(1), "show=weight")


def _build_show_inst_name(m: re.Match) -> DepGraph:
    nodes, edges = _named_inst_graph(m.group(1))
    idx = next(i for i, n in enumerate(nodes) if n.id == "inst")
    nodes[idx] = _obj("inst", "Inst", "show=getName")
    return DepGraph(nodes=tuple(nodes), edges=tuple(edges))


_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (
        re.compile(
            r"set\s+(?:the\s+)?weight\s+of\s+(?:the\s+)?net\s+(?:named\s+|called\s+)?(\w+)\s+to\s+(\d+)", re.I
        ),
        _build_set_weight,
    ),
    (
        re.compile(r"mark\s+(?:the\s+)?instance\s+(?:named\s+|called\s+)?(\w+)\s+as\s+(placed|firm)", re.I),
        _build_mark_inst,
    ),
    (
        re.compile(
            r"set\s+(?:the\s+)?placement\s+status\s+of\s+(?:the\s+)?instance\s+(?:named\s+|called\s+)?(\w+)"
            r"\s+to\s+(placed|firm)",
            re.I,
        ),
        _build_mark_inst,
    ),
    (
        re.compile(
            r"(?:mark|set)\s+(?:the\s+)?placement\s+status\s+of\s+(?:all|every)\s+"
            r"instances?\s+to\s+(placed|firm)",
            re.I,
        ),
        _build_mark_all,
    ),
    (
        re.compile(r"mark\s+(?:all|every)\s+instances?\s+as\s+(placed|firm)", re.I),
        _build_mark_all,
    ),
    (
        re.compile(
            r"(?:print|show|report)\s+(?:the\s+)?weight\s+of\s+(?:the\s+)?net\s+(?:named\s+|called\s+)?(\w+)", re.I
        ),
        _build_show_net_weight,
    ),
    (
        re.compile(
            r"(?:print|show)\s+(?:the\s+)?name\s+of\s+(?:the\s+)?instance\s+(?:named\s+|called\s+)?(\w+)", re.I
        ),
        _build_show_inst_name,
    ),
    (
        re.compile(
            r"(?:print|show|list)\s+(?:the\s+)?weights?\s+of\s+(?:all|every)\s+(?:the\s+)?nets?",
            re.I,
        ),
        lambda m: _all_of("Net", "getNets", "weight"),
    ),
    (
        re.compile(
            r"(?:count\s+(?:all\s+)?(?:the\s+)?|how\s+many\s+|(?:print|show)\s+the\s+number"
            r"\s+of\s+)nets?",
            re.I,
        ),
        lambda m: _all_of("Net", "getNets", "count"),
    ),
    (
        re.compile(
            r"(?:count\s+(?:all\s+)?(?:the\s+)?|how\s+many\s+|(?:print|show)\s+the\s+number"
            r"\s+of\s+)(?:instances?|insts?)",
            re.I,
        ),
        lambda m: _all_of("Inst", "getInsts", "count"),
    ),
    (
        re.compile(
            r"(?:print|list|show)\s+(?:the\s+)?names?\s+of\s+(?:all\s+|every\s+)?"
            r"(?:the\s+)?(?:instances?|insts?)|list\s+(?:all\s+)?(?:the\s+)?instances?",
            re.I,
        ),
        lambda m: _all_of("Inst", "getInsts", "getName"),
    ),
    (
        re.compile(
            r"(?:print|list|show)\s+(?:the\s+)?names?\s+of\s+(?:all\s+|every\s+)?"
            r"(?:the\s+)?nets?|list\s+(?:all\s+)?(?:the\s+)?nets?",
            re.I,
        ),
        lambda m: _all_of("Net", "getNets", "getName"),
    ),
)

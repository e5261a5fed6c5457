"""A graph that validates is a contract the template generator meets.

Seeded graphs are drawn over a schema: object chains along its relation
graph, labels drawn from each type's members, and conditions and actions
with drawn literals, some of them wrong on purpose. Every graph that
validates must render to a program that passes L1-L4 at the first attempt,
reads or calls every member its label elements name, makes each action only
where its conditions hold, and runs on the toy snapshot without a fault.
Every graph that does not validate must say why.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from structsynth.depgraph import DepGraph, EdgeKind, NodeKind, validate_graph
from structsynth.generators import GenerationRequest, TemplateGenerator
from structsynth.judges import RuleBasedJudge
from structsynth.qas.analysis import analyze
from structsynth.runtime import ExecStatus, Session
from structsynth.verifier import verify_all

SEEDS = range(300)

# Every code validation can give; a refused graph's findings must come from here.
FINDINGS = {
    "hallucinated_type", "unknown_method", "invalid_transition", "missing_intermediate",
    "unreachable_type", "unknown_member", "no_owner", "no_test", "bad_arity", "bad_literal",
    "no_effect", "not_a_collection",
}
# The codes a wrong label or a missing acquisition is drawn to raise.
DRAWN_WRONG = {"unreachable_type", "unknown_member", "no_owner", "no_test", "bad_arity",
               "bad_literal", "no_effect", "not_a_collection"}

NAMES = ("clk", "rst", "u1", "u2", "top", "nope", 'a"b')
VALUES = ("u1", "clk", "top", "PLACED", "FIRM", "WIBBLE", "3")
ARGS = ("2", "0", "-1", '"x"', "1.5", "True", "None",
        "PlacementStatus.PLACED", "PlacementStatus.FIRM", "PlacementStatus.WIBBLE")
# Literals that fit a parameter or getter of each base type.
FITTING = {"int": ("2", "0", "-1"), "float": ("1.5", "2"), "string": ('"x"', '"clk"'),
           "bool": ("True",)}


class _Drawing:
    """One seeded graph document, built node by node."""

    def __init__(self, rng: random.Random, schema):
        self.rng = rng
        self.schema = schema
        self.nodes: list[dict] = []
        self.edges: list[dict] = []
        self.types: dict[str, str] = {}

    def add(self, kind: str, type_name: str | None = None) -> str:
        nid = f"{kind[0]}{len(self.nodes)}"
        self.nodes.append({"id": nid, "kind": kind, "type": type_name, "label": ""})
        if type_name is not None:
            self.types[nid] = type_name
        return nid

    def depend(self, src: str, dst: str) -> None:
        self.edges.append({"src": src, "dst": dst, "kind": "dependency"})

    def label(self, nid: str, text: str) -> None:
        next(n for n in self.nodes if n["id"] == nid)["label"] = text

    def pick(self, fitting, anything):
        """Mostly a choice that fits, sometimes any choice at all, right or wrong."""
        fitting = sorted(fitting)
        if fitting and self.rng.random() < 0.92:
            return self.rng.choice(fitting)
        return self.rng.choice(sorted(anything))

    def fitting(self, base: str) -> tuple[str, ...]:
        if base in self.schema.enums:
            return tuple(f"{base}.{c}" for c in self.schema.enums[base])
        return FITTING.get(base, ())

    def objects(self) -> None:
        """A tree of objects from the root along the relation graph, plus, now
        and then, an object no acquisition reaches."""
        rng = self.rng
        frontier = [self.add("object", min(self.schema.roots.values()))]
        while frontier and len(self.types) < 5:
            src = frontier.pop(0)
            methods = sorted(self.schema.types[self.types[src]].methods.items())
            for method, sig in methods:
                # The root always acquires something, so most graphs reach a leaf type.
                first = src == "o0" and len(self.types) == 1 and (method, sig) == methods[-1]
                if sig.returns.base in self.schema.types and (first or rng.random() < 0.6):
                    dst = self.add("object", sig.returns.base)
                    via = method if rng.random() < 0.85 else None
                    self.edges.append({"src": src, "dst": dst, "kind": "acquisition", "via": via})
                    frontier.append(dst)
        if rng.random() < 0.08:
            self.add("object", rng.choice(sorted(self.schema.types)))

    def object_label(self, nid: str) -> None:
        rng = self.rng
        decl = self.schema.types[self.types[nid]]
        tokens = []
        if rng.random() < 0.3:
            tokens.append(f"name={self.pick(NAMES[:-1], NAMES)}")
        if rng.random() < 0.5:
            shown = [m for m, sig in decl.methods.items() if sig.arity == 0 and not sig.mutates]
            members = [*decl.methods, *decl.attributes, "count", "frob"]
            picks = {self.pick(shown + list(decl.attributes), members) for _ in range(2)}
            tokens.append("show=" + "|".join(sorted(picks)[: rng.randint(1, 2)]))
        self.label(nid, " ".join(tokens))

    def action(self, parent: str, type_name: str) -> str:
        rng = self.rng
        methods = self.schema.types[type_name].methods
        method = self.pick([m for m, sig in methods.items() if sig.mutates],
                           [*methods, "frobnicate"])
        params = [p.type.base for p in methods[method].params] if method in methods else ["int"]
        if rng.random() < 0.1:
            params.append("int")
        args = ", ".join(self.pick(self.fitting(base), ARGS) for base in params)
        spelled = rng.choice((f"{method}({args})",) * 18 + (f"{method}({args}", method))
        aid = self.add("action")
        self.label(aid, spelled)
        self.depend(parent, aid)
        return aid

    def condition(self, parent: str | None, type_name: str, depth: int = 0) -> None:
        rng = self.rng
        methods = self.schema.types[type_name].methods
        keys = {m[3:4].lower() + m[4:]: sig.returns.base for m, sig in methods.items()
                if m.startswith("get")}
        tests = []
        for _ in range(1 if rng.random() < 0.85 else 2):
            key = self.pick([k for k, base in keys.items() if self.fitting(base)],
                            [*keys, "status"])
            base = keys.get(key, "")
            fitting = [v.rpartition(".")[2].strip('"') for v in self.fitting(base)]
            tests.append(f"{key}={self.pick(fitting, VALUES)}")
        if rng.random() < 0.04:
            tests = rng.choice(([], ["u1"]))  # a condition that tests nothing
        cid = self.add("condition")
        self.label(cid, " ".join(tests))
        if parent is not None:
            self.depend(parent, cid)
        if rng.random() < 0.7:
            aid = self.action(cid, type_name)
            # Now and then the action also depends on the condition's object.
            if depth == 0 and parent is not None and rng.random() < 0.25:
                self.depend(parent, aid)
        if depth == 0 and rng.random() < 0.15:
            self.condition(cid, type_name, depth + 1)

    def graph(self) -> DepGraph:
        """Labels on every object, and actions and conditions mostly on the
        objects whose type has a member that can take them."""
        rng = self.rng
        self.objects()
        for nid, type_name in list(self.types.items()):
            methods = self.schema.types[type_name].methods
            testable = [m for m, sig in methods.items()
                        if m.startswith("get") and self.fitting(sig.returns.base)]
            self.object_label(nid)
            if rng.random() < (0.4 if any(s.mutates for s in methods.values()) else 0.03):
                self.action(nid, type_name)
            if rng.random() < (0.3 if testable else 0.03):
                self.condition(nid, type_name)
        if rng.random() < 0.05:
            self.condition(None, rng.choice(sorted(self.schema.types)))
        if not any(n["kind"] == "action" or "show=" in n["label"] for n in self.nodes):
            nid = max(self.types)
            self.label(nid, "show=" + self.pick(self.schema.types[self.types[nid]].attributes,
                                                ("frob", "count")))
        return DepGraph.from_dict({"nodes": self.nodes, "edges": self.edges})


def draw_graph(seed: int, schema) -> DepGraph:
    return _Drawing(random.Random(seed), schema).graph()


def _named(typed) -> set[tuple[str, str]]:
    """Each ``(type, member)`` a typed program calls or reads."""
    named = {(cs.receiver_type.base, cs.method) for cs in typed.call_sites}
    named |= {(op.operands[0].base, op.node.attr) for op in typed.operations
              if op.op == "attribute"}
    return named


def _times_made(g: DepGraph, action: str, owner: str) -> int:
    """How often an action's call is made on an object: once under each condition
    of that object the action depends on, or once, unguarded, when it depends on none."""
    deps = {(e.src, e.dst) for e in g.edges if e.kind is EdgeKind.DEPENDENCY}
    guards = [c for c in g.nodes if c.kind is NodeKind.CONDITION
              and (c.id, action) in deps and (owner, c.id) in deps]
    return max(1, len(guards))


@pytest.mark.parametrize("schema_name", ["schema", "peer_schema"])
def test_a_validated_graph_is_a_contract_the_generator_meets(request, schema_name):
    schema = request.getfixturevalue(schema_name)
    snapshot = request.getfixturevalue("snapshot" if schema_name == "schema" else "peer_snapshot")
    generator = TemplateGenerator(schema)
    outcomes: Counter = Counter()
    for seed in SEEDS:
        g = draw_graph(seed, schema)
        report = validate_graph(g, schema)
        if not report.ok:
            codes = {f.code for f in report.feedback}
            assert report.feedback and codes <= FINDINGS, (seed, report)
            outcomes.update(codes)
            continue
        outcomes["validated"] += 1
        source = generator.generate(GenerationRequest("p", g))
        candidate = analyze(source, schema)
        verdict = verify_all(candidate, g, schema, judge=RuleBasedJudge(), prompt="p")
        assert verdict.passed, (seed, source, verdict.diagnosis())
        nmap = g.node_map()
        named = _named(candidate.typed)
        for el in g.elements(schema):
            if el.member is not None:
                assert (nmap[el.owner].type_name, el.member) in named, (seed, el, source)
        calls = {(el.node, el.owner) for el in g.elements(schema) if el.role == "call"}
        made = sum(_times_made(g, *call) for call in calls)
        assert made == sum(cs.mutates for cs in candidate.typed.call_sites), (seed, source)
        result = Session(snapshot, schema).execute(candidate.script)
        assert result.status is ExecStatus.OK, (seed, source, result)
    # Both sides are drawn often, and every wrong draw's finding comes up.
    assert outcomes["validated"] >= len(SEEDS) // 4, outcomes
    assert len(SEEDS) - outcomes["validated"] >= len(SEEDS) // 4, outcomes
    assert DRAWN_WRONG <= set(outcomes), outcomes

"""Packaged toy fixtures plus deterministic builders for larger inputs.

The toy universe is small enough to reason about by hand: five types, eight
methods, one enum, a seven-object snapshot. Builders scale the same shape up
to a realistically sized design.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .retrieval import ApiDoc, Retriever, load_corpus
from .runtime import Snapshot, load_snapshot, snapshot_from_dict
from .schema import ApiSchema, load_schema


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("structsynth").joinpath("fixtures", name)))


def toy_schema() -> ApiSchema:
    return load_schema(fixture_path("toy_schema.json"))


def toy_corpus() -> tuple[ApiDoc, ...]:
    return load_corpus(fixture_path("toy_corpus.json"))


def toy_retriever() -> Retriever:
    return Retriever(toy_corpus())


def toy_snapshot(schema: ApiSchema | None = None) -> Snapshot:
    return load_snapshot(fixture_path("toy_snapshot.json"), schema or toy_schema())


# The design-sized snapshot's record counts; with the design and the block it
# holds 1,261 objects.
SCALED_NETS = 581
SCALED_INSTS = 624
SCALED_ITERMS = 54


def make_scaled_snapshot(schema: ApiSchema) -> Snapshot:
    """A design-sized snapshot with the toy shape and a few well-known names."""
    objects = [
        {"id": "d1", "type": "Design", "fields": {"name": "gcd"},
         "children": {"getBlock": ["b1"]}},
    ]
    net_ids = []
    known_nets = ["clk", "rst", "data"]
    for i in range(SCALED_NETS):
        nid = f"n{i + 1}"
        name = known_nets[i] if i < len(known_nets) else f"net_{i + 1:04d}"
        objects.append(
            {"id": nid, "type": "Net",
             "fields": {"name": name, "weight": (i % 7) + 1}}
        )
        net_ids.append(nid)
    inst_ids = []
    for i in range(SCALED_INSTS):
        iid = f"i{i + 1}"
        name = f"u{i + 1}" if i < 2 else f"inst_{i + 1:04d}"
        objects.append({"id": iid, "type": "Inst", "fields": {"name": name}})
        inst_ids.append(iid)
    for i in range(SCALED_ITERMS):
        objects.append({"id": f"t{i + 1}", "type": "ITerm", "fields": {}})
    objects.append(
        {"id": "b1", "type": "Block", "fields": {"name": "top"},
         "children": {"getNets": net_ids, "getInsts": inst_ids}}
    )
    return snapshot_from_dict({"objects": objects, "roots": {"design": "d1"}}, schema)

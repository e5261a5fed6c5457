"""Plain-Python model of the ten bundled prompt families.

The model reads a snapshot document (the JSON shape the package loads) and
answers, for a family and its parameters, which lines the task must print
and which field values the design must hold afterwards. It never calls the
package: expected answers come from this file alone, so a change to the
interpreter, the generator or the verifier cannot move them.
"""

from __future__ import annotations

from dataclasses import dataclass

# Family -> the slots its phrasings carry. Action families change the design;
# the rest print. Names follow the bundled task ids (``set-weight-03``).
FAMILY_SLOTS: dict[str, tuple[str, ...]] = {
    "set-weight": ("net", "weight"),
    "mark-inst": ("inst", "status"),
    "mark-all": ("status",),
    "show-weight": ("net",),
    "list-nets": (),
    "count-nets": (),
    "list-insts": (),
    "count-insts": (),
    "inst-name": ("inst",),
    "all-weights": (),
}
ACTION_FAMILIES = frozenset({"set-weight", "mark-inst", "mark-all"})
# Families whose program looks an object up by name and guards the result.
NULL_GUARDED_FAMILIES = frozenset({"set-weight", "show-weight"})

WEIGHT = "weight"
STATUS = "placementStatus"


@dataclass(frozen=True)
class Design:
    """The block's nets and instances in snapshot order, with start values."""

    nets: tuple[tuple[str, str, int], ...]  # (id, name, weight)
    insts: tuple[tuple[str, str], ...]  # (id, name)
    start: dict[tuple[str, str], object]  # (id, field) -> value

    @classmethod
    def from_document(cls, doc: dict) -> "Design":
        objects = {o["id"]: o for o in doc["objects"]}
        design = objects[doc["roots"]["design"]]
        block = objects[design["children"]["getBlock"][0]]
        nets = tuple(
            (nid, objects[nid]["fields"]["name"], objects[nid]["fields"].get(WEIGHT, 0))
            for nid in block["children"].get("getNets", [])
        )
        insts = tuple(
            (iid, objects[iid]["fields"]["name"])
            for iid in block["children"].get("getInsts", [])
        )
        start: dict[tuple[str, str], object] = {}
        for nid, _, weight in nets:
            start[(nid, WEIGHT)] = weight
        for iid, _ in insts:
            start[(iid, STATUS)] = objects[iid]["fields"].get(STATUS)
        return cls(nets, insts, start)

    def net_names(self) -> list[str]:
        return [name for _, name, _ in self.nets]

    def inst_names(self) -> list[str]:
        return [name for _, name in self.insts]


def run_family(
    design: Design, state: dict[tuple[str, str], object], family: str, params: dict
) -> list[str]:
    """Apply one step to ``state`` in place and return the lines it prints."""
    out: list[str] = []
    if family == "set-weight":
        nid = _first_net(design, params["net"])
        if nid is not None:
            state[(nid, WEIGHT)] = int(params["weight"])
    elif family == "show-weight":
        nid = _first_net(design, params["net"])
        if nid is not None:
            out.append(str(state[(nid, WEIGHT)]))
    elif family in ("mark-inst", "mark-all"):
        value = "PlacementStatus." + params["status"].upper()
        for iid, name in design.insts:
            if family == "mark-all" or name == params["inst"]:
                state[(iid, STATUS)] = value
    elif family == "inst-name":
        out.extend(name for _, name in design.insts if name == params["inst"])
    elif family == "list-nets":
        out.extend(design.net_names())
    elif family == "list-insts":
        out.extend(design.inst_names())
    elif family == "count-nets":
        out.append(str(len(design.nets)))
    elif family == "count-insts":
        out.append(str(len(design.insts)))
    elif family == "all-weights":
        out.extend(str(state[(nid, WEIGHT)]) for nid, _, _ in design.nets)
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def _first_net(design: Design, name: str) -> str | None:
    for nid, net_name, _ in design.nets:
        if net_name == name:
            return nid
    return None


def scaled_design_document(nets: int = 581, insts: int = 624, iterms: int = 54) -> dict:
    """The design-sized snapshot, written from its specification.

    Three well-known nets (clk, rst, data) come first, the rest are
    ``net_NNNN`` with weights cycling 1..7; two instances u1, u2 come first,
    the rest are ``inst_NNNN``; iterms carry no fields. The package builds
    the same design with ``make_scaled_snapshot``; any drift between the two
    shows up as output mismatches.
    """
    known_nets = ("clk", "rst", "data")
    net_ids = [f"n{i + 1}" for i in range(nets)]
    inst_ids = [f"i{i + 1}" for i in range(insts)]
    objects = [
        {"id": "d1", "type": "Design", "fields": {"name": "gcd"},
         "children": {"getBlock": ["b1"]}},
        {"id": "b1", "type": "Block", "fields": {"name": "top"},
         "children": {"getNets": net_ids, "getInsts": inst_ids}},
    ]
    for i, nid in enumerate(net_ids):
        name = known_nets[i] if i < len(known_nets) else f"net_{i + 1:04d}"
        objects.append({"id": nid, "type": "Net",
                        "fields": {"name": name, "weight": (i % 7) + 1}})
    for i, iid in enumerate(inst_ids):
        name = f"u{i + 1}" if i < 2 else f"inst_{i + 1:04d}"
        objects.append({"id": iid, "type": "Inst", "fields": {"name": name}})
    for i in range(iterms):
        objects.append({"id": f"t{i + 1}", "type": "ITerm", "fields": {}})
    return {"objects": objects, "roots": {"design": "d1"}}

"""Randomized programs over the toy API that pass every static layer by
construction: seeds for soundness fuzzing, acceptance and round-trip tests."""

from __future__ import annotations

import random

_NET_NAMES = ("clk", "rst", "data", "ghost")
_INST_NAMES = ("u1", "u2", "u9")
_BLOCK_KINDS = (
    "list_names", "guarded_find", "count", "arith",
    "len", "status_loop", "weights", "concat",
)


def random_conformant_program(rng: random.Random) -> str:
    """A randomized program that passes every static layer by construction.

    Programs compose verified-clean statement blocks over the toy API: every
    receiver is schema-resolved, every nullable value is guarded, and every
    name is defined before use on all paths.
    """
    chosen = [rng.choice(_BLOCK_KINDS) for _ in range(rng.randint(1, 4))]
    lines: list[str] = []
    if "status_loop" in chosen:
        lines.append("import odb")
    lines.append("block = design.getBlock()")
    for i, kind in enumerate(chosen, start=1):
        if kind == "list_names":
            lines += ["for net in block.getNets():", "    print(net.getName())"]
        elif kind == "guarded_find":
            var = f"net{i}"
            lines.append(f'{var} = block.findNet("{rng.choice(_NET_NAMES)}")')
            lines.append(f"if {var} != None:")
            use = rng.choice(("name", "weight", "attr"))
            if use == "name":
                lines.append(f"    print({var}.getName())")
            elif use == "weight":
                lines.append(f"    {var}.setWeight({rng.randint(0, 9)})")
            else:
                lines.append(f"    print({var}.weight)")
        elif kind == "count":
            lines += [
                "count = 0",
                "for inst in block.getInsts():",
                "    count = count + 1",
                "print(count)",
            ]
        elif kind == "arith":
            lines += [f"x{i} = {rng.randint(0, 9)} + {rng.randint(0, 9)}", f"print(x{i})"]
        elif kind == "len":
            lines += [f"nets{i} = block.getNets()", f"print(len(nets{i}))"]
        elif kind == "status_loop":
            const = rng.choice(("PLACED", "FIRM"))
            lines += [
                "for inst in block.getInsts():",
                f'    if inst.getName() == "{rng.choice(_INST_NAMES)}":',
                f"        inst.setPlacementStatus(odb.PlacementStatus.{const})",
            ]
        elif kind == "weights":
            lines += ["for net in block.getNets():", "    print(net.weight)"]
        else:
            lines += [f'msg{i} = "net:" + "{rng.choice(("a", "b"))}"', f"print(msg{i})"]
    return "\n".join(lines) + "\n"

"""Seeded task lists for the three workloads, with their expected answers.

A workload is one *pass*: a fixed, seed-ordered list of tasks that the
timed loop repeats until its time is up. Repeating one pass keeps every
per-task count identical between runs with the same seed, however many
passes a run completes.

- ``toy_suite``: the 46 bundled single prompts and 12 bundled episodes,
  verbatim, on the 7-object toy snapshot.
- ``design_scale``: the same phrasings with net and instance names drawn
  from the 1,261-object scaled design, about one in eight absent.
- ``repair_storm``: every single prompt under each of ten planted defects,
  plus each prompt clean, on the toy snapshot.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from oracle import (
    ACTION_FAMILIES,
    FAMILY_SLOTS,
    NULL_GUARDED_FAMILIES,
    Design,
    run_family,
    scaled_design_document,
)

WORKLOADS = ("toy_suite", "design_scale", "repair_storm")

# Layer at which each planted defect must first be rejected (0 = accepted).
# Kept here, not read from the package, so the known answers cannot drift
# with the code under test.
HOME_LAYER: dict[str, int] = {
    "syntax": 1,
    "use_before_def": 2,
    "missing_acquisition": 2,
    "null_unguarded": 2,
    "unknown_method": 3,
    "bad_enum": 3,
    "arity": 3,
    "missing_output": 4,
    "missing_action": 4,
    "timeout_loop": 4,
}

# Slot patterns over the bundled phrasings. The toy design names its nets
# clk/rst/data and its instances u1/u2.
_SLOT_PATTERNS = (
    ("net", re.compile(r"\b(clk|rst|data)\b")),
    ("inst", re.compile(r"\b(u\d+)\b")),
    ("status", re.compile(r"\b(placed|firm)\b")),
    ("weight", re.compile(r"(?<=\bto )(\d+)\b")),
)
_ABSENT_SHARE = 0.125


@dataclass(frozen=True)
class Step:
    prompt: str
    family: str
    params: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Task:
    """One timed unit: a single prompt, or a multi-step episode counted whole."""

    task_id: str
    steps: tuple[Step, ...]
    episode: bool
    defect: str | None = None
    expected_layer: int = 0
    known_gap: bool = False
    outputs: tuple[tuple[str, ...], ...] = ()
    changes: tuple[tuple[tuple[str, str], object], ...] = ()


def _templatize(prompt: str) -> tuple[str, dict[str, str]]:
    template, params = prompt, {}
    for slot, pattern in _SLOT_PATTERNS:
        found = pattern.findall(template)
        if len(found) > 1:
            raise ValueError(f"slot {slot} is ambiguous in {prompt!r}")
        if found:
            params[slot] = found[0]
            template = pattern.sub("{" + slot + "}", template)
    return template, params


def _family_of(task_id: str) -> str:
    family = task_id.rsplit("-", 1)[0]
    if family not in FAMILY_SLOTS:
        raise ValueError(f"task {task_id} belongs to no known family")
    return family


class Phrasebook:
    """Bundled phrasings as templates, keyed by family."""

    def __init__(self, suite_dir: Path):
        singles = json.loads((suite_dir / "singles.json").read_text())["tasks"]
        multis = json.loads((suite_dir / "multis.json").read_text())["tasks"]
        self.singles: list[tuple[str, str, str, dict[str, str]]] = []
        family_of_template: dict[str, str] = {}
        for item in singles:
            family = _family_of(item["id"])
            template, params = _templatize(item["prompt"])
            if set(params) != set(FAMILY_SLOTS[family]):
                raise ValueError(f"{item['id']}: slots {sorted(params)} do not fit {family}")
            self.singles.append((item["id"], family, template, params))
            family_of_template[template] = family
        self.episodes: list[tuple[str, list[tuple[str, str, dict[str, str]]]]] = []
        for item in multis:
            steps = []
            for prompt in item["steps"]:
                template, params = _templatize(prompt)
                if template not in family_of_template:
                    raise ValueError(f"{item['id']}: no single uses phrasing {template!r}")
                steps.append((family_of_template[template], template, params))
            self.episodes.append((item["id"], steps))


def _step(family: str, template: str, params: dict[str, str]) -> Step:
    return Step(template.format(**params), family, tuple(sorted(params.items())))


def _expect(design: Design, task: Task) -> Task:
    state = dict(design.start)
    outputs = tuple(
        tuple(run_family(design, state, s.family, dict(s.params))) for s in task.steps
    )
    changes = tuple(
        sorted((key, value) for key, value in state.items() if design.start[key] != value)
    )
    return Task(
        task.task_id, task.steps, task.episode, task.defect, task.expected_layer,
        task.known_gap, outputs, changes,
    )


class _NameDraw:
    """Seeded names from the whole design, a share of them absent from it."""

    def __init__(self, rng: random.Random, design: Design):
        self.rng = rng
        self.pool = {"net": design.net_names(), "inst": design.inst_names()}
        self.absent_base = {"net": len(design.nets), "inst": len(design.insts)}

    def __call__(self, slot: str) -> str:
        if self.rng.random() < _ABSENT_SHARE:
            n = self.absent_base[slot] + self.rng.randint(1000, 8999)
            return f"{slot}_{n:04d}"
        return self.rng.choice(self.pool[slot])


def _fill(params: dict[str, str], mapping: dict[tuple[str, str], str], draw) -> dict[str, str]:
    """Replace net and instance names, consistently within one task."""
    out = dict(params)
    for slot in ("net", "inst"):
        if slot in params:
            key = (slot, params[slot])
            if key not in mapping:
                mapping[key] = draw(slot)
            out[slot] = mapping[key]
    return out


def design_for(workload: str, root: Path) -> Design:
    """The oracle's model of the design the workload runs on."""
    if workload == "design_scale":
        return Design.from_document(scaled_design_document())
    path = root / "src" / "structsynth" / "fixtures" / "toy_snapshot.json"
    return Design.from_document(json.loads(path.read_text()))


def build_pass(workload: str, seed: int, root: Path, design: Design) -> list[Task]:
    """The seed-ordered task list of one pass, each task with its answers."""
    rng = random.Random(f"{workload}:{seed}")
    book = Phrasebook(root / "src" / "structsynth" / "fixtures" / "suite")
    tasks: list[Task] = []
    if workload == "repair_storm":
        for task_id, family, template, params in book.singles:
            step = _step(family, template, params)
            tasks.append(Task(task_id, (step,), False))
            for defect, home in HOME_LAYER.items():
                tasks.append(
                    Task(
                        f"{task_id}+{defect}",
                        (step,),
                        False,
                        defect=defect,
                        expected_layer=home if _defect_applies(defect, family) else 0,
                        known_gap=defect == "timeout_loop" and family in ACTION_FAMILIES,
                    )
                )
    else:
        draw = _NameDraw(rng, design) if workload == "design_scale" else None
        for task_id, family, template, params in book.singles:
            if draw is not None:
                params = _fill(params, {}, draw)
            tasks.append(Task(task_id, (_step(family, template, params),), False))
        for task_id, steps in book.episodes:
            mapping: dict[tuple[str, str], str] = {}
            filled = tuple(
                _step(family, template, _fill(params, mapping, draw) if draw else params)
                for family, template, params in steps
            )
            tasks.append(Task(task_id, filled, True))
    rng.shuffle(tasks)
    return [_expect(design, t) for t in tasks]


def _defect_applies(defect: str, family: str) -> bool:
    """False where the defect has nothing to break in this family's program."""
    if defect == "null_unguarded":
        return family in NULL_GUARDED_FAMILIES
    if defect == "missing_output":
        return family not in ACTION_FAMILIES
    if defect == "missing_action":
        return family in ACTION_FAMILIES
    return True

"""Synthetic desk-scale dataset: a 12-instance manifest over four concepts,
tiny generated images, and a scripted backend whose rules make the prompting
ladder informative offline.

Rule design: grounded answer rules key on the component descriptions that
only grounded prompts contain; schema rules key on schema text; plain
question rules catch everything else. Components with dependencies ground
to a worse description when queried without their dependency clauses, so
hierarchical grounding strictly beats sequential on the open questions.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from .dsl import render_schema
from .extraction import CONCEPT_CATEGORIES, load_canonical_schema
from .gateway import json_text
from .phrasing import concept_phrase, copula, display_name

TOY_CONCEPTS = ("maze", "atom", "cell", "solar-system")

# Description bound to each component when its dependency context is present
# (always, for dependency-free components).
TOY_BINDINGS = {
    "maze": {
        "layout": "rectangular",
        "walls": "coffee beans",
        "entry-exit": "coffee cups",
    },
    "atom": {
        "nucleus": "an orange at the center",
        "electrons": "blueberries",
        "energy-levels": "concentric rings of string",
    },
    "cell": {
        "membrane": "a ring of rope",
        "nucleus": "a tennis ball",
        "organelles": "buttons and beads",
    },
    "solar-system": {
        "sun": "a lamp in the middle",
        "planets": "oranges and grapes",
        "orbits": "chalk circles",
    },
}

# Weaker description a dependent component grounds to when queried without
# its dependency clauses (exercises the sequential-vs-hierarchical gap).
TOY_SEQUENTIAL_DRIFT = {
    ("maze", "entry-exit"): "shadows in the corners",
    ("atom", "energy-levels"): "vague halos",
    ("solar-system", "orbits"): "faint smudges",
}

_COLORS = {
    "maze": (200, 30, 30),
    "atom": (30, 200, 30),
    "cell": (30, 30, 200),
    "solar-system": (200, 200, 30),
}

TOY_QUESTIONS = [
    {
        "concept": "maze",
        "question_type": "counting",
        "question": "How many distinct wall segments are there?",
        "options": ["2", "3", "4"],
        "annotator_answers": ["4", "four", "4", "3", "4"],
        "modal_answer": "4",
        "grounded_component": "walls",
        "grounded_reply": "There are four.",
        "baseline_reply": "Two.",
    },
    {
        "concept": "maze",
        "question_type": "binary",
        "question": "Is the layout rectangular or circular?",
        "options": ["rectangular", "circular"],
        "annotator_answers": ["rectangular"] * 5,
        "modal_answer": "rectangular",
        "grounded_component": "layout",
        "grounded_reply": "Rectangular.",
        "baseline_reply": "Circular.",
    },
    {
        "concept": "maze",
        "question_type": "open",
        "question": "What are the entry and exit marked by?",
        "options": ["coffee cups", "flags", "arrows"],
        "annotator_answers": ["coffee cups"] * 4 + ["flags"],
        "modal_answer": "coffee cups",
        "grounded_component": "entry-exit",
        "grounded_reply": "Coffee cups.",
        "baseline_reply": "Flags.",
    },
    {
        "concept": "atom",
        "question_type": "counting",
        "question": "How many electrons are visible?",
        "options": ["2", "3", "8"],
        "annotator_answers": ["8", "8", "8", "8", "2"],
        "modal_answer": "8",
        "grounded_component": "electrons",
        "grounded_reply": "There are eight electrons.",
        "baseline_reply": "Three.",
    },
    {
        "concept": "atom",
        "question_type": "binary",
        "question": "Is the nucleus at the center or at the edge?",
        "options": ["center", "edge"],
        "annotator_answers": ["center"] * 5,
        "modal_answer": "center",
        "grounded_component": "nucleus",
        "grounded_reply": "At the center.",
        "baseline_reply": "At the edge.",
    },
    {
        "concept": "atom",
        "question_type": "open",
        "question": "What forms the energy levels?",
        "options": ["rings of string", "halos", "ripples"],
        "annotator_answers": ["rings of string"] * 4 + ["halos"],
        "modal_answer": "rings of string",
        "grounded_component": "energy-levels",
        "grounded_reply": "Concentric rings of string.",
        "baseline_reply": "Ripples.",
    },
    {
        "concept": "cell",
        "question_type": "counting",
        "question": "How many organelles can you count?",
        "options": ["3", "5", "7"],
        "annotator_answers": ["5"] * 5,
        "modal_answer": "5",
        "grounded_component": "organelles",
        "grounded_reply": "Five.",
        "baseline_reply": "Seven.",
        "schema_reply": "Five.",
    },
    {
        "concept": "cell",
        "question_type": "binary",
        "question": "Is the membrane closed or broken?",
        "options": ["closed", "broken"],
        "annotator_answers": ["closed"] * 4 + ["broken"],
        "modal_answer": "closed",
        "grounded_component": "membrane",
        "grounded_reply": "Closed.",
        "baseline_reply": "Closed.",
    },
    {
        "concept": "cell",
        "question_type": "open",
        "question": "What object stands in for the nucleus?",
        "options": ["tennis ball", "golf ball", "apple"],
        "annotator_answers": ["tennis ball"] * 3 + ["golf ball", "apple"],
        "modal_answer": "tennis ball",
        "grounded_component": "nucleus",
        "grounded_reply": "A tennis ball.",
        "baseline_reply": "An apple.",
    },
    {
        "concept": "solar-system",
        "question_type": "counting",
        "question": "How many planets are shown?",
        "options": ["3", "4", "6"],
        "annotator_answers": ["4", "4", "4", "4", "3"],
        "modal_answer": "4",
        "grounded_component": "planets",
        "grounded_reply": "Four planets.",
        "baseline_reply": "Six.",
    },
    {
        "concept": "solar-system",
        "question_type": "binary",
        "question": "Is the sun at the middle or at the side?",
        "options": ["middle", "side"],
        "annotator_answers": ["middle"] * 5,
        "modal_answer": "middle",
        "grounded_component": "sun",
        "grounded_reply": "In the middle.",
        "baseline_reply": "At the side.",
    },
    {
        "concept": "solar-system",
        "question_type": "open",
        "question": "What marks the orbits?",
        "options": ["chalk circles", "wires", "shadows"],
        "annotator_answers": ["chalk circles"] * 4 + ["wires"],
        "modal_answer": "chalk circles",
        "grounded_component": "orbits",
        "grounded_reply": "Chalk circles.",
        "baseline_reply": "Wires.",
    },
]


def tiny_png(rgb: tuple[int, int, int]) -> bytes:
    """A valid 1x1 truecolor PNG with the given pixel, built by hand."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    scanline = b"\x00" + bytes(rgb)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(scanline))
        + chunk(b"IEND", b"")
    )


def _grounding_rules() -> list[dict]:
    rules: list[dict] = []
    for concept in TOY_CONCEPTS:
        schema = load_canonical_schema(concept)
        phrase = concept_phrase(concept)
        for node in schema.nodes:
            tail = f"What {copula(node.id)} the {display_name(node.id)}\\?"
            binding = TOY_BINDINGS[concept][node.id]
            drift = TOY_SEQUENTIAL_DRIFT.get((concept, node.id))
            if drift is not None:
                first_dep = node.deps[0]
                dep_clause = (
                    f", and the {display_name(first_dep)} {copula(first_dep)} "
                    f"{TOY_BINDINGS[concept][first_dep]}"
                )
                rules.append(
                    {"match": {"regex": f"(?s){re.escape(dep_clause)}.*{tail}"}, "reply": binding}
                )
            rules.append(
                {
                    "match": {"regex": f"(?s)represents {re.escape(phrase)}.*{tail}"},
                    "reply": drift or binding,
                }
            )
    return rules


def _qa_rules() -> tuple[list[dict], list[dict], list[dict]]:
    grounded, schema_keyed, baseline = [], [], []
    for spec in TOY_QUESTIONS:
        concept = spec["concept"]
        component = spec["grounded_component"]
        description = TOY_BINDINGS[concept][component]
        clause = f"and the {display_name(component)} {copula(component)} {description}"
        grounded.append(
            {
                "match": {
                    "regex": f"(?s){re.escape(clause)}.*{re.escape(spec['question'])}"
                },
                "reply": spec["grounded_reply"],
            }
        )
        if "schema_reply" in spec:
            schema_line = f"gen({component} | concept={concept})"
            schema_keyed.append(
                {
                    "match": {
                        "regex": f"(?s){re.escape(schema_line)}.*{re.escape(spec['question'])}"
                    },
                    "reply": spec["schema_reply"],
                }
            )
        baseline.append(
            {
                "match": {"contains": spec["question"]},
                "reply": spec["baseline_reply"],
            }
        )
    return grounded, schema_keyed, baseline


def _extraction_rules() -> list[dict]:
    rules = []
    for concept in TOY_CONCEPTS:
        source = render_schema(load_canonical_schema(concept))
        if concept == "maze":
            source = "Here is the program:\n```\n" + source + "```\n"
        rules.append(
            {
                "match": {"contains": f"Please do the same for gen(concept={concept})"},
                "reply": source,
            }
        )
    return rules


def toy_fixture_rules() -> list[dict]:
    """All scripted rules, most specific first (first match wins)."""
    grounded, schema_keyed, baseline = _qa_rules()
    return grounded + schema_keyed + _grounding_rules() + baseline + _extraction_rules()


@dataclass(frozen=True)
class ToyDataset:
    root: Path
    manifest_path: Path
    fixture_path: Path
    backend_config_path: Path
    image_paths: dict[str, Path]


def make_toy_dataset(root: str | Path) -> ToyDataset:
    """Write images, manifest, scripted fixture, and backend config under root."""
    root = Path(root)
    images_dir = root / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    image_paths: dict[str, Path] = {}
    for concept in TOY_CONCEPTS:
        path = images_dir / f"{concept}.png"
        path.write_bytes(tiny_png(_COLORS[concept]))
        image_paths[concept] = path

    instances = []
    for spec in TOY_QUESTIONS:
        concept = spec["concept"]
        instances.append(
            {
                "id": f"{concept}-{spec['question_type']}",
                "concept": concept,
                "category": CONCEPT_CATEGORIES[concept],
                "image": f"images/{concept}.png",
                "question": spec["question"],
                "question_type": spec["question_type"],
                "options": spec["options"],
                "annotator_answers": spec["annotator_answers"],
                "modal_answer": spec["modal_answer"],
            }
        )
    backend_config = {
        "backend_id": "scripted-toy",
        "kind": "scripted",
        "model_id": "scripted-vlm",
        "fixture_path": "fixtures.json",
    }
    files = {
        "manifest.json": {"version": "toy-1", "subset": True, "instances": instances},
        "fixtures.json": toy_fixture_rules(),
        "backend.json": backend_config,
    }
    for name, value in files.items():
        (root / name).write_text(json_text(value), encoding="utf-8")
    return ToyDataset(
        root=root,
        manifest_path=root / "manifest.json",
        fixture_path=root / "fixtures.json",
        backend_config_path=root / "backend.json",
        image_paths=image_paths,
    )

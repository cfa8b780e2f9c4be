"""Workload inputs, made from a seed: a replicated toy manifest, one generated
image per question group, the toy fixture rules, and two backend configs.

The manifest repeats the 12 toy questions `replicas` times. Each group of
three questions (counting, binary, open) about one concept shares one image,
so grounding runs once per image, as in the paper's dataset. Image pixels
come from the seed; questions and answers do not, so every seed keeps the
toy accuracy ladder.

Both backend configs carry the same backend and model ids, so a scripted
ablate fills the response cache with exactly the keys the HTTP backend asks
for.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import struct
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import schemaground.cli
from schemaground.extraction import CONCEPT_CATEGORIES
from schemaground.toydata import TOY_QUESTIONS, toy_fixture_rules

from stub import STUB_URL

SRC = Path(__file__).resolve().parents[1] / "src"
BACKEND_ID = "bench-vlm"
# Run by a fresh interpreter at the end of each set-up: what starting the
# program costs before its first ablate (interpreter, dependencies, and any
# work the program does at import time).
START_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import schemaground.cli"
IMAGE_WIDTH = 128


@dataclass(frozen=True)
class Inputs:
    root: Path
    manifest: Path
    http_config: Path
    scripted_config: Path
    images: tuple[Path, ...]
    questions: int


def png(width: int, height: int, pixels: bytes) -> bytes:
    """An RGB PNG whose image data is stored uncompressed, so its size tracks
    width x height."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    row = 3 * width
    scanlines = b"".join(
        b"\x00" + pixels[y * row : (y + 1) * row] for y in range(height)
    )
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(scanlines, 0))
        + chunk(b"IEND", b"")
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def generate(root: Path, seed: int, replicas: int, image_bytes: int) -> Inputs:
    """Write one workload's inputs under root; the same arguments give the same bytes."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    height = max(1, round(image_bytes / (3 * IMAGE_WIDTH + 1)))
    concepts = list(dict.fromkeys(spec["concept"] for spec in TOY_QUESTIONS))
    images = []
    for replica in range(replicas):
        for concept in concepts:
            rng = random.Random(f"{seed}/{concept}/{replica}")
            path = root / "images" / f"{concept}-{replica:03d}.png"
            path.write_bytes(png(IMAGE_WIDTH, height, rng.randbytes(3 * IMAGE_WIDTH * height)))
            images.append(path)

    instances = [
        {
            "id": f"{spec['concept']}-{replica:03d}-{spec['question_type']}",
            "concept": spec["concept"],
            "category": CONCEPT_CATEGORIES[spec["concept"]],
            "image": f"images/{spec['concept']}-{replica:03d}.png",
            "question": spec["question"],
            "question_type": spec["question_type"],
            "options": spec["options"],
            "annotator_answers": spec["annotator_answers"],
            "modal_answer": spec["modal_answer"],
        }
        for replica in range(replicas)
        for spec in TOY_QUESTIONS
    ]
    manifest = root / "manifest.json"
    _write_json(manifest, {"version": "bench-1", "subset": True, "instances": instances})

    _write_json(root / "fixtures.json", toy_fixture_rules())
    scripted_config = root / "backend-scripted.json"
    _write_json(
        scripted_config,
        {
            "backend_id": BACKEND_ID,
            "kind": "scripted",
            "model_id": BACKEND_ID,
            "fixture_path": "fixtures.json",
        },
    )
    http_config = root / "backend-http.json"
    _write_json(
        http_config,
        {"backend_id": BACKEND_ID, "kind": "http", "model_id": BACKEND_ID, "base_url": STUB_URL},
    )
    return Inputs(
        root=root,
        manifest=manifest,
        http_config=http_config,
        scripted_config=scripted_config,
        images=tuple(images),
        questions=len(instances),
    )


def set_up(root: Path, seed: int, replicas: int, image_bytes: int, warm: bool,
           concurrency: int) -> tuple[Inputs, list[str]]:
    """One timed set-up: generate the inputs, fill the response cache with a
    scripted ablate for a warm workload, and start the program once in a
    fresh interpreter. Returns (inputs, problems)."""
    inputs = generate(root, seed, replicas, image_bytes)
    problems = []
    if warm:
        argv = [
            "ablate",
            "--manifest", str(inputs.manifest),
            "--backend-config", str(inputs.scripted_config),
            "--cache-dir", str(root / "cache"),
            "--concurrency", str(concurrency),
            "--out", str(root / "prefill-out"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = schemaground.cli.main(argv)
        if code != 0:
            problems.append(f"scripted pre-fill ablate exited with {code}")
    try:
        started = subprocess.run(
            [sys.executable, "-c", START_PROGRAM, str(SRC)], capture_output=True, text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        problems.append("starting the program took over 60 s")
    else:
        if started.returncode != 0:
            problems.append(f"starting the program exited with {started.returncode}: "
                            f"{started.stderr[-2000:]}")
    return inputs, problems

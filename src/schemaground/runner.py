"""Orchestration: schemas + grounding + answering over a manifest, with
bounded concurrency, per-run seed offsets, and deterministic output order.

One thread pool serves every run of a mode. Instances are grouped by
(concept, image digest) once per call, so each image is hashed once. Each
(run, group) task grounds its image once (grounded modes only) and then
submits its instances' answers to the same pool, so answering starts as soon
as that image is grounded rather than after every image is. Per-run requests
carry seed_hint = base seed + run_index so repeated runs against a live
backend are distinct cache entries rather than replays of run 0.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .dsl import SchemaProgram, parse_schema
from .errors import ConceptMismatchError
from .evaluate import DatasetManifest
from .extraction import load_canonical_schema
from .gateway import ModelGateway
from .grounding import ground_hierarchical, ground_sequential
from .qa import GROUNDED_MODES, AnswerMode, Prediction, VqaInstance, answer


def load_schemas(
    manifest: DatasetManifest, schema_dir: Path | None = None
) -> dict[str, SchemaProgram]:
    """One schema per concept: a `<concept>.schema` file from schema_dir when
    present, which must declare that concept, the canonical store otherwise."""
    schemas: dict[str, SchemaProgram] = {}
    for concept in manifest.concepts:
        override = None if schema_dir is None else Path(schema_dir) / f"{concept}.schema"
        if override is not None and override.is_file():
            program = parse_schema(override.read_text(encoding="utf-8"))
            if program.concept != concept:
                raise ConceptMismatchError(
                    f"{override} declares concept {program.concept!r}, expected {concept!r}"
                )
        else:
            program = load_canonical_schema(concept)
        schemas[concept] = program
    return schemas


def run_predictions(
    manifest: DatasetManifest,
    mode: AnswerMode,
    gateway: ModelGateway,
    runs: int = 1,
    concurrency: int = 4,
    seed_hint: int | None = None,
    schemas: dict[str, SchemaProgram] | None = None,
) -> list[Prediction]:
    """Answer every manifest instance under one mode, `runs` times."""
    mode = AnswerMode(mode)
    if schemas is None:
        schemas = load_schemas(manifest)
    ground = None
    if mode in GROUNDED_MODES:
        ground = (
            ground_sequential if mode is AnswerMode.GROUNDING_SEQUENTIAL else ground_hierarchical
        )
    groups: dict[tuple[str, str], list[VqaInstance]] = {}
    for instance in manifest.instances:
        groups.setdefault((instance.concept, instance.image.digest()), []).append(instance)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:

        def ground_then_answer(run_index: int, instances: list[VqaInstance]):
            seed = (seed_hint or 0) + run_index
            schema = None if mode is AnswerMode.BASELINE else schemas[instances[0].concept]
            resolved = None
            if ground is not None:
                resolved = ground(schema, instances[0].image, gateway, seed_hint=seed)
            return [
                pool.submit(
                    answer,
                    instance,
                    mode,
                    gateway,
                    schema=schema,
                    resolved=resolved,
                    run_index=run_index,
                    seed_hint=seed,
                )
                for instance in instances
            ]

        tasks = [
            pool.submit(ground_then_answer, run_index, instances)
            for run_index in range(runs)
            for instances in groups.values()
        ]
        try:
            answers = [future for task in tasks for future in task.result()]
            predictions = [future.result() for future in answers]
        except BaseException:
            # Drop queued work so one failure does not wait for every other run.
            pool.shutdown(cancel_futures=True)
            raise
    predictions.sort(key=lambda p: (p.run_index, p.instance_id))
    return predictions

"""Orchestration: schemas + grounding + answering over a manifest, with
bounded concurrency, per-run seed offsets, and deterministic output order.

Before the first task, instances are grouped by (concept, image digest).
Each image gets its digest on the calling thread, in manifest order, and a
read that fails raises there. The manifest gives each image file one
`ImageRef`, which keeps its digest, so an image is read for its digest at
most once per command; one that the image-digest memo of a cache directory
knows as it stands is not read at all. One task per (grounding walk,
run, group) grounds its image (grounded modes only) and then answers the
group's instances under each mode that the walk serves:
`grounding_hierarchical` and `full_dsg` answer from one
`ground_hierarchical` walk, and every other mode has a task of its own. The
tasks are listed longest first: the hierarchical pair, then
`grounding_sequential`, `schema_only` and `baseline`. Only the gateway
dedups: it sends each distinct request once, and a caller of a request
already in flight waits for its reply.

`concurrency` worker threads serve every mode and run of a command, so at
most that many backend calls are in flight. A worker starts a task only
while it holds the gateway's turn, and keeps the turn from task to task
until the gateway lets it go to wait on an I/O backend or on another
caller's reply; it then finishes its task without the turn. So local work
runs on one thread until a worker must wait, and a warm-cache replay or a
scripted run, where nothing waits, runs on one thread throughout. The first
error, or an interrupt, stops every worker from starting a new task, and
each started worker is joined before the error is raised. The caller waits
for its workers in short joins, so it sees even an interrupt that is only
flagged within 50 ms.

Per-run requests carry seed_hint = base seed + run_index so repeated runs
against a live backend are distinct cache keys rather than replays of
run 0.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from .dsl import SchemaProgram, parse_schema
from .errors import ConceptMismatchError, SchemaSyntaxError
from .evaluate import DatasetManifest
from .extraction import load_canonical_schema
from .gateway import ModelGateway
from .grounding import ground_hierarchical, ground_sequential
from .qa import GROUNDED_MODES, AnswerMode, Prediction, VqaInstance, answer


def load_schemas(
    manifest: DatasetManifest, schema_dir: Path | None = None
) -> dict[str, SchemaProgram]:
    """One schema per concept: a `<concept>.schema` file from schema_dir when
    present, which must be a readable UTF-8 file (a byte-order mark may open
    it) declaring that concept, the canonical store otherwise."""
    schemas: dict[str, SchemaProgram] = {}
    for concept in manifest.concepts:
        override = None if schema_dir is None else Path(schema_dir) / f"{concept}.schema"
        if override is not None and os.path.lexists(override):
            if not override.is_file():
                raise SchemaSyntaxError(f"schema file {override} is not a regular file")
            try:
                source = override.read_text(encoding="utf-8-sig")
            except (OSError, UnicodeDecodeError) as err:
                raise SchemaSyntaxError(f"cannot read schema file {override}: {err}") from err
            program = parse_schema(source)
            if program.concept != concept:
                raise ConceptMismatchError(
                    f"{override} declares concept {program.concept!r}, expected {concept!r}"
                )
        else:
            program = load_canonical_schema(concept)
        schemas[concept] = program
    return schemas


# The modes that each task answers, longest task first, so that the last
# tasks in flight are the shortest. Both hierarchical modes answer from one
# `ground_hierarchical` walk.
_TASK_MODES = (
    (AnswerMode.GROUNDING_HIERARCHICAL, AnswerMode.FULL_DSG),
    (AnswerMode.GROUNDING_SEQUENTIAL,),
    (AnswerMode.SCHEMA_ONLY,),
    (AnswerMode.BASELINE,),
)


def run_predictions(
    manifest: DatasetManifest,
    modes: list[AnswerMode | str],
    gateway: ModelGateway,
    schemas: dict[str, SchemaProgram],
    runs: int = 1,
    concurrency: int = 4,
    seed_hint: int = 0,
) -> dict[AnswerMode, list[Prediction]]:
    """Answer every manifest instance under each mode, `runs` times."""
    modes = list(dict.fromkeys(map(AnswerMode, modes)))
    digest = gateway.cache.image_digest
    groups: dict[tuple[str, str], list[VqaInstance]] = {}
    for instance in manifest.instances:
        groups.setdefault((instance.concept, digest(instance.image)), []).append(instance)

    def ground_then_answer(
        task_modes: tuple[AnswerMode, ...], run_index: int, instances: list[VqaInstance]
    ):
        seed = seed_hint + run_index
        first = task_modes[0]
        schema = None if first is AnswerMode.BASELINE else schemas[instances[0].concept]
        resolved = None
        if first in GROUNDED_MODES:
            # Named at call time, so a wrapper set on this module is the one called.
            sequential = first is AnswerMode.GROUNDING_SEQUENTIAL
            ground = ground_sequential if sequential else ground_hierarchical
            resolved = ground(schema, instances[0].image, gateway, seed_hint=seed)
        return [
            answer(
                instance,
                mode,
                gateway,
                schema=schema,
                resolved=resolved,
                run_index=run_index,
                seed_hint=seed,
            )
            for mode in task_modes
            for instance in instances
        ]

    tasks = [
        (task_modes, run_index, instances)
        for task_modes in (tuple(m for m in kind if m in modes) for kind in _TASK_MODES)
        if task_modes
        for run_index in range(runs)
        for instances in groups.values()
    ]
    queue = iter(tasks)
    found: list[Prediction] = []
    errors: list[BaseException] = []

    def work():
        try:
            while True:
                gateway.take_turn()
                task = None if errors else next(queue, None)
                if task is None:
                    return
                found.extend(ground_then_answer(*task))
        except BaseException as err:
            errors.append(err)
        finally:
            gateway.give_turn()

    workers = [threading.Thread(target=work) for _ in range(min(concurrency, len(tasks)))]
    # Started while this thread holds the turn, each worker waits for it at
    # once rather than vying for the interpreter lock with the first.
    gateway.take_turn()
    try:
        for worker in workers:
            worker.start()
        gateway.give_turn()
        for worker in workers:
            # A join that times out returns to the interpreter, which then
            # raises an interrupt that was only flagged (`_thread.interrupt_main`,
            # or SIGINT handed to a worker): within 50 ms, not after every task.
            while worker.is_alive():
                worker.join(0.05)
    except BaseException as err:
        # An interrupt: no worker takes a new task, and each finishes its own.
        errors.append(err)
        gateway.give_turn()
        for worker in workers:
            if worker.ident is not None:
                worker.join()
        raise
    if errors:
        raise errors[0]
    found.sort(key=lambda p: (p.run_index, p.instance_id))
    predictions: dict[AnswerMode, list[Prediction]] = {mode: [] for mode in modes}
    for prediction in found:
        predictions[prediction.mode].append(prediction)
    return predictions

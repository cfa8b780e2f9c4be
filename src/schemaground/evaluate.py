"""Evaluation harness: manifest loading, exact-match and graded scoring,
and per-question-type and per-category breakdowns over one or more runs.

Scoring is pure: the same predictions and manifest always produce the same
report bytes. Uncertainty is population standard deviation over runs.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from .errors import IncompletePredictionsError, ManifestInvalidError, MissingImageError
from .extraction import CATEGORIES, CONCEPT_CATEGORIES
from .gateway import ImageRef, json_text, read_json
from .qa import NO_MATCH, QUESTION_TYPES, Prediction, VqaInstance, normalize_answer

METRIC_KINDS = ("exact_match", "graded")

COMPLETE_INSTANCE_COUNT = 540
COMPLETE_CONCEPT_COUNT = 12
COMPLETE_CATEGORY_COUNT = 4
COMPLETE_PER_CONCEPT = COMPLETE_INSTANCE_COUNT // COMPLETE_CONCEPT_COUNT

_TEXT_FIELDS = ("id", "concept", "category", "image", "question", "question_type", "modal_answer")


@dataclass(frozen=True)
class DatasetManifest:
    instances: tuple[VqaInstance, ...]

    @property
    def concepts(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for instance in self.instances:
            seen.setdefault(instance.concept, None)
        return tuple(seen)

    @property
    def categories(self) -> tuple[str, ...]:
        present = {instance.category for instance in self.instances}
        return tuple(category for category in CATEGORIES if category in present)

    @property
    def question_types(self) -> tuple[str, ...]:
        present = {instance.question_type for instance in self.instances}
        return tuple(qtype for qtype in QUESTION_TYPES if qtype in present)


def _check_field_types(raw: dict) -> None:
    """Reject a present field of the wrong JSON type; an absent one fails later."""
    for field in _TEXT_FIELDS:
        if field in raw and not isinstance(raw[field], str):
            raise ValueError(f"field {field!r} must be a string, got {type(raw[field]).__name__}")
    for field in ("options", "annotator_answers"):
        if raw.get(field) is not None and not isinstance(raw[field], list):
            raise ValueError(f"field {field!r} must be a list, got {type(raw[field]).__name__}")
    if any(not isinstance(answer, str) for answer in raw.get("annotator_answers") or ()):
        raise ValueError("field 'annotator_answers' must hold strings")
    # `bool` is an `int`, but `true` is no option.
    if any(
        isinstance(option, bool) or not isinstance(option, (str, int, float))
        for option in raw.get("options") or ()
    ):
        raise ValueError("field 'options' must hold strings or numbers")


def load_manifest(path: str | Path, multiple_choice: bool = True) -> DatasetManifest:
    """Load and validate a benchmark manifest.

    In a multiple-choice run every instance must declare options; in a
    free-response run any declared options are dropped. Image paths resolve
    relative to the manifest's directory and must exist; instances that name
    one file share one `ImageRef`, so the file is hashed once. An instance
    of one of the 12 canonical concepts must carry that concept's category.
    `"subset"` is a JSON boolean, and a manifest without `"subset": true`
    must be the complete benchmark.
    """
    path = Path(path)
    try:
        payload = read_json(path)
    except (OSError, ValueError) as err:
        raise ManifestInvalidError(f"cannot read manifest {path}: {err}") from err
    if not isinstance(payload, dict) or not isinstance(payload.get("instances"), list):
        raise ManifestInvalidError(f"manifest {path} must be an object with an 'instances' list")
    if not payload["instances"]:
        raise ManifestInvalidError(f"manifest {path} has no instances")
    subset = payload.get("subset", False)
    if not isinstance(subset, bool):
        raise ManifestInvalidError(
            f"manifest {path}: 'subset' must be true or false, got {json.dumps(subset)}"
        )
    images: dict[Path, ImageRef] = {}
    instances: list[VqaInstance] = []
    seen_ids: set[str] = set()
    for index, raw in enumerate(payload["instances"]):
        if not isinstance(raw, dict):
            raise ManifestInvalidError(
                f"manifest {path}: instance entry {index} must be an object, "
                f"got {type(raw).__name__}"
            )
        instance_id = raw.get("id", "<missing id>")
        try:
            _check_field_types(raw)
            if instance_id in seen_ids:
                raise ValueError("duplicate instance id")
            category = CONCEPT_CATEGORIES.get(raw.get("concept"))
            if category is not None and raw.get("category") != category:
                raise ValueError(f"concept {raw['concept']!r} is in category {category!r}")
            options = raw.get("options")
            if multiple_choice:
                if not options:
                    raise ValueError("multiple-choice evaluation requires options")
                options = tuple(str(option) for option in options)
            else:
                options = None
            image_path = path.parent / raw["image"]
            image = images.get(image_path)
            if image is None:
                if not image_path.is_file():
                    raise MissingImageError(
                        f"instance {instance_id!r}: image not found: {image_path}"
                    )
                image = images[image_path] = ImageRef.from_file(image_path)
            instances.append(
                VqaInstance(
                    id=raw["id"],
                    concept=raw["concept"],
                    category=raw["category"],
                    image=image,
                    question=raw["question"],
                    question_type=raw["question_type"],
                    annotator_answers=tuple(raw["annotator_answers"]),
                    modal_answer=raw["modal_answer"],
                    options=options,
                )
            )
            seen_ids.add(instance_id)
        except MissingImageError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise ManifestInvalidError(f"instance {instance_id!r}: {err}") from err
    manifest = DatasetManifest(tuple(instances))
    if not subset:
        per_concept = Counter(instance.concept for instance in manifest.instances)
        problems = []
        if len(manifest.instances) != COMPLETE_INSTANCE_COUNT:
            problems.append(f"{len(manifest.instances)} instances != {COMPLETE_INSTANCE_COUNT}")
        if len(manifest.concepts) != COMPLETE_CONCEPT_COUNT:
            problems.append(f"{len(manifest.concepts)} concepts != {COMPLETE_CONCEPT_COUNT}")
        if len(manifest.categories) != COMPLETE_CATEGORY_COUNT:
            problems.append(f"{len(manifest.categories)} categories != {COMPLETE_CATEGORY_COUNT}")
        if any(count != COMPLETE_PER_CONCEPT for count in per_concept.values()):
            problems.append(f"per-concept counts {dict(per_concept)} != {COMPLETE_PER_CONCEPT}")
        if problems:
            raise ManifestInvalidError(
                "manifest is not the complete benchmark and does not declare "
                '"subset": true — ' + "; ".join(problems)
            )
    return manifest


@dataclass(frozen=True)
class CellStats:
    """Accuracy of one report cell: per-run values plus their mean/std."""

    count: int
    per_run: tuple[float, ...]
    mean: float
    std: float

    @classmethod
    def from_per_run(cls, count: int, per_run: tuple[float, ...]) -> CellStats:
        if not per_run:
            raise ValueError("per_run must be non-empty")
        if any(not 0.0 <= value <= 1.0 for value in per_run):
            raise ValueError("accuracies must lie in [0, 1]")
        return cls(
            count=count,
            per_run=per_run,
            mean=statistics.fmean(per_run),
            std=statistics.pstdev(per_run),
        )


@dataclass(frozen=True)
class EvalReport:
    metric: str
    runs: int
    overall: CellStats
    by_question_type: dict[str, CellStats]
    by_category: dict[str, CellStats]
    human: CellStats | None = None

    def __post_init__(self):
        if self.metric not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.metric!r}")
        if self.runs != len(self.overall.per_run):
            raise ValueError("runs must equal the number of per-run accuracies")
        for breakdown in (self.by_question_type, self.by_category):
            total = sum(cell.count for cell in breakdown.values())
            if breakdown and total != self.overall.count:
                raise ValueError(
                    f"breakdown counts sum to {total}, expected {self.overall.count}"
                )


def _agreement(normalized: str, references: list[str]) -> float:
    """Share of the normalized reference answers equal to the normalized reply.

    A reply that resolved to no option agrees with none.
    """
    if normalized == NO_MATCH:
        return 0.0
    return references.count(normalized) / len(references)


def _group_by_run(
    predictions: list[Prediction], manifest: DatasetManifest
) -> dict[int, dict[str, Prediction]]:
    by_run: dict[int, dict[str, Prediction]] = {}
    for prediction in predictions:
        run = by_run.setdefault(prediction.run_index, {})
        if prediction.instance_id in run:
            raise IncompletePredictionsError(
                f"run {prediction.run_index}: duplicate prediction for instance "
                f"{prediction.instance_id!r}"
            )
        run[prediction.instance_id] = prediction
    if not by_run:
        raise IncompletePredictionsError("no predictions to score")
    expected = {instance.id for instance in manifest.instances}
    for run_index in sorted(by_run):
        got = set(by_run[run_index])
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        if missing or extra:
            raise IncompletePredictionsError(
                f"run {run_index}: missing instances {missing[:5]}, "
                f"unknown instances {extra[:5]}"
            )
    return by_run


def _score_report(
    predictions: list[Prediction],
    manifest: DatasetManifest,
    references: Callable[[VqaInstance], tuple[str, ...]],
    metric: str,
) -> EvalReport:
    by_run = _group_by_run(predictions, manifest)
    run_indices = sorted(by_run)
    scores: dict[str, list[float]] = {}
    for instance in manifest.instances:
        forms = [normalize_answer(answer, instance.options) for answer in references(instance)]
        scores[instance.id] = [
            _agreement(by_run[run_index][instance.id].normalized, forms)
            for run_index in run_indices
        ]

    def cell(instances: tuple[VqaInstance, ...]) -> CellStats:
        per_run = tuple(
            statistics.fmean(scores[instance.id][run] for instance in instances)
            for run in range(len(run_indices))
        )
        return CellStats.from_per_run(len(instances), per_run)

    by_question_type = {
        qtype: cell(tuple(i for i in manifest.instances if i.question_type == qtype))
        for qtype in manifest.question_types
    }
    by_category = {
        category: cell(tuple(i for i in manifest.instances if i.category == category))
        for category in manifest.categories
    }
    return EvalReport(
        metric=metric,
        runs=len(run_indices),
        overall=cell(manifest.instances),
        by_question_type=by_question_type,
        by_category=by_category,
    )


def exact_match_accuracy(
    predictions: list[Prediction], manifest: DatasetManifest
) -> EvalReport:
    """Accuracy against the modal annotator answer, both sides normalized."""
    return _score_report(
        predictions, manifest, lambda instance: (instance.modal_answer,), "exact_match"
    )


def graded_accuracy(predictions: list[Prediction], manifest: DatasetManifest) -> EvalReport:
    """Per-instance score K/5 where K annotators agree with the prediction."""
    return _score_report(
        predictions, manifest, lambda instance: instance.annotator_answers, "graded"
    )


def human_leave_one_out(manifest: DatasetManifest) -> CellStats:
    """Accuracy of each held-out annotator against the modal of the other four.

    Returned as a CellStats whose five per-run entries are the five held-out
    positions; modal ties break by first occurrence in annotator order.
    """
    per_position: list[list[float]] = [[] for _ in range(5)]
    for instance in manifest.instances:
        answers = list(instance.annotator_answers)
        forms = [normalize_answer(answer, instance.options) for answer in answers]
        for position, held in enumerate(forms):
            # Counter keeps first-occurrence order, so a tie goes to the earliest.
            modal = Counter(answers[:position] + answers[position + 1 :]).most_common(1)[0][0]
            per_position[position].append(_agreement(held, [forms[answers.index(modal)]]))
    return CellStats.from_per_run(
        len(manifest.instances), tuple(statistics.fmean(scores) for scores in per_position)
    )


def report_to_json(report: EvalReport) -> str:
    payload = {
        "metric": report.metric,
        "runs": report.runs,
        "std_kind": "population",
        "overall": asdict(report.overall),
        "by_question_type": {
            name: asdict(cell) for name, cell in report.by_question_type.items()
        },
        "by_category": {name: asdict(cell) for name, cell in report.by_category.items()},
        "human": None if report.human is None else asdict(report.human),
    }
    return json_text(payload)


def format_report_table(rows: list[tuple[str, EvalReport]], by: str = "question_type") -> str:
    """Render labeled reports as a fixed-width table.

    Rows are systems/modes; columns are All plus either question types or
    categories, each cell formatted as mean ± std.
    """
    if by not in ("question_type", "category"):
        raise ValueError("by must be 'question_type' or 'category'")
    breakdowns = [
        report.by_question_type if by == "question_type" else report.by_category
        for _, report in rows
    ]
    ordering = QUESTION_TYPES if by == "question_type" else CATEGORIES
    column_keys = [key for key in ordering if any(key in breakdown for breakdown in breakdowns)]
    headers = ["mode", "all"] + column_keys

    def fmt(cell: CellStats) -> str:
        return f"{cell.mean:.3f} ± {cell.std:.3f}"

    table_rows = [
        [label, fmt(report.overall)] + [fmt(breakdown[key]) for key in column_keys]
        for (label, report), breakdown in zip(rows, breakdowns)
    ]
    widths = [max(map(len, column)) for column in zip(headers, *table_rows)]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in table_rows:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)

"""Evaluation harness: manifest loading, exact-match and graded scoring,
and per-question-type and per-category breakdowns over one or more runs.

Scoring is pure: the same predictions and manifest always produce the same
report bytes. Uncertainty is population standard deviation over runs.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import IncompletePredictionsError, ManifestInvalidError, MissingImageError
from .extraction import CATEGORIES
from .gateway import ImageRef
from .qa import NO_MATCH, QUESTION_TYPES, Prediction, VqaInstance, normalize_answer

METRIC_KINDS = ("exact_match", "graded")

COMPLETE_INSTANCE_COUNT = 540
COMPLETE_CONCEPT_COUNT = 12
COMPLETE_CATEGORY_COUNT = 4
COMPLETE_PER_CONCEPT = COMPLETE_INSTANCE_COUNT // COMPLETE_CONCEPT_COUNT

_TEXT_FIELDS = ("id", "concept", "category", "image", "question", "question_type", "modal_answer")


@dataclass(frozen=True)
class DatasetManifest:
    version: str
    instances: tuple[VqaInstance, ...]
    subset: bool = False

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

    def instance(self, instance_id: str) -> VqaInstance:
        for candidate in self.instances:
            if candidate.id == instance_id:
                return candidate
        raise KeyError(instance_id)


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


def load_manifest(path: str | Path, multiple_choice: bool = True) -> DatasetManifest:
    """Load and validate a benchmark manifest.

    In a multiple-choice run every instance must declare options; in a
    free-response run any declared options are dropped. Image paths resolve
    relative to the manifest's directory and must exist; instances that name
    one file share one `ImageRef`, so the file is hashed once. `"subset"` is
    a JSON boolean, and a manifest without `"subset": true` must be the
    complete benchmark.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ManifestInvalidError(f"cannot read manifest {path}: {err}") from err
    if not isinstance(payload, dict) or not isinstance(payload.get("instances"), list):
        raise ManifestInvalidError(f"manifest {path} must be an object with an 'instances' list")
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
    manifest = DatasetManifest(
        version=str(payload.get("version", "1")), instances=tuple(instances), subset=subset
    )
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


def _exact_score(prediction: Prediction, instance: VqaInstance) -> float:
    if prediction.normalized == NO_MATCH:
        return 0.0
    reference = normalize_answer(instance.modal_answer, instance.options)
    return 1.0 if prediction.normalized == reference else 0.0


def _graded_score(prediction: Prediction, instance: VqaInstance) -> float:
    if prediction.normalized == NO_MATCH:
        return 0.0
    agreeing = sum(
        1
        for annotator_answer in instance.annotator_answers
        if normalize_answer(annotator_answer, instance.options) == prediction.normalized
    )
    return agreeing / 5


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
    score: Callable[[Prediction, VqaInstance], float],
    metric: str,
) -> EvalReport:
    by_run = _group_by_run(predictions, manifest)
    run_indices = sorted(by_run)

    def cell(instances: tuple[VqaInstance, ...]) -> CellStats:
        per_run = tuple(
            statistics.fmean(
                score(by_run[run_index][instance.id], instance) for instance in instances
            )
            for run_index in run_indices
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
    return _score_report(predictions, manifest, _exact_score, "exact_match")


def graded_accuracy(predictions: list[Prediction], manifest: DatasetManifest) -> EvalReport:
    """Per-instance score K/5 where K annotators agree with the prediction."""
    return _score_report(predictions, manifest, _graded_score, "graded")


def _modal(answers: list[str]) -> str:
    counts = Counter(answers)
    best = max(counts.values())
    for answer in answers:
        if counts[answer] == best:
            return answer
    raise AssertionError("unreachable: non-empty answers always have a mode")


def human_leave_one_out(manifest: DatasetManifest) -> CellStats:
    """Accuracy of each held-out annotator against the modal of the other four.

    Returned as a CellStats whose five per-run entries are the five held-out
    positions; modal ties break by first occurrence in annotator order.
    """
    per_position = []
    for position in range(5):
        scores = []
        for instance in manifest.instances:
            others = [
                answer
                for index, answer in enumerate(instance.annotator_answers)
                if index != position
            ]
            held = normalize_answer(instance.annotator_answers[position], instance.options)
            reference = normalize_answer(_modal(others), instance.options)
            scores.append(1.0 if held == reference and held != NO_MATCH else 0.0)
        per_position.append(statistics.fmean(scores))
    return CellStats.from_per_run(len(manifest.instances), tuple(per_position))


def _cell_to_dict(cell: CellStats | None) -> dict | None:
    if cell is None:
        return None
    return {
        "count": cell.count,
        "per_run": list(cell.per_run),
        "mean": cell.mean,
        "std": cell.std,
    }


def report_to_json(report: EvalReport) -> str:
    payload = {
        "metric": report.metric,
        "runs": report.runs,
        "std_kind": "population",
        "overall": _cell_to_dict(report.overall),
        "by_question_type": {
            name: _cell_to_dict(cell) for name, cell in report.by_question_type.items()
        },
        "by_category": {
            name: _cell_to_dict(cell) for name, cell in report.by_category.items()
        },
        "human": _cell_to_dict(report.human),
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def format_report_table(rows: list[tuple[str, EvalReport]], by: str = "question_type") -> str:
    """Render labeled reports as a fixed-width table.

    Rows are systems/modes; columns are All plus either question types or
    categories, each cell formatted as mean ± std.
    """
    if by not in ("question_type", "category"):
        raise ValueError("by must be 'question_type' or 'category'")
    column_keys: list[str] = []
    for _, report in rows:
        breakdown = report.by_question_type if by == "question_type" else report.by_category
        for key in breakdown:
            if key not in column_keys:
                column_keys.append(key)
    ordering = QUESTION_TYPES if by == "question_type" else CATEGORIES
    column_keys.sort(key=ordering.index)
    headers = ["mode", "all"] + column_keys

    def fmt(cell: CellStats | None) -> str:
        if cell is None:
            return "-"
        return f"{cell.mean:.3f} ± {cell.std:.3f}"

    table_rows = []
    for label, report in rows:
        breakdown = report.by_question_type if by == "question_type" else report.by_category
        table_rows.append(
            [label, fmt(report.overall)] + [fmt(breakdown.get(key)) for key in column_keys]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table_rows)) if table_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in table_rows:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)

"""Scoring oracles: exact/graded metrics, aggregation, manifests, reports."""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import schemaground.evaluate as evaluate
from schemaground.errors import (
    IncompletePredictionsError,
    ManifestInvalidError,
    MissingImageError,
    exit_code_for,
)
from schemaground.evaluate import (
    CellStats,
    DatasetManifest,
    EvalReport,
    exact_match_accuracy,
    format_report_table,
    graded_accuracy,
    human_leave_one_out,
    load_manifest,
    report_to_json,
)
from schemaground.extraction import CATEGORIES
from schemaground.gateway import ImageRef
from schemaground.qa import (
    NO_MATCH,
    QUESTION_TYPES,
    AnswerMode,
    Prediction,
    VqaInstance,
    normalize_answer,
)
from schemaground.toydata import tiny_png

from helpers import instance_by_id

PNG_IMAGE = ImageRef("image/png", data=tiny_png((1, 1, 1)))


def _instance(
    instance_id,
    annotators,
    modal,
    options=("blue", "red"),
    question_type="counting",
    category="strategic",
    concept="maze",
):
    return VqaInstance(
        id=instance_id,
        concept=concept,
        category=category,
        image=PNG_IMAGE,
        question="q?",
        question_type=question_type,
        annotator_answers=tuple(annotators),
        modal_answer=modal,
        options=tuple(options) if options is not None else None,
    )


def _manifest(*instances):
    return DatasetManifest(tuple(instances))


def _pred(instance_id, normalized, run_index=0):
    return Prediction(instance_id, AnswerMode.BASELINE, normalized, normalized, run_index)


# ------------------------------------------------------------ graded oracle


def test_graded_scores_are_fifths():
    manifest = _manifest(
        _instance("k0", ["red"] * 5, "red"),
        _instance("k2", ["blue", "blue", "red", "red", "red"], "red"),
        _instance("k4", ["blue", "Blue!", "blue", "blue", "red"], "blue"),
        _instance("k5", ["blue"] * 5, "blue"),
    )
    predictions = [_pred(i, "blue") for i in ("k0", "k2", "k4", "k5")]
    report = graded_accuracy(predictions, manifest)
    assert report.metric == "graded"
    assert report.overall.per_run == (pytest.approx((0.0 + 0.4 + 0.8 + 1.0) / 4, abs=1e-9),)

    for instance_id, expected in [("k0", 0.0), ("k2", 0.4), ("k4", 0.8), ("k5", 1.0)]:
        single = graded_accuracy(
            [_pred(instance_id, "blue")],
            _manifest(instance_by_id(manifest, instance_id)),
        )
        assert single.overall.mean == pytest.approx(expected, abs=1e-9)


def test_graded_pair_averages_to_point_seven():
    manifest = _manifest(
        _instance("k5", ["blue"] * 5, "blue"),
        _instance("k2", ["blue", "blue", "red", "red", "red"], "red"),
    )
    report = graded_accuracy([_pred("k5", "blue"), _pred("k2", "blue")], manifest)
    assert report.overall.mean == pytest.approx(0.7, abs=1e-9)


def test_graded_is_invariant_under_annotator_permutation():
    answers = ["blue", "red", "blue", "red", "red"]
    shuffled = ["red", "red", "blue", "red", "blue"]
    assert Counter(answers) == Counter(shuffled)
    score = lambda anns: graded_accuracy(  # noqa: E731
        [_pred("x", "blue")], _manifest(_instance("x", anns, "red"))
    ).overall.mean
    assert score(answers) == pytest.approx(score(shuffled), abs=1e-12)


# ------------------------------------------------------- exact-match oracle


def test_exact_two_of_three():
    manifest = _manifest(
        _instance("a", ["blue"] * 5, "blue"),
        _instance("b", ["blue"] * 5, "blue"),
        _instance("c", ["red"] * 5, "red"),
    )
    predictions = [_pred("a", "blue"), _pred("b", "blue"), _pred("c", "blue")]
    report = exact_match_accuracy(predictions, manifest)
    assert report.overall.mean == pytest.approx(2 / 3, abs=1e-9)
    assert report.overall.count == 3
    assert report.runs == 1
    assert report.overall.std == 0.0


def test_exact_normalizes_both_sides():
    manifest = _manifest(
        _instance("n1", ["Two"] * 5, "Two", options=None, question_type="open")
    )
    report = exact_match_accuracy([_pred("n1", "2")], manifest)
    assert report.overall.mean == 1.0


def test_no_match_scores_zero_under_both_metrics():
    instance = _instance("x", ["blue"] * 5, "blue")
    manifest = _manifest(instance)
    predictions = [_pred("x", NO_MATCH)]
    assert exact_match_accuracy(predictions, manifest).overall.mean == 0.0
    assert graded_accuracy(predictions, manifest).overall.mean == 0.0


_WORDS = st.sampled_from(["red", "blue", "green", "Two", "2"])


@given(st.tuples(_WORDS, _WORDS, _WORDS, _WORDS, _WORDS))
def test_modal_match_implies_some_annotator_agreement(annotators):
    modal = Counter(annotators).most_common(1)[0][0]
    for options in (None, ("red", "blue", "green", "2")):
        instance = _instance(
            "x", annotators, modal, options=options,
            question_type="open" if options is None else "counting",
        )
        manifest = _manifest(instance)
        predicted = normalize_answer(modal, options)
        report = exact_match_accuracy([_pred("x", predicted)], manifest)
        graded = graded_accuracy([_pred("x", predicted)], manifest)
        if predicted == NO_MATCH:
            assert report.overall.mean == 0.0
        elif report.overall.mean == 1.0:
            assert graded.overall.mean >= 0.2 - 1e-12


_ANSWERS = ["red", "blue", "Two", "2", "two", "green"]


@st.composite
def _scored_cases(draw):
    """A manifest of 1-6 instances, 1-3 runs of predictions, some NO_MATCH."""
    instances = []
    for index in range(draw(st.integers(1, 6))):
        annotators = draw(st.lists(st.sampled_from(_ANSWERS), min_size=5, max_size=5))
        options = draw(
            st.none()
            | st.lists(st.sampled_from(["red", "blue", "2", "green"]), min_size=1, unique=True)
        )
        instances.append(
            _instance(
                f"i{index}",
                annotators,
                Counter(annotators).most_common(1)[0][0],
                options=options,
                question_type=draw(st.sampled_from(QUESTION_TYPES)),
                category=draw(st.sampled_from(CATEGORIES)),
            )
        )
    replies = st.sampled_from(["red", "blue", "2", "two", "green", NO_MATCH])
    predictions = [
        _pred(instance.id, draw(replies), run_index=run)
        for run in range(draw(st.integers(1, 3)))
        for instance in instances
    ]
    return _manifest(*instances), predictions


@given(_scored_cases())
def test_reports_match_a_per_instance_oracle(case):
    manifest, predictions = case

    def exact(prediction, instance):
        reference = normalize_answer(instance.modal_answer, instance.options)
        return float(prediction.normalized != NO_MATCH and prediction.normalized == reference)

    def graded(prediction, instance):
        if prediction.normalized == NO_MATCH:
            return 0.0
        forms = [normalize_answer(answer, instance.options) for answer in instance.annotator_answers]
        return forms.count(prediction.normalized) / 5

    runs = sorted({prediction.run_index for prediction in predictions})
    by_key = {(p.run_index, p.instance_id): p for p in predictions}

    def expected_cell(score, instances):
        return [
            sum(score(by_key[run, instance.id], instance) for instance in instances)
            / len(instances)
            for run in runs
        ]

    def check(cell, score, instances):
        assert cell.count == len(instances)
        assert list(cell.per_run) == pytest.approx(expected_cell(score, instances), abs=1e-12)

    for report, score in (
        (exact_match_accuracy(predictions, manifest), exact),
        (graded_accuracy(predictions, manifest), graded),
    ):
        assert report.runs == len(runs)
        check(report.overall, score, manifest.instances)
        assert list(report.by_question_type) == list(manifest.question_types)
        for qtype, cell in report.by_question_type.items():
            check(cell, score, [i for i in manifest.instances if i.question_type == qtype])
        assert list(report.by_category) == list(manifest.categories)
        for category, cell in report.by_category.items():
            check(cell, score, [i for i in manifest.instances if i.category == category])


def test_each_reference_answer_is_normalized_once_per_scoring_call(toy_manifest, monkeypatch):
    calls = []

    def counting(raw, options=None):
        calls.append(raw)
        return normalize_answer(raw, options)

    monkeypatch.setattr(evaluate, "normalize_answer", counting)
    predictions = [
        _pred(instance.id, instance.modal_answer, run_index=run)
        for run in range(2)
        for instance in toy_manifest.instances
    ]
    for score, expected in (
        (lambda: exact_match_accuracy(predictions, toy_manifest), 12),
        (lambda: graded_accuracy(predictions, toy_manifest), 60),
        (lambda: human_leave_one_out(toy_manifest), 60),
    ):
        calls.clear()
        score()
        assert len(calls) == expected


# --------------------------------------------------------------- breakdowns


def test_breakdowns_partition_the_overall_cell():
    manifest = _manifest(
        _instance("q1", ["blue"] * 5, "blue", question_type="counting", category="strategic"),
        _instance("q2", ["blue"] * 5, "blue", question_type="binary", category="scientific"),
        _instance("q3", ["blue"] * 5, "blue", question_type="open", category="scientific"),
        _instance("q4", ["blue"] * 5, "blue", question_type="open", category="strategic"),
    )
    predictions = [
        _pred("q1", "blue"), _pred("q2", "red"), _pred("q3", "blue"), _pred("q4", "red"),
    ]
    report = exact_match_accuracy(predictions, manifest)
    for breakdown in (report.by_question_type, report.by_category):
        weighted = sum(cell.count * cell.mean for cell in breakdown.values())
        assert weighted == pytest.approx(report.overall.count * report.overall.mean, abs=1e-9)
    assert list(report.by_question_type) == ["counting", "binary", "open"]
    assert list(report.by_category) == ["strategic", "scientific"]
    assert report.by_question_type["open"].count == 2
    assert report.by_question_type["open"].mean == pytest.approx(0.5, abs=1e-9)


# ------------------------------------------------------------- aggregation


def _report_with(values):
    return EvalReport(
        metric="exact_match",
        runs=len(values),
        overall=CellStats.from_per_run(20, tuple(values)),
        by_question_type={},
        by_category={},
    )


def test_aggregate_five_runs_population_std():
    report = _report_with([0.6, 0.6, 0.7, 0.7, 0.65])
    assert report.runs == 5
    assert report.overall.mean == pytest.approx(0.65, abs=1e-9)
    assert report.overall.std == pytest.approx(math.sqrt(0.002), abs=1e-6)
    assert report.overall.per_run == (0.6, 0.6, 0.7, 0.7, 0.65)


def test_aggregate_two_runs_half_spread():
    report = _report_with([1.0, 0.0])
    assert report.overall.mean == pytest.approx(0.5, abs=1e-9)
    assert report.overall.std == pytest.approx(0.5, abs=1e-9)


def test_single_run_has_zero_std():
    assert _report_with([0.25]).overall.std == 0.0


def test_multi_run_scoring_via_run_index():
    manifest = _manifest(_instance("x", ["blue"] * 5, "blue"))
    predictions = [_pred("x", "blue", run_index=0), _pred("x", "red", run_index=1)]
    report = exact_match_accuracy(predictions, manifest)
    assert report.runs == 2
    assert report.overall.per_run == (1.0, 0.0)
    assert report.overall.mean == pytest.approx(0.5)
    assert report.overall.std == pytest.approx(0.5)


# ------------------------------------------------------ prediction hygiene


def test_incomplete_prediction_sets_are_rejected():
    manifest = _manifest(
        _instance("a", ["blue"] * 5, "blue"),
        _instance("b", ["blue"] * 5, "blue"),
    )
    with pytest.raises(IncompletePredictionsError, match="duplicate"):
        exact_match_accuracy([_pred("a", "x"), _pred("a", "y"), _pred("b", "x")], manifest)
    with pytest.raises(IncompletePredictionsError, match="missing instances \\['b'\\]"):
        exact_match_accuracy([_pred("a", "x")], manifest)
    with pytest.raises(IncompletePredictionsError, match="unknown instances \\['zz'\\]"):
        exact_match_accuracy(
            [_pred("a", "x"), _pred("b", "x"), _pred("zz", "x")], manifest
        )
    with pytest.raises(IncompletePredictionsError, match="no predictions"):
        exact_match_accuracy([], manifest)
    with pytest.raises(IncompletePredictionsError, match="run 1"):
        exact_match_accuracy(
            [_pred("a", "x"), _pred("b", "x"), _pred("a", "x", run_index=1)], manifest
        )


# ------------------------------------------------------------- human rows


def test_human_leave_one_out_hand_case():
    manifest = _manifest(
        _instance("h", ["a", "a", "a", "b", "b"], "a", options=None, question_type="open")
    )
    cell = human_leave_one_out(manifest)
    assert cell.per_run == (1.0, 1.0, 1.0, 0.0, 0.0)
    assert cell.mean == pytest.approx(0.6, abs=1e-9)
    assert cell.count == 1


def test_human_leave_one_out_normalizes_answers():
    manifest = _manifest(
        _instance("h", ["two", "2", "2", "three", "3"], "2", options=None,
                  question_type="open")
    )
    cell = human_leave_one_out(manifest)
    assert cell.per_run[:3] == (1.0, 1.0, 1.0)


def test_human_leave_one_out_no_match_scores_zero():
    manifest = _manifest(
        _instance("h", ["zebra"] * 5, "zebra", options=("x", "y"))
    )
    cell = human_leave_one_out(manifest)
    assert cell.per_run == (0.0,) * 5


# ----------------------------------------------------------- cell validity


def test_cell_stats_validation():
    with pytest.raises(ValueError, match="non-empty"):
        CellStats.from_per_run(1, ())
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        CellStats.from_per_run(1, (1.5,))
    cell = CellStats.from_per_run(3, (0.5, 1.0))
    assert cell.mean == pytest.approx(0.75)


def test_report_validation():
    good = CellStats.from_per_run(4, (0.5,))
    with pytest.raises(ValueError, match="metric"):
        EvalReport("bleu", 1, good, {}, {})
    with pytest.raises(ValueError, match="runs"):
        EvalReport("graded", 2, good, {}, {})
    with pytest.raises(ValueError, match="breakdown counts"):
        EvalReport(
            "graded", 1, good,
            {"counting": CellStats.from_per_run(3, (0.5,))}, {},
        )


# ------------------------------------------------------- manifest loading


def test_toy_manifest_loads(toy_manifest):
    assert len(toy_manifest.instances) == 12
    assert toy_manifest.concepts == ("maze", "atom", "cell", "solar-system")
    assert toy_manifest.question_types == ("counting", "binary", "open")
    assert toy_manifest.categories == ("strategic", "scientific")
    assert instance_by_id(toy_manifest, "maze-counting").options == ("2", "3", "4")


def test_free_response_load_strips_options(toy):
    manifest = load_manifest(toy.manifest_path, multiple_choice=False)
    assert all(instance.options is None for instance in manifest.instances)


def _write_manifest(tmp_path, instances, subset=True, with_image=True):
    root = tmp_path / "data"
    root.mkdir(exist_ok=True)
    if with_image:
        (root / "img.png").write_bytes(tiny_png((2, 2, 2)))
    path = root / "manifest.json"
    path.write_text(
        json.dumps({"version": "t", "subset": subset, "instances": instances})
    )
    return path


def _raw_instance(**overrides):
    payload = {
        "id": "r1",
        "concept": "maze",
        "category": "strategic",
        "image": "img.png",
        "question": "q?",
        "question_type": "open",
        "options": ["a", "b"],
        "annotator_answers": ["a"] * 5,
        "modal_answer": "a",
    }
    payload.update(overrides)
    return payload


def test_manifest_rejects_wrong_annotator_count(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance(annotator_answers=["a"] * 4)])
    with pytest.raises(ManifestInvalidError, match="'r1'.*5 annotator answers"):
        load_manifest(path)


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        ({"options": "abc"}, "'options' must be a list"),
        ({"annotator_answers": "44444", "modal_answer": "4"}, "'annotator_answers' must be a list"),
        ({"annotator_answers": [4] * 5, "modal_answer": 4}, "'modal_answer' must be a string"),
        ({"annotator_answers": [4] * 5, "modal_answer": "4"}, "'annotator_answers' must hold"),
        ({"question": 7}, "'question' must be a string"),
        ({"id": 7}, "'id' must be a string"),
        # A null option would become "None", which cleans to "0".
        ({"options": ["2", None, "4"]}, "'options' must hold strings or numbers"),
        ({"options": ["2", True, "4"]}, "'options' must hold strings or numbers"),
        ({"options": ["2", ["3"], "4"]}, "'options' must hold strings or numbers"),
        # NaN and infinity are not JSON, so the file cannot be read.
        ({"options": ["2", float("nan"), "4"]}, "NaN is not a finite number"),
        ({"options": ["2", float("inf"), "4"]}, "Infinity is not a finite number"),
        ({"options": ["2", float("-inf"), "4"]}, "-Infinity is not a finite number"),
    ],
)
def test_manifest_rejects_mistyped_fields(tmp_path, overrides, message):
    raw = _raw_instance(**overrides)
    path = _write_manifest(tmp_path, [raw])
    where = "cannot read manifest .*" if "finite" in message else f"instance {raw['id']!r}"
    with pytest.raises(ManifestInvalidError, match=f"{where}: .*{message}") as info:
        load_manifest(path)
    assert exit_code_for(info.value) == 50


@pytest.mark.parametrize(
    ("options", "message"),
    [(["2", "two", "3"], "distinct forms"), (["a", "..."], "non-blank")],
)
def test_manifest_rejects_options_that_cannot_be_chosen(tmp_path, options, message):
    path = _write_manifest(tmp_path, [_raw_instance(options=options)])
    with pytest.raises(ManifestInvalidError, match=f"'r1': .*{message}") as info:
        load_manifest(path)
    assert exit_code_for(info.value) == 50
    assert load_manifest(path, multiple_choice=False).instances[0].options is None


def test_manifest_option_numbers_become_strings(tmp_path):
    raw = _raw_instance(options=[2, 3, 4], annotator_answers=["4"] * 5, modal_answer="4")
    path = _write_manifest(tmp_path, [raw])
    assert load_manifest(path).instances[0].options == ("2", "3", "4")


def test_manifest_rejects_missing_options_in_mc_mode(tmp_path):
    raw = _raw_instance()
    del raw["options"]
    path = _write_manifest(tmp_path, [raw])
    with pytest.raises(ManifestInvalidError, match="requires options"):
        load_manifest(path)
    assert load_manifest(path, multiple_choice=False).instances[0].options is None


def test_manifest_rejects_a_canonical_concept_in_another_category(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance(category="social")])
    message = "'r1': concept 'maze' is in category 'strategic'"
    with pytest.raises(ManifestInvalidError, match=message) as info:
        load_manifest(path)
    assert exit_code_for(info.value) == 50


def test_manifest_keeps_the_category_of_a_concept_with_no_canonical_schema(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance(concept="labyrinth", category="social")])
    assert load_manifest(path).instances[0].category == "social"


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance(), _raw_instance()])
    with pytest.raises(ManifestInvalidError, match="duplicate instance id"):
        load_manifest(path)


def test_manifest_missing_image_is_its_own_error(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance()], with_image=False)
    with pytest.raises(MissingImageError, match="'r1'"):
        load_manifest(path)


def test_incomplete_manifest_must_declare_subset(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance()], subset=False)
    with pytest.raises(ManifestInvalidError, match='"subset": true'):
        load_manifest(path)
    with pytest.raises(ManifestInvalidError, match="540"):
        load_manifest(path)


@pytest.mark.parametrize("subset", ["false", 1, None])
def test_subset_must_be_a_json_boolean(tmp_path, subset):
    path = _write_manifest(tmp_path, [_raw_instance()], subset=subset)
    with pytest.raises(ManifestInvalidError, match="'subset' must be true or false"):
        load_manifest(path)


def test_manifest_unreadable_or_malformed(tmp_path):
    with pytest.raises(ManifestInvalidError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ManifestInvalidError, match="'instances' list"):
        load_manifest(bad)
    with pytest.raises(ManifestInvalidError, match="no instances"):
        load_manifest(_write_manifest(tmp_path, []))
    bad.write_text('{"subset": true, "instances": [1e999]}')
    with pytest.raises(ManifestInvalidError, match="cannot read .*1e999 is not a finite number"):
        load_manifest(bad)
    bad.write_text('{"instances": ' + "[" * 50_000 + "]" * 50_000 + "}")
    with pytest.raises(ManifestInvalidError, match="cannot read .*nested too deeply"):
        load_manifest(bad)


def test_manifest_entry_that_is_not_an_object(tmp_path):
    path = _write_manifest(tmp_path, [_raw_instance(), "oops"])
    with pytest.raises(ManifestInvalidError, match="entry 1 must be an object, got str") as info:
        load_manifest(path)
    assert exit_code_for(info.value) == 50


# ------------------------------------------------------- report rendering


def test_report_json_is_pure_and_population_labeled():
    manifest = _manifest(_instance("a", ["blue"] * 5, "blue"))
    report = exact_match_accuracy([_pred("a", "blue")], manifest)
    text = report_to_json(report)
    assert text == report_to_json(report)
    payload = json.loads(text)
    assert payload["std_kind"] == "population"
    assert payload["metric"] == "exact_match"
    assert payload["overall"] == {"count": 1, "per_run": [1.0], "mean": 1.0, "std": 0.0}
    assert payload["human"] is None
    assert set(payload["by_question_type"]) == {"counting"}


def test_format_report_table_layout():
    manifest = _manifest(
        _instance("q1", ["blue"] * 5, "blue", question_type="counting"),
        _instance("q2", ["blue"] * 5, "blue", question_type="open",
                  category="scientific"),
    )
    right = exact_match_accuracy([_pred("q1", "blue"), _pred("q2", "blue")], manifest)
    wrong = exact_match_accuracy([_pred("q1", "red"), _pred("q2", "red")], manifest)
    table = format_report_table([("baseline", wrong), ("full_dsg", right)])
    lines = table.splitlines()
    assert lines[0].split() == ["mode", "all", "counting", "open"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("baseline")
    assert "0.000 ± 0.000" in lines[2]
    assert "1.000 ± 0.000" in lines[3]
    by_category = format_report_table([("m", right)], by="category")
    assert by_category.splitlines()[0].split() == ["mode", "all", "strategic", "scientific"]
    with pytest.raises(ValueError, match="question_type"):
        format_report_table([("m", right)], by="nope")

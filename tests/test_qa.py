"""Answering: normalization, the cumulative prompt ladder, predictions."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schemaground import qa
from schemaground.errors import FixtureMissError
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import ImageRef
from schemaground.grounding import ground_hierarchical
from schemaground.qa import (
    NO_MATCH,
    AnswerMode,
    Prediction,
    VqaInstance,
    answer,
    build_augmented_prompt,
    normalize_answer,
    write_predictions_jsonl,
)
from schemaground.toydata import tiny_png

from helpers import instance_by_id, scripted_gateway

MAZE = load_canonical_schema("maze")


@pytest.fixture(scope="module")
def maze_binary(toy_manifest):
    return instance_by_id(toy_manifest, "maze-binary")


@pytest.fixture()
def maze_resolved(maze_binary, toy_gateway):
    return ground_hierarchical(MAZE, maze_binary.image, toy_gateway)


# ------------------------------------------------------------ normalization


@pytest.mark.parametrize(
    ("raw", "options", "expected"),
    [
        ("Across.", ("across", "adjacent"), "across"),
        ("two", None, "2"),
        ("across and adjacent", ("across", "adjacent"), NO_MATCH),
        ("There are three organelles.", ("2", "3", "4"), "3"),
        ("There are three organelles.", None, "there are 3 organelles"),
        ("  The Apple!! ", None, "apple"),
        ("a the an apple", None, "apple"),
        ("An  answer\nwith   gaps", None, "answer with gaps"),
        ("bone and someone", None, "bone and someone"),
        ("twenty-one", None, "21"),
        ("fourteen items", None, "14 items"),
        ("rectangular", ("rectangular", "circular"), "rectangular"),
        ("I see a closed loop.", ("Closed", "Open"), "Closed"),
        ("", None, ""),
        ("", ("yes", "no"), NO_MATCH),
        ("the", None, "the"),
        ("10", ("1", "10"), "10"),
        ("I do not know", ("yes", "no"), NO_MATCH),
        ("dark red", ("red", "dark red"), "dark red"),
        # Number replies: a compound is one number, "none" is 0, "no" is a
        # word, and a reply naming two options is ambiguous.
        ("Twenty-one.", ("20", "21", "25"), "21"),
        ("twenty one", ("20", "21", "25"), "21"),
        ("twenty-one", ("20", "25", "30"), NO_MATCH),
        ("thirty", ("20", "30"), "30"),
        ("None.", ("0", "1", "2"), "0"),
        ("No.", ("0", "1", "2"), NO_MATCH),
        ("No.", ("yes", "no"), "no"),
        ("I count 4, not 3.", ("2", "3", "4"), NO_MATCH),
        ("Three or four.", ("2", "3", "4"), NO_MATCH),
    ],
)
def test_normalize_answer_battery(raw, options, expected):
    assert normalize_answer(raw, options) == expected


UNIT_WORDS = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
TENS_WORDS = "twenty thirty forty fifty sixty seventy eighty ninety".split()


def _spell(n: int, separator: str) -> str:
    if n < 20:
        return UNIT_WORDS[n]
    tens, unit = divmod(n, 10)
    return TENS_WORDS[tens - 2] + (separator + UNIT_WORDS[unit] if unit else "")


# Every n in 0-99, in every spelling, among other integer options.
@settings(max_examples=20)
@given(
    st.lists(st.integers(min_value=0, max_value=99), max_size=4, unique=True),
    st.randoms(use_true_random=False),
)
def test_spelled_out_numbers_resolve_to_their_option(others, rng):
    for n in range(100):
        options = [str(n)] + [str(other) for other in others if other != n]
        rng.shuffle(options)
        for separator in ("-", " "):
            for reply in (_spell(n, separator), _spell(n, separator).title() + "."):
                assert normalize_answer(reply, tuple(options)) == str(n), reply


def test_normalize_returns_option_verbatim_not_cleaned():
    assert normalize_answer("at the CENTER of it", ("Center", "Edge")) == "Center"


@given(st.text(max_size=80))
def test_normalize_without_options_is_idempotent(raw):
    once = normalize_answer(raw)
    assert normalize_answer(once) == once


@given(
    st.text(max_size=60),
    st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=4),
)
def test_normalize_with_options_is_closed(raw, options):
    result = normalize_answer(raw, tuple(options))
    assert result == NO_MATCH or result in options


# The memo keys on the reply and the options as a tuple: a list and a tuple
# of the same options share an entry, and the same reply under other
# options is normalized afresh. Replies and options come from a small
# alphabet, so draws repeat and hit the memo.
@given(
    st.lists(
        st.tuples(
            st.text("ab 1-", max_size=6),
            st.none() | st.lists(st.text("ab 1-", max_size=3), max_size=3),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_the_normalize_memo_returns_what_the_uncached_function_does(calls):
    uncached = qa._normalize.__wrapped__
    for raw, options in calls:
        expected = uncached(raw, None if options is None else tuple(options))
        assert normalize_answer(raw, options) == expected
        if options is not None:
            assert normalize_answer(raw, tuple(options)) == expected


def test_the_normalize_memo_keeps_every_pair_it_has_seen():
    # "Once per process" holds past any fixed size: after 4,097 distinct
    # pairs, the first pair is still a memo hit.
    first = ("memo probe 0", ("0",))
    normalize_answer(*first)
    for n in range(1, 4097):
        normalize_answer(f"memo probe {n}", ("0",))
    hits = qa._normalize.cache_info().hits
    normalize_answer(*first)
    assert qa._normalize.cache_info().hits == hits + 1


def test_one_reply_under_other_options_is_never_a_stale_memo_hit():
    assert normalize_answer("Two.", ["1", "2"]) == "2"
    assert normalize_answer("Two.", ("two", "three")) == "two"
    assert normalize_answer("Two.", ("3",)) == NO_MATCH
    assert normalize_answer("Two.", []) == NO_MATCH
    assert normalize_answer("Two.") == "2"
    assert normalize_answer("Two.", ("1", "2")) == "2"


@given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=4), st.data())
def test_reply_equal_to_an_option_resolves_to_it(options, data):
    forms = [normalize_answer(option) for option in options]
    assume(all(forms) and len(set(forms)) == len(forms))
    option = data.draw(st.sampled_from(options))
    assert normalize_answer(option, tuple(options)) == option


# ------------------------------------------------------------ prompt ladder


def _lines(instance, mode, schema=None, resolved=None):
    """The lines of the final user message: its blocks, with the schema
    text split into its lines."""
    messages = build_augmented_prompt(instance, mode, schema=schema, resolved=resolved)
    return messages[-1].text.split("\n")


def _contained_mod_period(block, text):
    return block in text or (block.endswith(".") and block[:-1] in text)


def test_baseline_blocks(maze_binary):
    assert _lines(maze_binary, AnswerMode.BASELINE) == [
        "Imagine that the image represents a maze.",
        "Is the layout rectangular or circular?",
        "Answer with exactly one of: rectangular, circular.",
    ]


def test_schema_only_adds_program_text(maze_binary):
    lines = _lines(maze_binary, AnswerMode.SCHEMA_ONLY, schema=MAZE)
    baseline = _lines(maze_binary, AnswerMode.BASELINE)
    assert lines == [baseline[0], *MAZE.text.rstrip("\n").split("\n"), *baseline[1:]]
    assert lines[1] == "gen(concept=maze) ="
    assert "    gen(entry-exit | concept=maze, layout)" in lines


def test_grounded_blocks_fold_descriptions_into_framing(maze_binary, maze_resolved):
    lines = _lines(
        maze_binary,
        AnswerMode.GROUNDING_HIERARCHICAL,
        schema=MAZE,
        resolved=maze_resolved,
    )
    assert lines[0] == (
        "Imagine that the image represents a maze, and the layout is rectangular, "
        "and the walls are coffee beans, and the entry and exit are coffee cups."
    )
    schema_only = _lines(maze_binary, AnswerMode.SCHEMA_ONLY, schema=MAZE)
    assert lines[1:] == schema_only[1:]
    assert _contained_mod_period(schema_only[0], lines[0])


def test_ladder_is_cumulative_across_all_modes(maze_binary, maze_resolved):
    by_mode = {
        mode: "\n".join(_lines(maze_binary, mode, schema=MAZE, resolved=maze_resolved))
        for mode in AnswerMode
    }
    ladder = [
        AnswerMode.BASELINE,
        AnswerMode.SCHEMA_ONLY,
        AnswerMode.GROUNDING_HIERARCHICAL,
    ]
    for earlier, later in zip(ladder, ladder[1:]):
        assert all(
            _contained_mod_period(line, by_mode[later])
            for line in by_mode[earlier].split("\n")
        )
    assert by_mode[AnswerMode.GROUNDING_HIERARCHICAL] == by_mode[AnswerMode.FULL_DSG]


def test_options_line_only_when_options_present(maze_binary, toy_manifest):
    assert _lines(maze_binary, AnswerMode.BASELINE)[-1].startswith(
        "Answer with exactly one of: "
    )
    import dataclasses

    free = dataclasses.replace(maze_binary, options=None)
    assert _lines(free, AnswerMode.BASELINE)[-1] == free.question


def test_modes_accept_plain_strings(maze_binary):
    assert build_augmented_prompt(maze_binary, "baseline") == build_augmented_prompt(
        maze_binary, AnswerMode.BASELINE
    )
    with pytest.raises(ValueError):
        build_augmented_prompt(maze_binary, "no_such_mode")


def test_full_dsg_prepends_text_only_transcript(maze_binary, maze_resolved):
    messages = build_augmented_prompt(
        maze_binary, AnswerMode.FULL_DSG, schema=MAZE, resolved=maze_resolved
    )
    assert messages[:-1] == list(maze_resolved.transcript)
    assert all(prior.image is None for prior in messages[:-1])
    assert messages[-1].image is maze_binary.image
    single = build_augmented_prompt(
        maze_binary, AnswerMode.GROUNDING_HIERARCHICAL, schema=MAZE, resolved=maze_resolved
    )
    assert len(single) == 1
    assert single[0] == messages[-1]


# ---------------------------------------------------------------- answering


def test_answer_end_to_end_modes(maze_binary, maze_resolved, toy_gateway):
    grounded = answer(
        maze_binary,
        AnswerMode.GROUNDING_HIERARCHICAL,
        toy_gateway,
        schema=MAZE,
        resolved=maze_resolved,
    )
    assert grounded.normalized == maze_binary.modal_answer == "rectangular"
    assert grounded.raw_text == "Rectangular."
    baseline = answer(maze_binary, AnswerMode.BASELINE, toy_gateway)
    assert baseline.normalized == "circular"


def test_answer_errors_name_the_instance(maze_binary):
    gateway = scripted_gateway([{"match": {"equals": "never"}, "reply": "x"}])
    with pytest.raises(FixtureMissError, match="while answering instance 'maze-binary'"):
        answer(maze_binary, AnswerMode.BASELINE, gateway)


# ----------------------------------------------------------- vqa instances


def _instance(**overrides):
    payload = dict(
        id="x-1",
        concept="maze",
        category="strategic",
        image=ImageRef("image/png", data=tiny_png((5, 5, 5))),
        question="How many?",
        question_type="counting",
        annotator_answers=("2", "2", "2", "3", "4"),
        modal_answer="2",
        options=("2", "3", "4"),
    )
    payload.update(overrides)
    return VqaInstance(**payload)


def test_instance_validation():
    _instance()
    with pytest.raises(ValueError, match="category"):
        _instance(category="mystic")
    with pytest.raises(ValueError, match="question type"):
        _instance(question_type="riddle")
    with pytest.raises(ValueError, match="5 annotator answers"):
        _instance(annotator_answers=("2", "2", "3", "4"))
    with pytest.raises(ValueError, match="not a mode"):
        _instance(modal_answer="4")
    with pytest.raises(ValueError, match="non-empty"):
        _instance(options=())
    with pytest.raises(ValueError, match="non-blank"):
        _instance(options=("2", " "))
    with pytest.raises(ValueError, match="non-blank"):
        _instance(options=("2", "..."))
    with pytest.raises(ValueError, match="distinct forms"):
        _instance(options=("2", "two", "3"))
    tied = _instance(annotator_answers=("2", "2", "3", "3", "4"), modal_answer="3")
    assert tied.modal_answer == "3"


def test_prediction_rejects_negative_run_index():
    with pytest.raises(ValueError, match="run_index"):
        Prediction("i", AnswerMode.BASELINE, "x", "x", run_index=-1)


# ------------------------------------------------------------- predictions


def test_predictions_jsonl_roundtrip_and_ordering(tmp_path):
    predictions = [
        Prediction("b", AnswerMode.BASELINE, "Raw B", "b", run_index=1),
        Prediction("b", AnswerMode.BASELINE, "Raw b0", "b0", run_index=0),
        Prediction("a", AnswerMode.FULL_DSG, "Raw A", NO_MATCH, run_index=1),
    ]
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions, path)
    loaded = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [(p["run_index"], p["instance_id"]) for p in loaded] == [(0, "b"), (1, "a"), (1, "b")]
    assert loaded[1]["mode"] == AnswerMode.FULL_DSG.value
    assert loaded[1]["normalized"] == NO_MATCH
    assert loaded[2]["raw_text"] == "Raw B"
    write_predictions_jsonl([], tmp_path / "empty.jsonl")
    assert (tmp_path / "empty.jsonl").read_text(encoding="utf-8") == ""


# Any character, lone surrogates included, with the ones JSON escapes drawn
# often: quotes, backslashes, control characters and non-ASCII.
_LINE_TEXT = st.text(
    alphabet=st.characters(exclude_categories=())
    | st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\r\u00e9\u2028\ud800\udfff\U0001f600')
)
_PREDICTIONS = st.lists(
    st.builds(
        Prediction,
        instance_id=_LINE_TEXT,
        mode=st.sampled_from(AnswerMode),
        raw_text=_LINE_TEXT,
        normalized=_LINE_TEXT,
        run_index=st.integers(min_value=0, max_value=2**70),
    ),
    max_size=4,
)


# Each line is the `json.dumps` of the prediction's fields. A lone surrogate
# has no UTF-8 form, so a file holding one cannot be written, as before.
@settings(max_examples=300)
@given(predictions=_PREDICTIONS)
def test_a_prediction_line_is_the_json_dumps_of_its_fields(predictions, tmp_path_factory):
    ordered = sorted(predictions, key=lambda p: (p.run_index, p.instance_id))
    lines = [
        json.dumps(
            {
                "instance_id": p.instance_id,
                "mode": p.mode.value,
                "raw_text": p.raw_text,
                "normalized": p.normalized,
                "run_index": p.run_index,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        for p in ordered
    ]
    expected = "".join(line + "\n" for line in lines)
    path = tmp_path_factory.getbasetemp() / "predictions.jsonl"
    try:
        data = expected.encode("utf-8")
    except UnicodeEncodeError:
        with pytest.raises(UnicodeEncodeError):
            write_predictions_jsonl(predictions, path)
        return
    write_predictions_jsonl(predictions, path)
    assert path.read_bytes() == data

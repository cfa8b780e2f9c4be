"""Question answering under the five-mode prompting ladder.

Modes are cumulative: the plain concept framing, plus the schema program
text, plus grounded component descriptions woven into the framing sentence
(in grounding order, one clause each, worded by phrasing.framing_sentence
exactly as the grounding queries are), plus (in the final mode) the whole
grounding conversation as prior turns.
"""

from __future__ import annotations

import functools
import re
import string
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path

from .dsl import SchemaProgram
from .errors import GatewayError
from .extraction import CATEGORIES
from .gateway import ImageRef, Message, ModelGateway
from .grounding import ResolvedSchema
from .phrasing import framing_sentence

QUESTION_TYPES = ("counting", "binary", "open")

NO_MATCH = "<no-match>"


class AnswerMode(str, Enum):
    BASELINE = "baseline"
    SCHEMA_ONLY = "schema_only"
    GROUNDING_SEQUENTIAL = "grounding_sequential"
    GROUNDING_HIERARCHICAL = "grounding_hierarchical"
    FULL_DSG = "full_dsg"


GROUNDED_MODES = (
    AnswerMode.GROUNDING_SEQUENTIAL,
    AnswerMode.GROUNDING_HIERARCHICAL,
    AnswerMode.FULL_DSG,
)


@dataclass(frozen=True)
class VqaInstance:
    id: str
    concept: str
    category: str
    image: ImageRef
    question: str
    question_type: str
    annotator_answers: tuple[str, ...]
    modal_answer: str
    options: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.question_type not in QUESTION_TYPES:
            raise ValueError(f"unknown question type {self.question_type!r}")
        if len(self.annotator_answers) != 5:
            raise ValueError(
                f"expected exactly 5 annotator answers, got {len(self.annotator_answers)}"
            )
        counts = Counter(self.annotator_answers)
        if counts.get(self.modal_answer, 0) != max(counts.values()):
            raise ValueError("modal_answer is not a mode of annotator_answers")
        if self.options is not None:
            if not self.options:
                raise ValueError("options, when present, must be non-empty")
            # A reply resolves to an option by its cleaned form, so an option
            # that cleans to nothing, or to another option's form, can never
            # be chosen.
            forms = [_clean(option) for option in self.options]
            if not all(forms):
                raise ValueError("options must be non-blank strings, not only punctuation")
            if len(set(forms)) != len(forms):
                raise ValueError(f"options must clean to distinct forms, got {forms}")


@dataclass(frozen=True)
class Prediction:
    instance_id: str
    mode: AnswerMode
    raw_text: str
    normalized: str
    run_index: int = 0

    def __post_init__(self):
        if self.run_index < 0:
            raise ValueError("run_index must be >= 0")


def write_predictions_jsonl(predictions, path) -> None:
    """One Prediction per line, ordered by (run_index, instance_id).

    Each line is what `json.dumps(..., sort_keys=True, ensure_ascii=False)`
    writes for the prediction's fields, built from its pieces in that key
    order without setting up an encoder per line.
    """
    ordered = sorted(predictions, key=lambda p: (p.run_index, p.instance_id))
    lines = [
        '{"instance_id": %s, "mode": %s, "normalized": %s, "raw_text": %s, "run_index": %s}'
        % (
            encode_basestring(p.instance_id),
            encode_basestring(p.mode.value),
            encode_basestring(p.normalized),
            encode_basestring(p.raw_text),
            int.__repr__(p.run_index),
        )
        for p in ordered
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


_UNIT_WORDS = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS_WORDS = "twenty thirty forty fifty sixty seventy eighty ninety".split()
_NUMBERS = {word: n for n, word in enumerate(_UNIT_WORDS)}
_NUMBERS.update({word: 20 + 10 * n for n, word in enumerate(_TENS_WORDS)})
_NUMBERS["none"] = 0  # as the VQA evaluation's normalization; "no" stays a word

# A tens word with an optional unit, hyphenated or spaced ("twenty-one"), is
# one number; so is a unit word or a standalone "none".
_NUMBER_WORD_RE = re.compile(
    r"\b(?:({tens})(?:[- ]({ones}))?|({units}|none))\b".format(
        tens="|".join(_TENS_WORDS),
        ones="|".join(_UNIT_WORDS[1:10]),
        units="|".join(_UNIT_WORDS),
    )
)
_ARTICLE_RE = re.compile(r"^(?:a|an|the)\s+")
_EDGE_CHARS = string.punctuation + string.whitespace


def _clean(text: str) -> str:
    text = re.sub(r"\s+", " ", text.lower()).strip(_EDGE_CHARS)
    while True:
        stripped = _ARTICLE_RE.sub("", text, count=1)
        if stripped == text or not stripped:
            break
        text = stripped
    text = _NUMBER_WORD_RE.sub(_number, text)
    return text.strip(_EDGE_CHARS)


def _number(match: re.Match) -> str:
    tens, unit, word = match.groups()
    return str(_NUMBERS[word] if word else _NUMBERS[tens] + _NUMBERS.get(unit, 0))


def _contains_words(text: str, phrase: str) -> bool:
    """Whether phrase occurs in text with no word character on either side."""
    return re.search(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)", text) is not None


def normalize_answer(raw: str, options: tuple[str, ...] | list[str] | None = None) -> str:
    """Canonicalize a free-text answer, optionally resolving it to an option.

    Lowercases, strips surrounding punctuation and leading articles, and maps
    the number words zero through ninety-nine ("twenty-one" or "twenty one")
    and a standalone "none" to digits. With options, an option
    matches when its cleaned form occurs in the cleaned reply on word
    boundaries ("10" does not match "1", "not" does not match "no"). One
    matching option is returned verbatim; among several, the one whose cleaned
    form contains all the others wins; otherwise the NO_MATCH sentinel.

    Each distinct (reply, options) pair is normalized once per process: a
    command meets the same few replies and references again and again.
    """
    return _normalize(raw, None if options is None else tuple(options))


@functools.cache
def _normalize(raw: str, options: tuple[str, ...] | None) -> str:
    cleaned = _clean(raw)
    if options is None:
        return cleaned
    matches = [
        (option, form)
        for option in options
        if (form := _clean(option)) and _contains_words(cleaned, form)
    ]
    best = [
        option
        for option, form in matches
        if all(_contains_words(form, other) for _, other in matches)
    ]
    return best[0] if len(best) == 1 else NO_MATCH


def build_augmented_prompt(
    instance: VqaInstance,
    mode: AnswerMode,
    schema: SchemaProgram | None = None,
    resolved: ResolvedSchema | None = None,
) -> list[Message]:
    """Assemble the message list for one instance under one mode.

    The final user message, which carries the image, holds one block per
    line, each mode extending the one before: the framing sentence (for
    grounded modes, `resolved.framing`), the schema text (`schema.text`) for
    all non-baseline modes, the question, and the option instruction if
    present. full_dsg prepends the text-only grounding transcript.
    """
    mode = AnswerMode(mode)
    if mode in GROUNDED_MODES:
        framing = resolved.framing
    else:
        framing = framing_sentence(instance.concept, {})
    blocks = [framing + "."]
    if mode is not AnswerMode.BASELINE:
        blocks.append(schema.text.rstrip("\n"))
    blocks.append(instance.question)
    if instance.options is not None:
        blocks.append("Answer with exactly one of: " + ", ".join(instance.options) + ".")
    final = Message("user", "\n".join(blocks), image=instance.image)
    if mode is AnswerMode.FULL_DSG:
        return [*resolved.transcript, final]
    return [final]


def answer(
    instance: VqaInstance,
    mode: AnswerMode,
    gateway: ModelGateway,
    schema: SchemaProgram | None = None,
    resolved: ResolvedSchema | None = None,
    run_index: int = 0,
    seed_hint: int = 0,
) -> Prediction:
    """Issue the prompt for one instance and normalize the reply."""
    messages = build_augmented_prompt(instance, mode, schema=schema, resolved=resolved)
    try:
        reply = gateway.chat(messages, seed_hint=seed_hint)
    except GatewayError as err:
        raise type(err)(f"while answering instance {instance.id!r}: {err}") from err
    return Prediction(
        instance_id=instance.id,
        mode=AnswerMode(mode),
        raw_text=reply,
        normalized=normalize_answer(reply, instance.options),
        run_index=run_index,
    )

"""Extraction loop: prompt building, reply scraping, retries, fallback."""

from __future__ import annotations

import logging

import pytest

from schemaground.dsl import parse_schema
from schemaground.errors import (
    ConceptMismatchError,
    ExtractionFailedError,
    FixtureMissError,
    SchemaError,
    TooManyComponentsError,
    UnknownConceptError,
)
from schemaground.extraction import (
    CATEGORIES,
    CONCEPT_CATEGORIES,
    build_extraction_prompt,
    extract_schema,
    load_canonical_schema,
)

from helpers import scripted_gateway

MAZE_TEXT = load_canonical_schema("maze").text

FIVE_COMPONENT_REPLY = """\
gen(concept=maze) =
    gen(a | concept=maze)
    gen(b | concept=maze)
    gen(c | concept=maze)
    gen(d | concept=maze)
    gen(e | concept=maze)
"""


def _happy_rules(concept="maze", reply=None):
    return [
        {
            "match": {"contains": f"Please do the same for gen(concept={concept})"},
            "reply": reply if reply is not None else MAZE_TEXT,
        }
    ]


def _record_requests(gateway):
    """The list that each request reaching the gateway's backend is appended to."""
    calls = []
    inner = gateway.backend.complete

    def recording(request):
        calls.append(request)
        return inner(request)

    gateway.backend.complete = recording
    return calls


# ------------------------------------------------------------------- prompt


def test_prompt_embeds_concept_and_keeps_exemplar():
    prompt = build_extraction_prompt("maze")
    assert prompt.count("gen(concept=maze)") == 1
    assert "[abstract-concept]" not in prompt
    assert "gen(concept=academia) =" in prompt
    assert "gen(research-output | concept=academia, faculty, students)" in prompt
    assert "four or less components" in prompt


def test_prompt_keeps_hyphenated_concepts_intact():
    prompt = build_extraction_prompt("setting-up-table-for-two")
    assert "gen(concept=setting-up-table-for-two)" in prompt


def test_prompt_rejects_empty_concept():
    with pytest.raises(ValueError):
        build_extraction_prompt("")


# --------------------------------------------------------- canonical store


def test_canonical_store_covers_twelve_concepts_four_categories():
    assert len(CONCEPT_CATEGORIES) == 12
    for category in CATEGORIES:
        members = [c for c, cat in CONCEPT_CATEGORIES.items() if cat == category]
        assert len(members) == 3


@pytest.mark.parametrize("concept", sorted(CONCEPT_CATEGORIES))
def test_canonical_schemas_parse_and_declare_their_concept(concept):
    program = load_canonical_schema(concept)
    assert program.concept == concept
    assert 1 <= len(program.nodes) <= 4


def test_unknown_concept_is_rejected():
    with pytest.raises(UnknownConceptError, match="atom-2"):
        load_canonical_schema("atom-2")


# ----------------------------------------------------------------- scraping


def test_scrape_drops_fences_and_leading_prose():
    reply = f"Sure, here you go:\n```\n{MAZE_TEXT}```\nHope this helps!"
    assert parse_schema(reply).text == MAZE_TEXT


def test_scrape_requires_a_header_line():
    with pytest.raises(SchemaError, match="no schema header"):
        parse_schema("I cannot produce a program for that.")


def test_scraped_block_with_trailing_prose_still_parses(toy_gateway):
    calls = _record_requests(toy_gateway)
    program = extract_schema("maze", toy_gateway)
    assert program.text == MAZE_TEXT
    assert len(calls) == 1


# ------------------------------------------------------------- extract loop


def test_extract_happy_path(tmp_path):
    gateway = scripted_gateway(_happy_rules())
    calls = _record_requests(gateway)
    program = extract_schema("maze", gateway)
    assert [node.id for node in program.nodes] == ["layout", "walls", "entry-exit"]
    assert len(calls) == 1


def test_extract_corrective_retry_repairs_bad_reply():
    rules = [
        {"match": {"contains": "That program is invalid"}, "reply": MAZE_TEXT},
        *_happy_rules(reply=FIVE_COMPONENT_REPLY),
    ]
    gateway = scripted_gateway(rules)
    calls = _record_requests(gateway)
    program = extract_schema("maze", gateway, max_retries=2)
    assert len(calls) == 2
    assert [m.role for m in calls[1].messages] == ["user", "assistant", "user"]
    assert program.text == MAZE_TEXT


def test_extract_exhausted_retries_without_fallback():
    gateway = scripted_gateway(_happy_rules(reply=FIVE_COMPONENT_REPLY))
    with pytest.raises(ExtractionFailedError) as info:
        extract_schema("maze", gateway, max_retries=0)
    assert info.value.concept == "maze"
    assert isinstance(info.value.reason, TooManyComponentsError)
    assert "TooManyComponentsError" in str(info.value)


def test_extract_garbage_reply_with_fallback_uses_canonical(tmp_path):
    gateway = scripted_gateway(_happy_rules(reply="no program here, sorry"))
    calls = _record_requests(gateway)
    program = extract_schema("maze", gateway, max_retries=0, fallback_to_canonical=True)
    assert len(calls) == 1
    assert program.text == MAZE_TEXT


# A fallback says so: one warning names the concept and the last reason,
# here a request that no fixture rule matches, which takes the path of a 401
# or of a 5xx after retries.
def test_a_fallback_to_the_canonical_schema_logs_one_warning(caplog):
    gateway = scripted_gateway([])
    with caplog.at_level(logging.WARNING, logger="schemaground"):
        program = extract_schema("maze", gateway, fallback_to_canonical=True)
    assert program.text == MAZE_TEXT
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.name == "schemaground.extraction"
    message = record.getMessage()
    assert "'maze'" in message
    assert "FixtureMissError: no fixture rule matches the request" in message


def test_extract_detects_concept_mismatch():
    atom_text = load_canonical_schema("atom").text
    gateway = scripted_gateway(_happy_rules(reply=atom_text))
    with pytest.raises(ExtractionFailedError) as info:
        extract_schema("maze", gateway, max_retries=0)
    assert isinstance(info.value.reason, ConceptMismatchError)


def test_extract_gateway_error_skips_corrective_retries():
    gateway = scripted_gateway(_happy_rules(concept="atom"))
    calls = _record_requests(gateway)
    with pytest.raises(ExtractionFailedError) as info:
        extract_schema("maze", gateway, max_retries=2)
    assert isinstance(info.value.reason, FixtureMissError)
    assert len(calls) == 1


def test_policy_rejects_negative_retries(toy_gateway):
    with pytest.raises(ValueError):
        extract_schema("maze", toy_gateway, max_retries=-1)

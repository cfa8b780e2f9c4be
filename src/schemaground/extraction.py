"""Schema extraction: obtain a validated SchemaProgram for a concept via a
chat backend, with corrective retries and a canonical fixture fallback.

The canonical store ships twelve `<concept>.schema` files as package data,
one per benchmark concept, grouped into four categories.
"""

from __future__ import annotations

import importlib.resources
import logging

from .dsl import SchemaProgram, parse_schema
from .errors import (
    ConceptMismatchError,
    ExtractionFailedError,
    GatewayError,
    SchemaError,
    UnknownConceptError,
)
from .gateway import Message, ModelGateway

log = logging.getLogger(__name__)

EXTRACTION_PROMPT = """\
Can you give me a program representing the schema for a concept? For example,
gen(concept=academia) =
    gen(faculty | concept=academia)
    gen(students | concept=academia)
    gen(research-output | concept=academia, faculty, students)
Please do the same for gen(concept=[abstract-concept]) in the same format without explanation. Keep the program simple with four or less components. Use only the most necessary parts of the schema that can be mapped to objects in an image."""

CONCEPT_CATEGORIES = {
    "tic-tac-toe": "strategic",
    "maze": "strategic",
    "treasure-map": "strategic",
    "solar-system": "scientific",
    "atom": "scientific",
    "cell": "scientific",
    "helping": "social",
    "deceiving": "social",
    "negotiating": "social",
    "setting-up-table-for-two": "domestic",
    "tidying-up-guest-room": "domestic",
    "putting-up-decorations-on-door": "domestic",
}

CATEGORIES = ("strategic", "scientific", "social", "domestic")


def build_extraction_prompt(concept: str) -> str:
    if not concept:
        raise ValueError("concept must be non-empty")
    return EXTRACTION_PROMPT.replace("[abstract-concept]", concept)


def load_canonical_schema(concept: str) -> SchemaProgram:
    """Load and parse the stored fixture for one of the 12 benchmark concepts."""
    if concept not in CONCEPT_CATEGORIES:
        raise UnknownConceptError(
            f"no canonical schema for {concept!r}; known concepts: "
            + ", ".join(CONCEPT_CATEGORIES)
        )
    resource = importlib.resources.files("schemaground").joinpath(
        "schemas", f"{concept}.schema"
    )
    return parse_schema(resource.read_text(encoding="utf-8"))


def extract_schema(
    concept: str,
    gateway: ModelGateway,
    max_retries: int = 2,
    fallback_to_canonical: bool = False,
    seed_hint: int = 0,
) -> SchemaProgram:
    """Ask the backend for a schema program and validate the reply.

    `parse_schema` reads the reply as it is: prose and code fences around
    the program are skipped.

    On a parse/validation failure the validator's message is appended as a
    corrective user turn and the exchange retried, up to max_retries extra
    rounds. Exhausted retries fall back to the canonical fixture, with a
    warning, when fallback_to_canonical is set, else raise ExtractionFailed
    carrying the last reason. Every request of the exchange carries seed_hint.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    messages: list[Message] = [Message("user", build_extraction_prompt(concept))]
    last_reason: Exception | None = None
    for _ in range(max_retries + 1):
        try:
            reply = gateway.chat(messages, seed_hint=seed_hint)
        except GatewayError as err:
            last_reason = err
            break
        try:
            program = parse_schema(reply)
            if program.concept != concept:
                raise ConceptMismatchError(
                    f"program declares concept {program.concept!r}, expected {concept!r}"
                )
            return program
        except SchemaError as err:
            last_reason = err
            messages.append(Message("assistant", reply))
            messages.append(
                Message(
                    "user",
                    f"That program is invalid: {err}. "
                    "Please reply with a corrected program in the same format.",
                )
            )
    if fallback_to_canonical:
        reason = f"{type(last_reason).__name__}: {last_reason}"
        log.warning("no valid schema for %r, using the canonical one: %s", concept, reason)
        return load_canonical_schema(concept)
    raise ExtractionFailedError(concept, last_reason)

"""Grounding engine: bind each schema component to a short description of
what realizes it in an image, querying a vision backend in dependency order.

Hierarchical grounding inlines already-resolved dependency descriptions into
each query; sequential grounding asks about every component in isolation.
The result is plain data: the descriptions in grounding order and the full
exchange as a transcript, whose query for the i-th component is
``transcript[2 * i]`` and whose reply is ``transcript[2 * i + 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import SchemaProgram, topological_order
from .errors import GatewayError
from .gateway import ImageRef, Message, ModelGateway, json_text
from .phrasing import copula, display_name, framing_sentence

MAX_DESCRIPTION_CHARS = 200

# Appended to the framing sentence, e.g. "Imagine that the image represents a
# maze, and the layout is rectangular. What are the entry and exit? Answer
# with a short phrase."
QUERY_ASK = ". What {copula} the {component}? Answer with a short phrase."


def build_grounding_query(concept: str, component_id: str, clauses: dict[str, str]) -> str:
    """Render the grounding question for one component. Its framing sentence
    holds one clause per (dependency id, description) item of clauses, in the
    dict's order."""
    ask = QUERY_ASK.format(copula=copula(component_id), component=display_name(component_id))
    return framing_sentence(concept, clauses) + ask


@dataclass(frozen=True)
class ResolvedSchema:
    """One schema grounded on one image.

    descriptions maps component id to its (truncated) description, in
    grounding order; transcript alternates each query with its full reply.
    """

    concept: str
    image_digest: str
    descriptions: dict[str, str]
    transcript: tuple[Message, ...]

    def to_json(self) -> str:
        payload = {
            "concept": self.concept,
            "image_digest": self.image_digest,
            "bindings": [
                {"component": component, "description": description}
                for component, description in self.descriptions.items()
            ],
            "transcript": [
                {"role": message.role, "text": message.text} for message in self.transcript
            ],
        }
        return json_text(payload)


def _ground(
    schema: SchemaProgram,
    image: ImageRef,
    gateway: ModelGateway,
    include_deps: bool,
    seed_hint: int | None,
) -> ResolvedSchema:
    descriptions: dict[str, str] = {}
    transcript: list[Message] = []
    for component_id in topological_order(schema):
        deps = schema.node(component_id).deps if include_deps else ()
        clauses = {dep: descriptions[dep] for dep in deps}
        query = Message(
            "user", build_grounding_query(schema.concept, component_id, clauses), images=(image,)
        )
        try:
            reply = gateway.chat([query], seed_hint=seed_hint)
        except GatewayError as err:
            raise type(err)(
                f"while grounding component {component_id!r}: {err}"
            ) from err
        transcript.append(query)
        transcript.append(Message("assistant", reply))
        descriptions[component_id] = reply.strip()[:MAX_DESCRIPTION_CHARS]
    return ResolvedSchema(
        concept=schema.concept,
        image_digest=image.digest(),
        descriptions=descriptions,
        transcript=tuple(transcript),
    )


def ground_hierarchical(
    schema: SchemaProgram,
    image: ImageRef,
    gateway: ModelGateway,
    seed_hint: int | None = None,
) -> ResolvedSchema:
    """Ground components in dependency order, conditioning each query on the
    descriptions already bound to its dependencies."""
    return _ground(schema, image, gateway, True, seed_hint)


def ground_sequential(
    schema: SchemaProgram,
    image: ImageRef,
    gateway: ModelGateway,
    seed_hint: int | None = None,
) -> ResolvedSchema:
    """Ground components in the same order but without dependency clauses:
    every component is queried in isolation."""
    return _ground(schema, image, gateway, False, seed_hint)


"""Grounding engine: bind each schema component to a short description of
what realizes it in an image, querying a vision backend in dependency order.

Hierarchical grounding inlines already-resolved ancestor descriptions into
each query; sequential grounding asks about every component in isolation.
Either way the full exchange is kept as a transcript for downstream prompts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .dsl import ComponentNode, SchemaProgram, topological_order
from .errors import GatewayError, MissingDependencyBindingError
from .gateway import ImageRef, Message, ModelGateway
from .phrasing import concept_phrase, copula, display_name

MAX_DESCRIPTION_CHARS = 200


# The rendered query is `QUERY_INTRO + QUERY_DEP_CLAUSE*|deps| + QUERY_ASK`,
# e.g. "Imagine that the image represents a maze, and the layout is
# rectangular. What are the entry and exit? Answer with a short phrase."
QUERY_INTRO = "Imagine that the image represents {concept_phrase}"
QUERY_DEP_CLAUSE = ", and the {dep} {copula} {description}"
QUERY_ASK = ". What {copula} the {component}? Answer with a short phrase."


def build_grounding_query(
    concept: str,
    node: ComponentNode,
    resolved_deps: dict[str, str],
) -> str:
    """Render the grounding question for one component.

    Dependency clauses appear in node.deps order; resolved_deps must bind
    exactly those dependencies.
    """
    missing = [dep for dep in node.deps if dep not in resolved_deps]
    if missing:
        raise MissingDependencyBindingError(
            f"component {node.id!r} needs bindings for: " + ", ".join(missing)
        )
    extra = sorted(set(resolved_deps) - set(node.deps))
    if extra:
        raise MissingDependencyBindingError(
            f"component {node.id!r} got bindings for non-dependencies: " + ", ".join(extra)
        )
    parts = [QUERY_INTRO.format(concept_phrase=concept_phrase(concept))]
    for dep in node.deps:
        parts.append(
            QUERY_DEP_CLAUSE.format(
                dep=display_name(dep),
                copula=copula(dep),
                description=resolved_deps[dep],
            )
        )
    parts.append(QUERY_ASK.format(copula=copula(node.id), component=display_name(node.id)))
    return "".join(parts)


@dataclass(frozen=True)
class GroundingResult:
    component: str
    description: str
    query_text: str
    transcript_span: tuple[int, int]

    def __post_init__(self):
        if not self.description:
            raise ValueError("description must be non-empty")


@dataclass(frozen=True)
class ResolvedSchema:
    concept: str
    image_digest: str
    bindings: dict[str, GroundingResult]
    transcript: tuple[Message, ...]
    image: ImageRef | None = None

    def descriptions(self) -> dict[str, str]:
        return {cid: result.description for cid, result in self.bindings.items()}

    def to_json(self) -> str:
        payload = {
            "concept": self.concept,
            "image_digest": self.image_digest,
            "bindings": [
                {"component": result.component, "description": result.description}
                for result in self.bindings.values()
            ],
            "transcript": [
                {"role": message.role, "text": message.text} for message in self.transcript
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str, image: ImageRef | None = None) -> ResolvedSchema:
        payload = json.loads(text)
        if image is not None and image.digest() != payload["image_digest"]:
            raise ValueError(
                "image digest mismatch: resolved schema was grounded on a different image"
            )
        transcript = tuple(
            Message(role=entry["role"], text=entry["text"]) for entry in payload["transcript"]
        )
        bindings: dict[str, GroundingResult] = {}
        for index, entry in enumerate(payload["bindings"]):
            span = (2 * index, 2 * index + 2)
            bindings[entry["component"]] = GroundingResult(
                component=entry["component"],
                description=entry["description"],
                query_text=transcript[span[0]].text,
                transcript_span=span,
            )
        return cls(
            concept=payload["concept"],
            image_digest=payload["image_digest"],
            bindings=bindings,
            transcript=transcript,
            image=image,
        )


def _ground(
    schema: SchemaProgram,
    image: ImageRef,
    gateway: ModelGateway,
    include_deps: bool,
    seed_hint: int | None,
) -> ResolvedSchema:
    order = topological_order(schema)
    bindings: dict[str, GroundingResult] = {}
    transcript: list[Message] = []
    for component_id in order:
        node = schema.node(component_id)
        if include_deps:
            resolved = {dep: bindings[dep].description for dep in node.deps}
        else:
            node = dataclasses.replace(node, deps=())
            resolved = {}
        query_text = build_grounding_query(schema.concept, node, resolved)
        query = Message("user", query_text, images=(image,))
        try:
            response = gateway.chat([query], seed_hint=seed_hint)
        except GatewayError as err:
            raise type(err)(
                f"while grounding component {component_id!r}: {err}"
            ) from err
        description = response.text.strip()[:MAX_DESCRIPTION_CHARS]
        span = (len(transcript), len(transcript) + 2)
        transcript.append(query)
        transcript.append(Message("assistant", response.text))
        bindings[component_id] = GroundingResult(
            component=component_id,
            description=description,
            query_text=query_text,
            transcript_span=span,
        )
    return ResolvedSchema(
        concept=schema.concept,
        image_digest=image.digest(),
        bindings=bindings,
        transcript=tuple(transcript),
        image=image,
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


def load_resolved_schema(path: str | Path, image: ImageRef | None = None) -> ResolvedSchema:
    return ResolvedSchema.from_json(Path(path).read_text(encoding="utf-8"), image=image)

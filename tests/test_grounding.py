"""Grounding engine: query rendering, dependency conditioning, transcripts."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given

from schemaground.dsl import ComponentNode, SchemaProgram
from schemaground.errors import FixtureMissError
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import ImageRef, ModelGateway
from schemaground.grounding import build_grounding_query, ground_hierarchical, ground_sequential
from schemaground.toydata import TOY_BINDINGS, TOY_SEQUENTIAL_DRIFT

from helpers import (
    EchoBackend,
    echo_reply,
    fixture_grounding_rules,
    program_specs,
    scripted_gateway,
)

MAZE = load_canonical_schema("maze")
ATOM = load_canonical_schema("atom")
CELL = load_canonical_schema("cell")

LAYOUT_QUERY = (
    "Imagine that the image represents a maze. "
    "What is the layout? Answer with a short phrase."
)


def _maze_image(toy):
    return ImageRef.from_file(toy.image_paths["maze"])


# ------------------------------------------------------------ query wording


def test_query_for_dependency_free_component():
    assert build_grounding_query("maze", "layout", {}) == LAYOUT_QUERY


def test_query_inlines_dependency_description():
    text = build_grounding_query("maze", "entry-exit", {"layout": "rectangular"})
    assert text == (
        "Imagine that the image represents a maze, and the layout is rectangular. "
        "What are the entry and exit? Answer with a short phrase."
    )


def test_query_orders_dependency_clauses_by_declaration(tiny_image):
    # energy-levels lists its dependencies as (nucleus, electrons).
    gateway = scripted_gateway(fixture_grounding_rules())
    text = ground_hierarchical(ATOM, tiny_image, gateway).transcript[4].text
    first = text.index(", and the nucleus is atom--nucleus--essence")
    second = text.index(", and the electrons are atom--electrons--essence")
    assert first < second
    assert text.endswith("What are the energy levels? Answer with a short phrase.")


# ------------------------------------------------------- hierarchical pass


def test_hierarchical_grounding_binds_dependent_components(toy, toy_gateway):
    resolved = ground_hierarchical(MAZE, _maze_image(toy), toy_gateway)
    assert resolved.descriptions == TOY_BINDINGS["maze"]
    assert resolved.concept == "maze"
    assert resolved.image_digest == _maze_image(toy).digest()


# The transcript records each query as text; the request that carried it
# to the gateway also carried the image.
def test_hierarchical_transcript_shape(toy, toy_gateway):
    image = _maze_image(toy)
    sent = []
    chat = toy_gateway.chat

    def recorded(messages, **kwargs):
        sent.append(messages)
        return chat(messages, **kwargs)

    toy_gateway.chat = recorded
    resolved = ground_hierarchical(MAZE, image, toy_gateway)
    assert len(resolved.transcript) == 2 * len(MAZE.nodes)
    for index, message in enumerate(resolved.transcript):
        assert message.image is None
        assert message.role == ("user" if index % 2 == 0 else "assistant")
    assert sent == [
        [dataclasses.replace(query, image=image)] for query in resolved.transcript[::2]
    ]
    queries = [message.text for message in resolved.transcript[::2]]
    assert len(queries) == len(resolved.descriptions)
    for component, query in zip(resolved.descriptions, queries):
        assert component.split("-")[0] in query.replace("-", " ")


def test_grounding_requests_are_single_turn(toy, toy_gateway):
    seen = []
    inner = toy_gateway.backend.complete

    def recorder(request):
        seen.append(request)
        return inner(request)

    toy_gateway.backend.complete = recorder
    ground_hierarchical(MAZE, _maze_image(toy), toy_gateway)
    assert len(seen) == 3
    assert all(len(request.messages) == 1 for request in seen)
    assert all(request.messages[0].role == "user" for request in seen)


# --------------------------------------------------------- sequential pass


def test_sequential_grounding_drops_dependency_clauses(toy, toy_gateway):
    resolved = ground_sequential(MAZE, _maze_image(toy), toy_gateway)
    for query in resolved.transcript[::2]:
        assert ", and the" not in query.text
    drifted = TOY_SEQUENTIAL_DRIFT[("maze", "entry-exit")]
    assert resolved.descriptions == {
        "layout": TOY_BINDINGS["maze"]["layout"],
        "walls": TOY_BINDINGS["maze"]["walls"],
        "entry-exit": drifted,
    }


def test_modes_agree_on_dependency_free_schema(toy, toy_gateway):
    image = ImageRef.from_file(toy.image_paths["cell"])
    hier = ground_hierarchical(CELL, image, toy_gateway)
    seq = ground_sequential(CELL, image, toy_gateway)
    assert hier.descriptions == seq.descriptions == TOY_BINDINGS["cell"]
    assert [m.text for m in hier.transcript] == [m.text for m in seq.transcript]


# ------------------------------------------------------------- persistence


def test_resolved_schema_json_roundtrip(toy, toy_gateway):
    image = _maze_image(toy)
    resolved = ground_hierarchical(MAZE, image, toy_gateway)
    text = resolved.to_json()
    assert text.endswith("}\n")
    payload = json.loads(text)
    assert sorted(payload) == ["bindings", "concept", "image_digest", "transcript"]
    assert payload["concept"] == resolved.concept == "maze"
    assert payload["image_digest"] == resolved.image_digest == image.digest()
    assert payload["bindings"] == [
        {"component": component, "description": description}
        for component, description in resolved.descriptions.items()
    ]
    assert payload["transcript"] == [
        {"role": m.role, "text": m.text} for m in resolved.transcript
    ]
    assert text == json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ------------------------------------------------------------ edge behavior


def test_gateway_errors_carry_component_context(toy):
    gateway = scripted_gateway(
        [{"match": {"equals": LAYOUT_QUERY}, "reply": "rectangular"}]
    )
    with pytest.raises(FixtureMissError, match="while grounding component 'walls'"):
        ground_hierarchical(MAZE, _maze_image(toy), gateway)


def test_long_reply_truncated_in_binding_but_kept_in_transcript(toy):
    long_reply = "x" * 300
    layout_only = dataclasses.replace(MAZE, nodes=MAZE.nodes[:1])
    gateway = scripted_gateway(
        [{"match": {"equals": LAYOUT_QUERY}, "reply": long_reply}]
    )
    resolved = ground_hierarchical(layout_only, _maze_image(toy), gateway)
    assert resolved.descriptions["layout"] == "x" * 200
    assert resolved.transcript[1].text == long_reply


# ------------------------------------------------------- generated schemas


def _walk(ground, schema, image):
    """Ground `schema` through a fresh echo gateway; the resolved schema and
    the number of gateway calls the walk made."""
    gateway = ModelGateway(EchoBackend())
    calls = []
    chat = gateway.chat

    def counted(messages, **kwargs):
        calls.append(messages)
        return chat(messages, **kwargs)

    gateway.chat = counted
    return ground(schema, image, gateway), len(calls)


@given(program_specs())
def test_each_hierarchical_query_holds_exactly_its_dependencies_replies(tiny_image, spec):
    concept, specs = spec
    schema = SchemaProgram(
        concept, tuple(ComponentNode(cid, concept, tuple(deps)) for cid, deps in specs)
    )
    hier, hier_calls = _walk(ground_hierarchical, schema, tiny_image)
    seq, seq_calls = _walk(ground_sequential, schema, tiny_image)
    n = len(specs)
    assert hier_calls == seq_calls == n
    assert len(hier.transcript) == len(seq.transcript) == 2 * n

    queries = [message.text for message in hier.transcript[::2]]
    replies = dict(zip((cid for cid, _ in specs), (m.text for m in hier.transcript[1::2])))
    assert list(replies.values()) == [echo_reply(query) for query in queries]
    for query, (_, deps) in zip(queries, specs):
        assert [query.count(replies[dep]) for dep in deps] == [1] * len(deps)
        positions = [query.index(replies[dep]) for dep in deps]
        assert positions == sorted(positions)
        others = replies.keys() - set(deps)
        assert not any(replies[other] in query for other in others)

    every_reply = [m.text for m in seq.transcript[1::2]] + list(replies.values())
    for query in seq.transcript[::2]:
        assert not any(reply in query.text for reply in every_reply)

    if not any(deps for _, deps in specs):
        assert hier.descriptions == seq.descriptions

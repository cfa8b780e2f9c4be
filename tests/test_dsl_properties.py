"""Property-based checks: random valid programs against independent oracles."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_topological_order, program_specs, random_program_source
from schemaground.dsl import ComponentNode, SchemaProgram, parse_schema, topological_order
from schemaground.errors import SchemaError

pad = st.text(alphabet=" ", max_size=2)


@st.composite
def program_sources(draw):
    concept, nodes = draw(program_specs())

    def gap() -> str:
        return draw(pad)

    lines = [f"{gap()}gen{gap()}({gap()}concept{gap()}={gap()}{concept}{gap()}){gap()}={gap()}"]
    for component_id, deps in nodes:
        tail = "".join(f",{gap()}{dep}{gap()}" for dep in deps)
        lines.append(
            f"{gap()}gen{gap()}({gap()}{component_id}{gap()}|{gap()}"
            f"concept{gap()}={gap()}{concept}{tail})"
        )
    return "\n".join(lines) + "\n", concept, nodes


@given(program_sources())
def test_parse_recovers_structure(case):
    source, concept, nodes = case
    program = parse_schema(source)
    assert program.concept == concept
    assert [(node.id, list(node.deps)) for node in program.nodes] == nodes


@given(program_sources())
def test_topological_order_laws(case):
    source, _, _ = case
    program = parse_schema(source)
    order = topological_order(program)
    position = {component_id: index for index, component_id in enumerate(order)}
    for node in program.nodes:
        for dep in node.deps:
            assert position[dep] < position[node.id]
    assert order == brute_force_topological_order(program)
    # Dependencies are always declared first, so the minimal order by
    # declaration index is the declaration order itself.
    assert order == [node.id for node in program.nodes]


@given(program_sources())
def test_render_parse_roundtrip(case):
    source, _, _ = case
    program = parse_schema(source)
    rendered = program.text
    assert parse_schema(rendered) == program
    assert parse_schema(rendered).text == rendered


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_generator_agrees_with_oracles(seed):
    source, concept, nodes = random_program_source(random.Random(seed))
    program = parse_schema(source)
    assert program.concept == concept
    assert [(node.id, list(node.deps)) for node in program.nodes] == nodes
    assert topological_order(program) == brute_force_topological_order(program)


@given(program_specs())
def test_the_text_of_a_built_program_parses_back_to_it(spec):
    concept, nodes = spec
    program = SchemaProgram(
        concept, tuple(ComponentNode(component, concept, tuple(deps)) for component, deps in nodes)
    )
    assert parse_schema(program.text) == program


# Programs from `program_specs` with about one name in eight, concept, id or
# dependency, replaced by a string of a few identifier characters and a few
# that no identifier holds: each either cannot be built, with a SchemaError,
# or its text parses back to it.
@st.composite
def _mutated_programs(draw):
    def name(value: str) -> str:
        if draw(st.integers(0, 7)):
            return value
        return draw(st.text(alphabet="ab-A |\n", max_size=3))

    concept, nodes = draw(program_specs())
    return name(concept), [
        (name(component), name(concept), tuple(map(name, deps))) for component, deps in nodes
    ]


@settings(max_examples=300)
@given(_mutated_programs())
def test_every_program_that_can_be_built_parses_back_from_its_text(spec):
    concept, nodes = spec
    try:
        program = SchemaProgram(concept, tuple(ComponentNode(*node) for node in nodes))
    except SchemaError:
        return
    assert parse_schema(program.text) == program

"""Parser, validator, ordering, and rendering contracts for the schema DSL."""

from __future__ import annotations

import importlib.resources

import pytest

from schemaground.dsl import (
    ComponentNode,
    SchemaProgram,
    parse_schema,
    topological_order,
)
from schemaground.errors import (
    ConceptMismatchError,
    DuplicateComponentError,
    SchemaError,
    SchemaSyntaxError,
    TooManyComponentsError,
    UnknownDependencyError,
    exit_code_for,
)
from schemaground.extraction import CONCEPT_CATEGORIES, load_canonical_schema

# Expected structure of every stored fixture: component id -> dependency ids.
EXPECTED_STRUCTURES = {
    "tic-tac-toe": [("board", ()), ("symbols", ()), ("strategy", ("symbols",))],
    "maze": [("layout", ()), ("walls", ()), ("entry-exit", ("layout",))],
    "treasure-map": [("map", ()), ("x-marks-the-spot", ()), ("path", ("map",))],
    "solar-system": [("sun", ()), ("planets", ()), ("orbits", ("sun", "planets"))],
    "atom": [("nucleus", ()), ("electrons", ()), ("energy-levels", ("nucleus", "electrons"))],
    "cell": [("membrane", ()), ("nucleus", ()), ("organelles", ())],
    "helping": [("helper", ()), ("recipient", ()), ("task", ("helper", "recipient"))],
    "deceiving": [
        ("deceiver", ()),
        ("victim", ()),
        ("deceptive-object", ("deceiver", "victim")),
    ],
    "negotiating": [("participants", ()), ("setting", ()), ("objects", ("participants",))],
    "setting-up-table-for-two": [
        ("table", ()),
        ("two-chairs", ()),
        ("table-setting", ("table",)),
    ],
    "tidying-up-guest-room": [("bed", ()), ("storage", ()), ("cleanliness", ("bed", "storage"))],
    "putting-up-decorations-on-door": [
        ("decoration-type", ()),
        ("door-type", ()),
        ("tools", ("decoration-type",)),
    ],
}


@pytest.mark.parametrize("concept", sorted(EXPECTED_STRUCTURES))
def test_fixture_structure(concept):
    program = load_canonical_schema(concept)
    assert program.concept == concept
    assert [(node.id, node.deps) for node in program.nodes] == EXPECTED_STRUCTURES[concept]
    assert all(node.concept == concept for node in program.nodes)
    assert len(program.nodes) <= 4


def test_fixture_set_is_exactly_the_twelve():
    assert sorted(CONCEPT_CATEGORIES) == sorted(EXPECTED_STRUCTURES)


@pytest.mark.parametrize("concept", sorted(EXPECTED_STRUCTURES))
def test_fixture_roundtrip_and_canonical_bytes(concept):
    program = load_canonical_schema(concept)
    rendered = program.text
    assert parse_schema(rendered) == program
    stored = (
        importlib.resources.files("schemaground")
        .joinpath("schemas", f"{concept}.schema")
        .read_text(encoding="utf-8")
    )
    assert rendered == stored


def test_topological_order_matches_declaration_order_for_fixtures():
    for concept in CONCEPT_CATEGORIES:
        program = load_canonical_schema(concept)
        assert topological_order(program) == _ids(program)


def _ids(program: SchemaProgram) -> list[str]:
    return [node.id for node in program.nodes]


def test_topological_order_on_out_of_order_declarations():
    # A program that declares a dependency after its dependent cannot be
    # built by hand either: it is refused as parsing refuses it, not reordered.
    with pytest.raises(UnknownDependencyError, match="'b', which is not declared earlier"):
        SchemaProgram(
            concept="x",
            nodes=(
                ComponentNode("a", "x", ("b",)),
                ComponentNode("b", "x", ()),
            ),
        )


def test_topological_order_tie_break_prefers_declaration_index():
    program = parse_schema(
        "gen(concept=x) =\n"
        "    gen(c | concept=x)\n"
        "    gen(b | concept=x)\n"
        "    gen(a | concept=x, c)\n"
    )
    assert topological_order(program) == ["c", "b", "a"]


WHITESPACE_VARIANT = (
    "gen ( concept = maze )  =\n"
    "  gen( layout|concept =maze )\n"
    "\tgen(walls | concept=maze)\n"
    "gen(entry-exit|concept=maze ,layout)\n"
)


def test_whitespace_insensitive_within_lines():
    program = parse_schema(WHITESPACE_VARIANT)
    assert program == load_canonical_schema("maze")


def test_prose_around_block_is_tolerated():
    text = (
        "Sure! Here is the schema you asked for.\n"
        "\n"
        "gen(concept=maze) =\n"
        "    gen(layout | concept=maze)\n"
        "    gen(walls | concept=maze)\n"
        "Let me know if you need anything else.\n"
    )
    program = parse_schema(text)
    assert _ids(program) == ["layout", "walls"]


def test_blank_line_ends_the_block():
    text = (
        "gen(concept=maze) =\n"
        "    gen(layout | concept=maze)\n"
        "\n"
        "    gen(walls | concept=maze)\n"
    )
    program = parse_schema(text)
    assert _ids(program) == ["layout"]


def test_blank_lines_before_first_component_are_skipped():
    text = "gen(concept=maze) =\n\n\n    gen(layout | concept=maze)\n"
    assert _ids(parse_schema(text)) == ["layout"]


FIVE_COMPONENT_PROGRAM = "gen(concept=x) =\n" + "".join(
    f"    gen(c{i} | concept=x)\n" for i in range(5)
)

ERROR_CASES = [
    (
        "gen(concept=x) =\n    gen(a | concept=x, b)\n    gen(b | concept=x)\n",
        UnknownDependencyError,
        "not declared earlier",
    ),
    (
        "gen(concept=x) =\n    gen(a | concept=x, a)\n",
        UnknownDependencyError,
        "not declared earlier",
    ),
    (
        "gen(concept=x) =\n    gen(a | concept=x)\n    gen(a | concept=x)\n",
        DuplicateComponentError,
        "declared twice",
    ),
    (
        "gen(concept=x) =\n    gen(a | concept=x)\n    gen(b | concept=x, a, a)\n",
        DuplicateComponentError,
        "twice",
    ),
    (
        "gen(concept=x) =\n    gen(a | concept=y)\n",
        ConceptMismatchError,
        "expected 'x'",
    ),
    (FIVE_COMPONENT_PROGRAM, TooManyComponentsError, "at most 4"),
    ("no program here at all\n", SchemaSyntaxError, "no schema header"),
    ("gen(concept=x) =\nsome prose instead of a component\n", SchemaSyntaxError, "component line"),
    ("gen(concept=x) =\n", SchemaSyntaxError, "no components"),
    ("gen(concept=Maze) =\n    gen(a | concept=Maze)\n", SchemaSyntaxError, ""),
    ("gen(concept=ma--ze) =\n    gen(a | concept=ma--ze)\n", SchemaSyntaxError, "kebab-case"),
    ("gen(concept=maze)\n    gen(a | concept=maze)\n", SchemaSyntaxError, "expected '='"),
    (
        "gen(concept=maze) =\n    gen(a | concept=maze) junk\n",
        SchemaSyntaxError,
        "unexpected trailing",
    ),
    ("gen(concept=maze) =\n    gen(a concept=maze)\n", SchemaSyntaxError, "expected '|'"),
]


@pytest.mark.parametrize("source,error,fragment", ERROR_CASES)
def test_parse_errors(source, error, fragment):
    with pytest.raises(error) as excinfo:
        parse_schema(source)
    assert fragment in str(excinfo.value)


def test_syntax_error_carries_line_and_column():
    source = "gen(concept=maze) =\n    gen(layout | concept=maze)\n    gen(walls | maze)\n"
    with pytest.raises(SchemaSyntaxError) as excinfo:
        parse_schema(source)
    err = excinfo.value
    assert err.line == 3
    assert err.column is not None and err.column > 1
    assert f"line 3, column {err.column}:" in str(err)


# A line that ends where a name is due points just past its last character.
def test_a_header_cut_short_before_its_name_points_at_the_line_end():
    with pytest.raises(SchemaSyntaxError) as excinfo:
        parse_schema("gen(concept=")
    err = excinfo.value
    assert (err.line, err.column) == (1, len("gen(concept=") + 1)
    assert "expected concept name" in str(err)


def test_independent_acyclicity_check():
    # A handcrafted cycle cannot be built: its first node depends on one
    # declared later.
    with pytest.raises(UnknownDependencyError):
        SchemaProgram(
            concept="x",
            nodes=(
                ComponentNode("a", "x", ("b",)),
                ComponentNode("b", "x", ("a",)),
            ),
        )


# A program that breaks one rule, as text and as the nodes that text declares.
BROKEN_PROGRAMS = {
    "forward dependency": ("x", [("a", "x", ("b",)), ("b", "x", ())]),
    "cycle": ("x", [("a", "x", ("b",)), ("b", "x", ("a",))]),
    "repeated id": ("x", [("a", "x", ()), ("a", "x", ())]),
    "foreign concept": ("x", [("a", "x", ()), ("b", "y", ("a",))]),
    "repeated dependency": ("x", [("a", "x", ()), ("b", "x", ("a", "a"))]),
    "five components": ("x", [(f"c{i}", "x", ()) for i in range(5)]),
}


@pytest.mark.parametrize("rule", sorted(BROKEN_PROGRAMS))
def test_building_a_broken_program_raises_what_parsing_its_text_raises(rule):
    concept, nodes = BROKEN_PROGRAMS[rule]
    text = f"gen(concept={concept}) =\n" + "".join(
        f"    gen({component} | concept={node_concept}{''.join(', ' + dep for dep in deps)})\n"
        for component, node_concept, deps in nodes
    )
    with pytest.raises(SchemaError) as parsed:
        parse_schema(text)
    with pytest.raises(SchemaError) as built:
        SchemaProgram(concept, tuple(ComponentNode(*node) for node in nodes))
    assert type(built.value) is type(parsed.value)
    assert str(built.value) == str(parsed.value)


# What the reader says about each kind of malformed text, in full: `extract`
# sends this text back to the model on a corrective retry. Each row is
# (source, str(err), err.line, err.column).
SYNTAX_MESSAGES = [
    (
        "gen(concept=Maze) =\n    gen(a | concept=Maze)\n",
        "line 1, column 13: unexpected character 'M'",
        1,
        13,
    ),
    (
        "gen(concept=maze) =\n    gen(entry—exit | concept=maze)\n",
        "line 2, column 14: unexpected character '—'",
        2,
        14,
    ),
    # A character the grammar has no token for is reported before an earlier
    # grammar error on its line.
    (
        "gen(concept=maze) =\n    gen(a concept=maze) .\n",
        "line 2, column 25: unexpected character '.'",
        2,
        25,
    ),
    (
        "gen(concept=maze) =\n    gen(a concept=maze)\n",
        "line 2, column 11: expected '|', found 'concept'",
        2,
        11,
    ),
    ("gen(concept=maze)\n    gen(a | concept=maze)\n", "line 1, column 18: expected '='", 1, 18),
    ("gen(concept=maze) =\n    gen(a | concept=maze\n", "line 2, column 25: expected ')'", 2, 25),
    ("gen(concept=maze) =\n    gen(\n", "line 2, column 9: expected component id", 2, 9),
    (
        "gen(concept=maze) =\n    gen(ma--ze | concept=maze)\n",
        "line 2, column 9: expected component id (lowercase kebab-case), found 'ma--ze'",
        2,
        9,
    ),
    ("gen(concept=", "line 1, column 13: expected concept name", 1, 13),
    (
        "gen(concept=maze) =\n    gen(a | concept=\n",
        "line 2, column 21: expected concept name",
        2,
        21,
    ),
    (
        "gen(concept=ma--ze) =\n    gen(a | concept=ma--ze)\n",
        "line 1, column 13: expected concept name (lowercase kebab-case), found 'ma--ze'",
        1,
        13,
    ),
    (
        "gen(concept=maze) =\n    gen(a | concept=maze)\n    gen(b | concept=maze,\n",
        "line 3, column 26: expected dependency id",
        3,
        26,
    ),
    (
        "gen(concept=maze) =\n    gen(a | concept=maze)\n    gen(b | concept=maze, 1a)\n",
        "line 3, column 27: expected dependency id (lowercase kebab-case), found '1a'",
        3,
        27,
    ),
    (
        "gen(concept=maze) =\n    gen(a | concept=maze) junk\n",
        "line 2, column 27: unexpected trailing 'junk'",
        2,
        27,
    ),
    ("no program here at all\n", "line 1, column 1: no schema header found", 1, 1),
    ("", "line 1, column 1: no schema header found", 1, 1),
    (
        "gen(concept=x) =\nsome prose instead of a component\n",
        "line 2, column 1: expected a component line after the header",
        2,
        1,
    ),
    ("gen(concept=x) =\n", "line 2, column 1: program declares no components", 2, 1),
    (
        "Here it is:\ngen(concept=x) =\n\n",
        "line 3, column 1: program declares no components",
        3,
        1,
    ),
]


@pytest.mark.parametrize("source,message,line,column", SYNTAX_MESSAGES)
def test_syntax_error_text_line_and_column(source, message, line, column):
    with pytest.raises(SchemaSyntaxError) as excinfo:
        parse_schema(source)
    err = excinfo.value
    assert (str(err), err.line, err.column) == (message, line, column)


# What no text can declare cannot be built either: a concept or component
# id that is not a lowercase kebab-case identifier, or no component at all,
# is the syntax error (exit 10) that such a text raises when parsed.
@pytest.mark.parametrize(
    "concept, ids, message",
    [
        ("x", [], "program declares no components"),
        ("Maze", ["a"], "'Maze' is not a lowercase kebab-case identifier"),
        ("../x", ["a"], "'../x' is not a lowercase kebab-case identifier"),
        ("x", ["a", "Big Id"], "'Big Id' is not a lowercase kebab-case identifier"),
        ("x", ["a-"], "'a-' is not a lowercase kebab-case identifier"),
        ("x", ["a\n"], "'a\\n' is not a lowercase kebab-case identifier"),
        ("", ["a"], "'' is not a lowercase kebab-case identifier"),
    ],
)
def test_a_program_its_text_cannot_declare_is_refused(concept, ids, message):
    nodes = tuple(ComponentNode(component, concept) for component in ids)
    with pytest.raises(SchemaSyntaxError) as built:
        SchemaProgram(concept, nodes)
    assert str(built.value) == message
    assert exit_code_for(built.value) == 10

"""The schema mini-language: parsing, validation, ordering, and rendering.

A schema program decomposes one abstract concept into at most four component
concepts with explicit dependencies, e.g.::

    gen(concept=maze) =
        gen(layout | concept=maze)
        gen(walls | concept=maze)
        gen(entry-exit | concept=maze, layout)

The dependency lists define a DAG over the components; dependencies must be
declared before the components that use them, which rules out cycles by
construction and makes declaration order a topological order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ConceptMismatchError,
    DuplicateComponentError,
    SchemaSyntaxError,
    TooManyComponentsError,
    UnknownDependencyError,
)

MAX_COMPONENTS = 4

# Component and concept identifiers: lowercase kebab-case.
IDENT_RE = re.compile(r"[a-z][a-z0-9]*(?:-[a-z0-9]+)*\Z")

# A line that opens with `gen(` (modulo whitespace) belongs to the program
# block; anything else around the block is tolerated as prose.
_GEN_LINE_RE = re.compile(r"\s*gen\s*\(")

_TOKEN_RE = re.compile(r"[a-z0-9-]+|[()|,=]|\S")


@dataclass(frozen=True)
class ComponentNode:
    """One component declaration: its id, concept, and dependency ids."""

    id: str
    concept: str
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchemaProgram:
    """A parsed schema: the concept plus its components in declaration order."""

    concept: str
    nodes: tuple[ComponentNode, ...]

    @cached_property
    def text(self) -> str:
        """What render_schema gives, rendered on first use and kept."""
        return render_schema(self)

    def node(self, component_id: str) -> ComponentNode:
        for node in self.nodes:
            if node.id == component_id:
                return node
        raise KeyError(component_id)


@dataclass(frozen=True)
class _Token:
    value: str
    column: int  # 1-based


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(line):
        value = match.group(0)
        col = match.start() + 1
        if value not in "()|,=" and not re.fullmatch(r"[a-z0-9-]+", value):
            raise SchemaSyntaxError(f"unexpected character {value!r}", lineno, col)
        tokens.append(_Token(value, col))
    return tokens


class _LineParser:
    """Parses a single program line from its token stream."""

    def __init__(self, line: str, lineno: int):
        self.tokens = _tokenize(line, lineno)
        self.lineno = lineno
        self.pos = 0
        self.end_column = len(line) + 1

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str) -> _Token:
        token = self.peek()
        if token is None:
            raise SchemaSyntaxError(f"expected {expected!r}", self.lineno, self.end_column)
        if token.value != expected:
            raise SchemaSyntaxError(
                f"expected {expected!r}, found {token.value!r}", self.lineno, token.column
            )
        self.pos += 1
        return token

    def take_ident(self, what: str) -> str:
        token = self.peek()
        if token is None:
            raise SchemaSyntaxError(f"expected {what}", self.lineno, self.end_column)
        if not IDENT_RE.match(token.value):
            raise SchemaSyntaxError(
                f"expected {what} (lowercase kebab-case), found {token.value!r}",
                self.lineno,
                token.column,
            )
        self.pos += 1
        return token.value

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise SchemaSyntaxError(
                f"unexpected trailing {token.value!r}", self.lineno, token.column
            )


def _parse_header(line: str, lineno: int) -> str:
    parser = _LineParser(line, lineno)
    parser.take("gen")
    parser.take("(")
    parser.take("concept")
    parser.take("=")
    concept = parser.take_ident("concept name")
    parser.take(")")
    parser.take("=")
    parser.expect_end()
    return concept


def _parse_node(line: str, lineno: int) -> tuple[str, str, tuple[str, ...]]:
    parser = _LineParser(line, lineno)
    parser.take("gen")
    parser.take("(")
    component = parser.take_ident("component id")
    parser.take("|")
    parser.take("concept")
    parser.take("=")
    concept = parser.take_ident("concept name")
    deps = []
    while parser.peek() is not None and parser.peek().value == ",":
        parser.take(",")
        deps.append(parser.take_ident("dependency id"))
    parser.take(")")
    parser.expect_end()
    return component, concept, tuple(deps)


def parse_schema(text: str) -> SchemaProgram:
    """Parse one schema program out of ``text`` and validate it.

    Prose lines before the header and after the last component line are
    tolerated; everything inside the block must conform to the grammar.

    Raises:
        SchemaSyntaxError: malformed token/structure, with line and column.
        UnknownDependencyError, DuplicateComponentError, ConceptMismatchError,
        TooManyComponentsError: semantic violations (see validate_program).
    """
    lines = text.splitlines()
    header_index = None
    for index, line in enumerate(lines):
        if _GEN_LINE_RE.match(line):
            header_index = index
            break
    if header_index is None:
        raise SchemaSyntaxError("no schema header found", len(lines) or 1, 1)

    concept = _parse_header(lines[header_index], header_index + 1)

    raw_nodes: list[tuple[str, str, tuple[str, ...]]] = []
    for offset, line in enumerate(lines[header_index + 1 :]):
        lineno = header_index + 2 + offset
        if not line.strip():
            if raw_nodes:
                break  # blank line ends the block
            continue
        if _GEN_LINE_RE.match(line):
            raw_nodes.append(_parse_node(line, lineno))
            continue
        if not raw_nodes:
            raise SchemaSyntaxError("expected a component line after the header", lineno, 1)
        break  # prose after the block

    if not raw_nodes:
        lineno = header_index + 2
        raise SchemaSyntaxError("program declares no components", lineno, 1)

    nodes = tuple(
        ComponentNode(id=cid, concept=node_concept, deps=deps)
        for cid, node_concept, deps in raw_nodes
    )
    program = SchemaProgram(concept=concept, nodes=nodes)
    validate_program(program)
    return program


def validate_program(program: SchemaProgram) -> None:
    """Check the program invariants that the grammar leaves open; raise the
    matching SchemaError if one is violated.

    Covers: component cap, unique ids, concept agreement, deps declared
    earlier (no forward/self references, hence no cycles), and no duplicate
    deps. `parse_schema` has already checked identifier shapes and that there
    is at least one component.
    """
    if len(program.nodes) > MAX_COMPONENTS:
        raise TooManyComponentsError(
            f"{len(program.nodes)} components declared; at most {MAX_COMPONENTS} allowed"
        )

    declared: set[str] = set()
    for node in program.nodes:
        if node.id in declared:
            raise DuplicateComponentError(f"component {node.id!r} declared twice")
        if node.concept != program.concept:
            raise ConceptMismatchError(
                f"component {node.id!r} declares concept {node.concept!r}, "
                f"expected {program.concept!r}"
            )
        seen_deps: set[str] = set()
        for dep in node.deps:
            if dep in seen_deps:
                raise DuplicateComponentError(
                    f"component {node.id!r} lists dependency {dep!r} twice"
                )
            seen_deps.add(dep)
            if dep not in declared:
                raise UnknownDependencyError(
                    f"component {node.id!r} depends on {dep!r}, which is not declared earlier"
                )
        declared.add(node.id)


def topological_order(program: SchemaProgram) -> list[str]:
    """Return component ids with every dependency before its dependents.

    A valid program declares each dependency before its dependents, so this
    is the declaration order; an invalid one raises as validate_program does.
    """
    validate_program(program)
    return [node.id for node in program.nodes]


def render_schema(program: SchemaProgram) -> str:
    """Render the canonical source text; parse(render(p)) == p structurally."""
    lines = [f"gen(concept={program.concept}) ="]
    for node in program.nodes:
        deps = "".join(f", {dep}" for dep in node.deps)
        lines.append(f"    gen({node.id} | concept={node.concept}{deps})")
    return "\n".join(lines) + "\n"


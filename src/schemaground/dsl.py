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

# Names and punctuation; any other visible character is group 1.
_TOKEN_RE = re.compile(r"[a-z0-9-]+|[()|,=]|(\S)")


@dataclass(frozen=True)
class ComponentNode:
    """One component declaration: its id, concept, and dependency ids."""

    id: str
    concept: str
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchemaProgram:
    """A schema: its concept and its components in declaration order. One
    that breaks a rule raises that rule's SchemaError when built: names that
    IDENT_RE matches and at least one component (SchemaSyntaxError), at most
    MAX_COMPONENTS components, unique ids, one concept, and each dependency
    listed once and declared earlier. So no cycle can be built, and the text
    of every program that can be built parses back to it."""

    concept: str
    nodes: tuple[ComponentNode, ...]

    def __post_init__(self):
        for name in (self.concept, *(node.id for node in self.nodes)):
            if not IDENT_RE.match(name):
                raise SchemaSyntaxError(f"{name!r} is not a lowercase kebab-case identifier")
        if not self.nodes:
            raise SchemaSyntaxError("program declares no components")
        if len(self.nodes) > MAX_COMPONENTS:
            raise TooManyComponentsError(
                f"{len(self.nodes)} components declared; at most {MAX_COMPONENTS} allowed"
            )
        declared: set[str] = set()
        for node in self.nodes:
            if node.id in declared:
                raise DuplicateComponentError(f"component {node.id!r} declared twice")
            if node.concept != self.concept:
                raise ConceptMismatchError(
                    f"component {node.id!r} declares concept {node.concept!r}, "
                    f"expected {self.concept!r}"
                )
            for index, dep in enumerate(node.deps):
                if dep in node.deps[:index]:
                    raise DuplicateComponentError(
                        f"component {node.id!r} lists dependency {dep!r} twice"
                    )
                if dep not in declared:
                    raise UnknownDependencyError(
                        f"component {node.id!r} depends on {dep!r}, which is not declared earlier"
                    )
            declared.add(node.id)

    @cached_property
    def text(self) -> str:
        """The canonical source text, which parses back to a parsed program."""
        lines = [f"gen(concept={self.concept}) ="]
        for node in self.nodes:
            deps = "".join(f", {dep}" for dep in node.deps)
            lines.append(f"    gen({node.id} | concept={node.concept}{deps})")
        return "\n".join(lines) + "\n"


def _read_line(line: str, lineno: int, header: bool) -> tuple[str | None, str, tuple[str, ...]]:
    """Read the header line (`header` true) or one component line, and return
    its component id (None for the header), concept and dependency ids.

    An unexpected character anywhere on the line is reported before any
    grammar error; a token missing at the end of the line is reported just
    past its last character.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(line):
        column = match.start() + 1
        if match[1]:
            raise SchemaSyntaxError(f"unexpected character {match[1]!r}", lineno, column)
        tokens.append((match[0], column))
    tokens.append(("", len(line) + 1))  # the end of the line, never taken
    tokens.reverse()  # so that the next token is the last

    def take(want: str, ident: bool = False) -> str:
        """The next token, which must be `want`, or with `ident` an
        identifier, `want` naming what it identifies."""
        value, column = tokens[-1]
        label = want if ident else repr(want)
        if not value:
            raise SchemaSyntaxError(f"expected {label}", lineno, column)
        if not (IDENT_RE.match(value) if ident else value == want):
            kebab = " (lowercase kebab-case)" if ident else ""
            raise SchemaSyntaxError(f"expected {label}{kebab}, found {value!r}", lineno, column)
        tokens.pop()
        return value

    take("gen")
    take("(")
    component = None if header else take("component id", ident=True)
    if not header:
        take("|")
    take("concept")
    take("=")
    concept = take("concept name", ident=True)
    deps = []
    while not header and tokens[-1][0] == ",":
        tokens.pop()
        deps.append(take("dependency id", ident=True))
    take(")")
    if header:
        take("=")
    value, column = tokens[-1]
    if value:
        raise SchemaSyntaxError(f"unexpected trailing {value!r}", lineno, column)
    return component, concept, tuple(deps)


def parse_schema(text: str) -> SchemaProgram:
    """Parse one schema program out of ``text`` and validate it.

    Prose lines before the header and after the last component line are
    tolerated; everything inside the block must conform to the grammar.

    Raises:
        SchemaSyntaxError: malformed token/structure, with line and column.
        UnknownDependencyError, DuplicateComponentError, ConceptMismatchError,
        TooManyComponentsError: semantic violations (see SchemaProgram).
    """
    lines = text.splitlines()
    header_index = next((i for i, line in enumerate(lines) if _GEN_LINE_RE.match(line)), None)
    if header_index is None:
        raise SchemaSyntaxError("no schema header found", len(lines) or 1, 1)

    _, concept, _ = _read_line(lines[header_index], header_index + 1, header=True)

    nodes: list[ComponentNode] = []
    for offset, line in enumerate(lines[header_index + 1 :]):
        lineno = header_index + 2 + offset
        if not line.strip():
            if nodes:
                break  # blank line ends the block
            continue
        if _GEN_LINE_RE.match(line):
            nodes.append(ComponentNode(*_read_line(line, lineno, header=False)))
            continue
        if not nodes:
            raise SchemaSyntaxError("expected a component line after the header", lineno, 1)
        break  # prose after the block

    if not nodes:
        raise SchemaSyntaxError("program declares no components", header_index + 2, 1)

    return SchemaProgram(concept=concept, nodes=tuple(nodes))


def topological_order(program: SchemaProgram) -> list[str]:
    """Component ids in declaration order, which puts each after its dependencies."""
    return [node.id for node in program.nodes]

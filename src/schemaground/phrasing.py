"""English phrasing helpers for prompts built from kebab-case identifiers.

The heuristics here are purely cosmetic (prompt fluency); they are fixed and
table-driven so generated prompts are reproducible byte-for-byte.
"""

from __future__ import annotations

# Identifiers whose natural-language form is not just hyphens-to-spaces.
DISPLAY_OVERRIDES: dict[str, str] = {
    "entry-exit": "entry and exit",
}

_VOWELS = "aeiou"


def display_name(identifier: str) -> str:
    """Human-readable form of a kebab-case id (``energy-levels`` -> ``energy levels``)."""
    if identifier in DISPLAY_OVERRIDES:
        return DISPLAY_OVERRIDES[identifier]
    return identifier.replace("-", " ")


def copula(identifier: str) -> str:
    """Pick ``is``/``are`` for a component: plural-looking ids and compound
    subjects ("entry and exit") take ``are``."""
    name = display_name(identifier)
    if " and " in name:
        return "are"
    last_word = name.rsplit(" ", 1)[-1]
    # Trailing -ss (cleanliness) and -us (nucleus) words are singular.
    if last_word.endswith("s") and not last_word.endswith(("ss", "us")):
        return "are"
    return "is"


def concept_phrase(concept: str) -> str:
    """Article-prefixed concept for "Imagine that the image represents ...".

    Gerund-led concepts (helping, setting-up-table-for-two) take no article.
    """
    name = display_name(concept)
    first_word = name.split(" ", 1)[0]
    if first_word.endswith("ing"):
        return name
    article = "an" if name[0] in _VOWELS else "a"
    return f"{article} {name}"


def framing_sentence(concept: str, descriptions: dict[str, str]) -> str:
    """The sentence that frames every prompt, without its closing period:
    "Imagine that the image represents a maze, and the layout is rectangular".

    One clause per (component, description) pair, in the dict's order.
    """
    clauses = [f"Imagine that the image represents {concept_phrase(concept)}"]
    for component_id, description in descriptions.items():
        clauses.append(
            f", and the {display_name(component_id)} {copula(component_id)} {description}"
        )
    return "".join(clauses)

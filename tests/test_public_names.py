"""Every public name in the package has a caller.

A caller is a reference outside the name's own definition: in the package
source or in `scripts/*.py` (both read with `ast`), or in a code span or
fenced block of README.md, since a prose word that shares a name's spelling
calls nothing. A module-level function, class or assignment counts any use
of its name. A method or property counts only an attribute reference
(`x.name`) or a keyword of that name, since a plain variable that happens
to share the name (`instance`, say) calls nothing. Tests are not callers: a
name that only a test uses is dead code with a test.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schemaground"

# Dunder methods that Python calls on every instance, so no caller names them.
IMPLICIT_METHODS = {"__init__", "__post_init__"}


def _is_public(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return (dunder and name not in IMPLICIT_METHODS) or not name.startswith("_")


def _definitions(label: str, tree: ast.Module):
    """(where qualname, name, is_member, span) for each public definition;
    span is (first line, last line) of the definition in its file."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        span = (node.lineno, node.end_lineno)
        for name in names:
            if _is_public(name):
                yield f"{label}:{node.lineno} {name}", name, False, span
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(
                    member.name
                ):
                    yield (
                        f"{label}:{member.lineno} {node.name}.{member.name}",
                        member.name,
                        True,
                        (member.lineno, member.end_lineno),
                    )


def _references(tree: ast.Module):
    """(name, line, is_attribute_or_keyword) for each reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.lineno, True


# A fenced block, from an opening fence line to the next fence line, or an
# inline code span; a fence is matched first, so its backticks open no span.
_README_CODE_RE = re.compile(r"^```.*?^```|`[^`]+`", re.MULTILINE | re.DOTALL)


def uncalled_public_names(
    package: dict[str, str], scripts: dict[str, str], readme: str
) -> list[str]:
    """`file:line qualname` of each public name defined in `package` with no
    caller there, in `scripts` or in `readme`; both dicts map a file's label
    to its source text."""
    trees = {label: ast.parse(text) for label, text in {**package, **scripts}.items()}
    references: dict[str, list[tuple[str, int, bool]]] = {}
    for label, tree in trees.items():
        for name, line, is_attribute in _references(tree):
            references.setdefault(name, []).append((label, line, is_attribute))
    code = "\n".join(_README_CODE_RE.findall(readme))
    readme_words = set(re.findall(r"\w+", code))
    readme_attributes = set(re.findall(r"\.(\w+)", code))

    uncalled = []
    for label in package:
        for where, name, is_member, (first, last) in _definitions(label, trees[label]):
            if name in (readme_attributes if is_member else readme_words):
                continue
            if not any(
                (is_attribute or not is_member) and not (ref == label and first <= line <= last)
                for ref, line, is_attribute in references.get(name, ())
            ):
                uncalled.append(where)
    return uncalled


def _sources(paths) -> dict[str, str]:
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}


def test_every_public_name_has_a_caller():
    uncalled = uncalled_public_names(
        _sources(sorted(PACKAGE.glob("*.py"))),
        _sources(sorted((ROOT / "scripts").glob("*.py"))),
        (ROOT / "README.md").read_text(encoding="utf-8"),
    )
    assert not uncalled, "public names with no caller in src/, scripts/ or README.md:\n" + (
        "\n".join(uncalled)
    )


def test_the_guard_needs_an_attribute_reference_to_call_a_method():
    package = {
        "m.py": (
            "class Manifest:\n"
            "    def instance(self, key):\n"
            "        return self.instance(key)\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def concepts(self):\n"
            "        return ()\n"
            "def load():\n"
            "    return Manifest()\n"
            "RULES = ()\n"
        ),
    }
    script = {"s.py": "for instance in load().concepts():\n    print(instance, len(RULES))\n"}
    assert uncalled_public_names(package, script, "") == [
        "m.py:2 Manifest.instance",
        "m.py:4 Manifest.__len__",
    ]
    assert uncalled_public_names(package, script, "Call `Manifest.instance(key)`.") == [
        "m.py:4 Manifest.__len__",
    ]
    fenced = "```py\nManifest().instance(key)\n```\n"
    assert uncalled_public_names(package, script, fenced) == ["m.py:4 Manifest.__len__"]
    # Prose is no caller, even where it spells the name.
    prose = "Each Manifest.instance is looked up by key; `load` reads none."
    assert uncalled_public_names(package, script, prose) == [
        "m.py:2 Manifest.instance",
        "m.py:4 Manifest.__len__",
    ]
    assert uncalled_public_names(package, {}, "") == [
        "m.py:2 Manifest.instance",
        "m.py:4 Manifest.__len__",
        "m.py:6 Manifest.concepts",
        "m.py:8 load",
        "m.py:10 RULES",
    ]

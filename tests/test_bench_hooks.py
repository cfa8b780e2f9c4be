"""The benchmark's tracer still finds every function it hooks.

`bench/tracing.py` wraps the functions named in its `HOOKS`, and its traced
smoke runs assert a value for each metric those spans feed. This reads the
file with `ast`, without importing or writing anything under `bench/`, so a
change that deletes or renames a hooked name fails here in tier-1 as well.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

from schemaground.gateway import ImageRef

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tree() -> ast.Module:
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def _hooks(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, qualname) of each `Hook(...)` in the `HOOKS` assignment."""
    assignment = next(
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "HOOKS" for target in node.targets)
    )
    return [
        (call.args[1].value, call.args[2].value)
        for call in ast.walk(assignment.value)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Hook"
    ]


def test_every_hooked_schemaground_name_is_callable():
    hooks = [hook for hook in _hooks(_tree()) if hook[0].startswith("schemaground.")]
    assert hooks
    missing = []
    for module, qualname in hooks:
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}:{qualname}")
    assert not missing, f"hooked by bench/tracing.py but not callable: {missing}"


def test_image_ref_has_every_field_the_digest_note_reads():
    note = next(
        node
        for node in _tree().body
        if isinstance(node, ast.FunctionDef) and node.name == "_digest_bytes"
    )
    read = {
        node.attr
        for node in ast.walk(note)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "image"
    }
    assert "data" in read
    assert read <= {field.name for field in dataclasses.fields(ImageRef)}

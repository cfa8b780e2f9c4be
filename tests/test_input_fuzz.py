"""No input file makes `evaluate` fail outside its exit codes.

Each example copies the toy dataset and a warm response cache, mutates one
file (the manifest, `backend.json`, `fixtures.json` or one cache entry) and
runs `evaluate` in-process. Whatever the mutation, the command returns 0, a
usage error or a deliberate error's code, and no exception escapes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemaground import cli
from schemaground.errors import EXIT_CODES
from schemaground.toydata import make_toy_dataset

ALLOWED_CODES = {0, 2} | set(EXIT_CODES.values())

# JSON text put in place of one value. The JSON encoder cannot write all of
# them (a 5,000-digit integer, say), so they go in as text.
REPLACEMENTS = (
    "null",
    "true",
    "false",
    "0",
    "-1.5",
    "NaN",
    "Infinity",
    "-Infinity",
    "1e999",
    "1" * 5000,
    '""',
    '["x"]',
    '{"x": 1}',
    "[" * 50_000 + "]" * 50_000,
)

_MARK = "\x00replacement\x00"


def _evaluate(root: Path, cache: Path) -> int:
    argv = [
        "evaluate",
        "--manifest", str(root / "manifest.json"),
        "--backend-config", str(root / "backend.json"),
        "--cache-dir", str(cache),
        "--out", str(root / "out"),
        "--human-row",
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A toy dataset and the cache that one `evaluate` over it leaves."""
    root = tmp_path_factory.mktemp("fuzz")
    dataset = make_toy_dataset(root / "dataset")
    cache = root / "cache"
    assert _evaluate(dataset.root, cache) == 0
    shutil.rmtree(dataset.root / "out")
    return dataset.root, cache


def _paths(value, prefix=()):
    """The path of `value` and of every value inside it, as key sequences."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*prefix, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*prefix, index))


def _parent(document, path):
    for key in path[:-1]:
        document = document[key]
    return document


@st.composite
def _mutation(draw, text: str) -> bytes:
    """The bytes of `text`, a JSON file, after one mutation."""
    kind = draw(st.sampled_from(["replace", "drop", "truncate", "not-utf8"]))
    data = text.encode("utf-8")
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff\xfe" + data[at:]
    document = json.loads(text)
    paths = list(_paths(document))
    if kind == "drop":
        path = draw(st.sampled_from([path for path in paths if path and isinstance(path[-1], str)]))
        del _parent(document, path)[path[-1]]
        return json.dumps(document).encode("utf-8")
    path = draw(st.sampled_from(paths))
    replacement = draw(st.sampled_from(REPLACEMENTS))
    if not path:
        return replacement.encode("utf-8")
    _parent(document, path)[path[-1]] = _MARK
    return json.dumps(document).replace(json.dumps(_MARK), replacement).encode("utf-8")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_no_mutated_input_file_escapes_the_exit_codes(warm, data):
    dataset, warm_cache = warm
    with tempfile.TemporaryDirectory() as tmp:
        root, cache = Path(tmp) / "dataset", Path(tmp) / "cache"
        shutil.copytree(dataset, root)
        shutil.copytree(warm_cache, cache)
        name = data.draw(st.sampled_from(["manifest.json", "backend.json", "fixtures.json", ""]))
        target = root / name if name else data.draw(st.sampled_from(sorted(cache.iterdir())))
        target.write_bytes(data.draw(_mutation(target.read_text(encoding="utf-8"))))
        assert _evaluate(root, cache) in ALLOWED_CODES

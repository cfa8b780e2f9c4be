"""Reach guard: every statement in `src/schemaground/*.py` is run by a test.

Runs the tier-1 suite under a stdlib line tracer (`sys.settrace` and
`threading.settrace`), in this process and in every Python subprocess that
the tests start, which a `sitecustomize.py` put first on PYTHONPATH traces
(`tests/helpers.py::checkout_env` keeps that entry). Then it lists, as
`file:line`, each statement that no test ran and that ALLOWED does not
name, and each ALLOWED entry that names no such statement, and exits 1 if
there is any, or if a test fails:

    python tests/reach.py

A def or class header and a docstring are not statements here; a compound
statement counts as run when any line of it ran. The file name does not
match `test_*.py`, so pytest does not collect it. Tracing makes tier-1
about twice as slow, so it runs as a CI step of its own.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "schemaground"

# Statements that no test needs to run, keyed by (file name, the first line
# of the statement's source, stripped), so that an entry survives line moves;
# the value says why. An entry covers every statement of that text in the file.
ALLOWED: dict[tuple[str, str], str] = {}


def trace(hits: set[tuple[str, int]]) -> None:
    """From here on, add (code file name, line) to hits for each line run in
    a file under PACKAGE, by this thread or any thread started later."""
    prefix = str(PACKAGE) + os.sep
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = os.path.realpath(name).startswith(prefix)
        return local if keep else None

    threading.settrace(call)
    sys.settrace(call)


def trace_child(out_dir: str) -> None:
    """Trace this process, and write what it ran to out_dir when it exits.
    The `sitecustomize.py` that `main` writes calls this."""
    hits: set[tuple[str, int]] = set()

    def write() -> None:
        sys.settrace(None)
        threading.settrace(None)
        path = Path(out_dir) / f"{os.getpid()}.json"
        path.write_text(json.dumps(sorted(hits)), encoding="utf-8")

    atexit.register(write)
    trace(hits)


def statements(source: str) -> list[ast.stmt]:
    """The statements of a module's source, without def and class headers
    and docstrings."""
    tree = ast.parse(source)
    headers = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *headers))
        and ast.get_docstring(node, clean=False) is not None
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, headers)
        and node not in docstrings
    ]


def report(lines_run: dict[str, set[int]]) -> int:
    """Print the unreached statements and the stale ALLOWED entries; return
    how many of them there are."""
    total = 0
    unreached: list[str] = []
    allowed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = lines_run.get(os.path.realpath(path), set())
        for node in sorted(statements(source), key=lambda node: node.lineno):
            total += 1
            if not ran.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                continue
            text = ast.get_source_segment(source, node).splitlines()[0].strip()
            if (path.name, text) in ALLOWED:
                allowed.append((path.name, text))
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    stale = sorted(ALLOWED.keys() - set(allowed))
    for line in unreached:
        print(f"not run by any test: {line}")
    for file_name, text in stale:
        print(f"ALLOWED entry ({file_name!r}, {text!r}) names no unreached statement")
    run = total - len(unreached) - len(allowed)
    print(f"reach: {run} of {total} statements run, {len(allowed)} allowed")
    return len(unreached) + len(stale)


def main() -> int:
    import pytest

    hits: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        site_dir, out_dir = Path(tmp, "site"), Path(tmp, "hits")
        site_dir.mkdir()
        out_dir.mkdir()
        here = str(Path(__file__).resolve())
        (site_dir / "sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('_reach', {here!r})\n"
            "reach = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(reach)\n"
            f"reach.trace_child({str(out_dir)!r})\n",
            encoding="utf-8",
        )
        existing = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(site_dir), str(SRC), *([existing] if existing else [])]
        )
        sys.path.insert(0, str(SRC))
        os.chdir(ROOT)
        trace(hits)
        try:
            code = pytest.main(["-q", "--continue-on-collection-errors"])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for path in out_dir.glob("*.json"):
            hits.update(map(tuple, json.loads(path.read_text(encoding="utf-8"))))
    lines_run: dict[str, set[int]] = {}
    for file_name, line in hits:
        lines_run.setdefault(os.path.realpath(file_name), set()).add(line)
    unreached = report(lines_run)
    return 1 if code or unreached else 0


if __name__ == "__main__":
    sys.exit(main())

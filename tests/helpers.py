"""Shared test utilities: independent oracles, generators, an echo backend,
and the environment for subprocess runs.

The topological-order oracle enumerates every permutation, so it stays
honest for programs of up to 4 components regardless of how the library
implementation evolves.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import random
import re
import string
import threading
from itertools import permutations
from pathlib import Path

from hypothesis import strategies as st

import schemaground
from schemaground import gateway
from schemaground.dsl import SchemaProgram
from schemaground.evaluate import DatasetManifest
from schemaground.extraction import CONCEPT_CATEGORIES, load_canonical_schema
from schemaground.gateway import ModelGateway, ResponseCache, ScriptedBackend
from schemaground.phrasing import concept_phrase, copula, display_name
from schemaground.qa import VqaInstance


def brute_force_topological_order(program: SchemaProgram) -> list[str]:
    """Among all permutations satisfying deps-before-node, the one whose
    sequence of positions in program.nodes is lexicographically smallest."""
    index = {node.id: position for position, node in enumerate(program.nodes)}
    deps = {node.id: set(node.deps) for node in program.nodes}
    best_key, best = None, None
    for perm in permutations(node.id for node in program.nodes):
        seen: set[str] = set()
        valid = True
        for component_id in perm:
            if not deps[component_id] <= seen:
                valid = False
                break
            seen.add(component_id)
        if valid:
            key = [index[component_id] for component_id in perm]
            if best_key is None or key < best_key:
                best_key, best = key, list(perm)
    assert best is not None, "every acyclic program has a valid order"
    return best


def instance_by_id(manifest: DatasetManifest, instance_id: str) -> VqaInstance:
    return next(instance for instance in manifest.instances if instance.id == instance_id)


def random_ident(rng: random.Random) -> str:
    segments = []
    for position in range(rng.randint(1, 2)):
        length = rng.randint(1, 5)
        alphabet = string.ascii_lowercase + string.digits
        first = rng.choice(string.ascii_lowercase if position == 0 else alphabet)
        segments.append(first + "".join(rng.choice(alphabet) for _ in range(length - 1)))
    return "-".join(segments)


def random_program_source(rng: random.Random) -> tuple[str, str, list[tuple[str, list[str]]]]:
    """A random valid program rendered with randomized whitespace.

    Returns (source, concept, [(component_id, deps), ...]).
    """
    concept = random_ident(rng)
    count = rng.randint(1, 4)
    ids: list[str] = []
    while len(ids) < count:
        candidate = random_ident(rng)
        if candidate not in ids and candidate != "concept":
            ids.append(candidate)

    def pad() -> str:
        return " " * rng.randint(0, 2)

    lines = [f"{pad()}gen{pad()}({pad()}concept{pad()}={pad()}{concept}{pad()}){pad()}={pad()}"]
    spec: list[tuple[str, list[str]]] = []
    for position, component_id in enumerate(ids):
        deps = [dep for dep in ids[:position] if rng.random() < 0.4]
        rng.shuffle(deps)
        tail = "".join(f",{pad()}{dep}{pad()}" for dep in deps)
        lines.append(
            f"{pad()}gen{pad()}({pad()}{component_id}{pad()}|{pad()}"
            f"concept{pad()}={pad()}{concept}{pad()}{tail}){pad()}"
        )
        spec.append((component_id, deps))
    return "\n".join(lines) + "\n", concept, spec


_ident = st.from_regex(r"[a-z][a-z0-9]{0,4}(?:-[a-z0-9]{1,3}){0,2}", fullmatch=True)


@st.composite
def program_specs(draw):
    """A valid program of 1-4 components as (concept, [(component_id, deps)]):
    each component's deps are distinct components declared before it."""
    concept = draw(_ident)
    ids = draw(st.lists(_ident, min_size=1, max_size=4, unique=True))
    nodes = []
    for position, component_id in enumerate(ids):
        pool = ids[:position]
        deps = (
            draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
            if pool
            else []
        )
        nodes.append((component_id, deps))
    return concept, nodes


class EchoBackend:
    """A backend whose reply is a short digest of the last user text, so
    that each reply names the query it answers."""

    backend_id = "echo"

    def complete(self, request) -> str:
        text = next(m.text for m in reversed(request.messages) if m.role == "user")
        return echo_reply(text)


def echo_reply(text: str) -> str:
    return "echo-" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def fixture_grounding_rules(reply_for=None) -> list[dict]:
    """One scripted rule per (concept, component) over all 12 fixtures.

    reply_for(concept, component_id) supplies the grounding reply; the
    default produces a distinct tag per pair.
    """
    if reply_for is None:
        reply_for = lambda concept, component: f"{concept}--{component}--essence"
    rules = []
    for concept in CONCEPT_CATEGORIES:
        schema = load_canonical_schema(concept)
        phrase = re.escape(concept_phrase(concept))
        for node in schema.nodes:
            tail = f"What {copula(node.id)} the {re.escape(display_name(node.id))}\\?"
            rules.append(
                {
                    "match": {"regex": f"(?s)represents {phrase}.*{tail}"},
                    "reply": reply_for(concept, node.id),
                }
            )
    return rules


def scripted_gateway(rules: list[dict], cache_dir=None, **gateway_kwargs) -> ModelGateway:
    return ModelGateway(ScriptedBackend(rules), cache=ResponseCache(cache_dir), **gateway_kwargs)


class PassThrough:
    """Takes the place of a gateway's backend and hands each request on to
    it, recording the request and the calling thread.

    It is no `ScriptedBackend`, so the gateway lets the turn go before each
    call, as before a call to the http backend: scripted replies then reach
    the workers through the hand-off that live traffic takes.
    """

    def __init__(self, gateway: ModelGateway):
        self.backend_id = gateway.backend.backend_id
        self.calls: list = []
        self.threads: set[int] = set()
        self._complete = gateway.backend.complete
        gateway.backend = self

    def complete(self, request):
        self.calls.append(request)
        self.threads.add(threading.get_ident())
        return self._complete(request)


def record_reads(monkeypatch, paths) -> list[threading.Thread]:
    """From here on, the thread of each open for reading of a file in
    `paths`, made with `os.open` or with `open` (which `Path.read_bytes`
    uses)."""
    wanted = {os.fspath(path) for path in paths}
    reads: list[threading.Thread] = []

    def record(file, reading: bool) -> None:
        if reading and isinstance(file, (str, os.PathLike)) and os.fspath(file) in wanted:
            reads.append(threading.current_thread())

    os_open, io_open = os.open, io.open

    def recording_os_open(file, flags, *args, **kwargs):
        record(file, not flags & (os.O_WRONLY | os.O_RDWR))
        return os_open(file, flags, *args, **kwargs)

    def recording_open(file, mode="r", *args, **kwargs):
        record(file, "r" in mode and "+" not in mode)
        return io_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    return reads


def settle_images(monkeypatch, settled: bool = True) -> None:
    """From here on, every image file is settled (its ctime old enough for
    the image-digest memo to record its digest) or, with `settled` false,
    fresh, whatever its real ctime: the clock that the memo's age rule reads
    gives the end or the start of time."""
    now = float("inf") if settled else float("-inf")
    monkeypatch.setattr(gateway, "_clock", lambda: now)


def cache_records(cache_dir, field: str) -> list[dict]:
    """The whole records in the response cache's logs under `cache_dir` that
    hold `field`: "key" for replies, "stat" for the image-digest memo. They
    come in log-name order, then in write order; a line that is torn or does
    not hold a JSON object is left out."""
    records = []
    for path in sorted(Path(cache_dir).glob("*.jsonl")):
        if not path.is_file():
            continue
        for line in path.read_bytes().split(b"\n")[:-1]:
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                continue
            if isinstance(record, dict) and field in record:
                records.append(record)
    return records


def write_log(cache_dir, *lines: str | bytes, name: str = "00000000000000000000-0.jsonl") -> None:
    """Write a response-cache log named `name` under `cache_dir`, made if it
    does not exist, holding `lines`, each ended by a newline. The default
    name sorts before that of any log a cache creates."""
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    Path(cache_dir, name).write_bytes(b"".join(
        (line.encode("utf-8") if isinstance(line, str) else line) + b"\n" for line in lines
    ))


def memo_digests(cache_dir) -> list[str]:
    """The digests that the image-digest memo under `cache_dir` holds, sorted."""
    return sorted(record["sha256"] for record in cache_records(cache_dir, "stat"))


def checkout_env() -> dict[str, str]:
    """os.environ with the absolute directory that holds the imported
    `schemaground` package put first on PYTHONPATH, existing entries kept
    after it.

    A child `python -m schemaground.cli` then imports exactly the package
    this process imported, whatever its working directory; a relative
    PYTHONPATH such as `src` would not resolve from a temporary cwd.
    """
    source_dir = str(Path(schemaground.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([source_dir, existing] if existing else [source_dir])
    return env

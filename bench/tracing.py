"""Spans around the public functions of each layer, recorded from outside the program.

`Tracer.install` replaces each hooked function with a timing wrapper in every
loaded `schemaground` module that holds it (methods are replaced on their
class), and `uninstall` puts the originals back. A span records its name,
start, end, parent and group. Parentage follows each thread's own stack of
open spans; a span with no open parent starts a group, and every span under
it shares that group's id, so the spans of one grounding walk or one answer,
which run on a worker thread, share one id. Spans stay in memory until taken.

A hooked name that no longer exists is listed in `missing`, and the metrics
that need it are reported as missing (null) instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

from catalog import MODES


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    qualname: str  # "function" or "Class.method"
    note: Callable | None = None  # (args, kwargs, result) -> small value kept on the span

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.qualname}"


class Span(NamedTuple):
    id: int
    parent: int | None
    group: int
    name: str
    thread: int
    start: float
    end: float
    note: object


def _digest_bytes(args, kwargs, result):
    image = args[0]
    if image.data is not None:
        return len(image.data)
    return os.path.getsize(image.path)


def _is_hit(args, kwargs, result):
    return result is not None


def _key(args, kwargs, result):
    return getattr(result, "digest", result)


def _mode(args, kwargs, result):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    return getattr(mode, "value", mode)


HOOKS = (
    Hook("cli", "schemaground.cli", "main"),
    Hook("cli", "schemaground.qa", "write_predictions_jsonl"),
    Hook("cli", "pathlib", "Path.write_text"),
    Hook("runner", "schemaground.runner", "run_predictions", _mode),
    Hook("runner", "schemaground.runner", "load_schemas"),
    Hook("grounding", "schemaground.grounding", "ground_hierarchical"),
    Hook("grounding", "schemaground.grounding", "ground_sequential"),
    Hook("qa", "schemaground.qa", "answer"),
    Hook("qa", "schemaground.qa", "build_augmented_prompt"),
    Hook("qa", "schemaground.qa", "normalize_answer"),
    Hook("gateway", "schemaground.gateway", "ImageRef.digest", _digest_bytes),
    Hook("gateway", "schemaground.gateway", "cache_key", _key),
    Hook("gateway", "schemaground.gateway", "ResponseCache.get", _is_hit),
    Hook("gateway", "schemaground.gateway", "ResponseCache.put"),
    Hook("gateway", "schemaground.gateway", "HttpBackend.complete"),
    Hook("gateway", "schemaground.gateway", "ModelGateway.complete"),
    Hook("evaluate", "schemaground.evaluate", "load_manifest"),
    Hook("evaluate", "schemaground.evaluate", "exact_match_accuracy"),
    Hook("evaluate", "schemaground.evaluate", "graded_accuracy"),
    Hook("evaluate", "schemaground.evaluate", "report_to_json"),
    Hook("dsl", "schemaground.dsl", "topological_order"),
    Hook("dsl", "schemaground.dsl", "parse_schema"),
    Hook("stub", "stub", "StubAdapter.send"),
)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.missing: list[str] = []
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        spans, ids, local = self._spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, group = stack[-1] if stack else (None, span_id)
            stack.append((span_id, group))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = note(args, kwargs, result) if note is not None else None
                spans.append(
                    Span(span_id, parent, group, name, threading.get_ident(), start, end, value)
                )

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if name == "schemaground" or name.startswith("schemaground.")
        ]
        for hook in self.hooks:
            owner = sys.modules.get(hook.module)
            *path, attr = hook.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(hook.name)
                continue
            traced = self._wrap(hook.name, original, hook.note)
            if isinstance(owner, type):
                targets = [(owner, attr)]
            else:
                targets = [
                    (module, key)
                    for module in loaded + [owner]
                    for key, value in list(vars(module).items())
                    if value is original
                ]
            for target, key in dict.fromkeys(targets):
                setattr(target, key, traced)
                self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    def take(self) -> list[Span]:
        spans, self._spans[:] = list(self._spans), []
        return spans


def write_spans(spans_by_rep: list[list[Span]], path: pathlib.Path) -> None:
    """One JSON line per span: rep, id, parent, group, name, thread, start, end, note."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for rep, spans in enumerate(spans_by_rep):
            for span in spans:
                handle.write(json.dumps({"rep": rep, **span._asdict()}, default=str) + "\n")


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None unless at least 10 samples lie beyond it."""
    if not samples or len(samples) * (1 - q) < 10:
        return None
    ordered = sorted(samples)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


GROUNDING = ("grounding:ground_hierarchical", "grounding:ground_sequential")
ANSWER = "qa:answer"
LAYERS = ("cli", "runner", "grounding", "qa", "gateway", "evaluate", "dsl", "stub")


@dataclass
class RepTrace:
    """One traced ablate: its spans, wall time, stub counters and output facts."""

    spans: list[Span]
    wall_s: float
    stub_calls: int
    stub_busy_s: float
    stub_latency_s: float
    stub_cpu_s: float
    stub_inflight_max: int
    stub_request_bytes: int
    output_bytes: int
    predictions: int
    no_match: int


def rep_metrics(rep: RepTrace, concurrency: int, missing: list[str]) -> dict:
    """Per-layer metrics of one traced ablate; a metric whose hooks are missing is None."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in rep.spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def have(*names):
        return not any(name in missing for name in names)

    def dur(name):
        return sum(s.end - s.start for s in by_name[name]) if have(name) else None

    def count(name):
        return len(by_name[name]) if have(name) else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    out: dict[str, object] = {
        "backend_calls": rep.stub_calls,
        "stub.slot_utilisation": rep.stub_busy_s / (concurrency * rep.wall_s),
        "stub.latency_s": rep.stub_latency_s,
        "stub.cpu_s": rep.stub_cpu_s,
        "stub.inflight_max": rep.stub_inflight_max,
        "cli.output_mib": rep.output_bytes / 2**20,
        "qa.no_match_share": ratio(rep.no_match, rep.predictions),
        "gateway.http_request_mib": rep.stub_request_bytes / 2**20,
    }

    # Runner: per-mode wall, phases and idle slots, from the spans inside each
    # run_predictions interval.
    for mode in MODES:
        out[f"runner.mode_s.{mode}"] = (
            sum(s.end - s.start for s in by_name["runner:run_predictions"] if s.note == mode)
            if have("runner:run_predictions") else None
        )
    workers = [s for name in (*GROUNDING, ANSWER) for s in by_name[name]]
    runner_ok = have("runner:run_predictions", *GROUNDING, ANSWER)
    ground_phase = answer_phase = idle = 0.0
    for run in by_name["runner:run_predictions"]:
        inside = [s for s in workers if run.start <= s.start and s.end <= run.end]
        grounds = [s for s in inside if s.name in GROUNDING]
        answers = [s for s in inside if s.name == ANSWER]
        if grounds:
            ground_phase += max(s.end for s in grounds) - min(s.start for s in grounds)
        if answers:
            answer_phase += max(s.end for s in answers) - min(s.start for s in answers)
        idle += concurrency * (run.end - run.start) - sum(s.end - s.start for s in inside)
    out["runner.ground_phase_s"] = ground_phase if runner_ok else None
    out["runner.answer_phase_s"] = answer_phase if runner_ok else None
    out["runner.idle_slot_s"] = idle if runner_ok else None

    # Grounding: one group per walk.
    grounding_ok = have(*GROUNDING, "gateway:ModelGateway.complete")
    walks = [s for name in GROUNDING for s in by_name[name]]
    walk_groups = {s.group for s in walks}
    walk_calls = sum(1 for s in by_name["gateway:ModelGateway.complete"] if s.group in walk_groups)
    out["grounding.images"] = len(walks) if grounding_ok else None
    out["grounding.calls_per_image"] = ratio(walk_calls, len(walks)) if grounding_ok else None

    # Gateway.
    out["gateway.complete_calls"] = count("gateway:ModelGateway.complete")
    keys = {s.note for s in by_name["gateway:cache_key"]}
    out["gateway.distinct_request_ratio"] = (
        ratio(len(keys), rep.stub_calls) if have("gateway:cache_key") else None
    )
    out["gateway.digest_calls"] = count("gateway:ImageRef.digest")
    out["gateway.digest_s"] = dur("gateway:ImageRef.digest")
    out["gateway.digest_mib"] = (
        sum(s.note or 0 for s in by_name["gateway:ImageRef.digest"]) / 2**20
        if have("gateway:ImageRef.digest") else None
    )
    out["gateway.cache_key_s"] = dur("gateway:cache_key")
    out["gateway.cache_get_s"] = dur("gateway:ResponseCache.get")
    gets = by_name["gateway:ResponseCache.get"]
    hits = sum(1 for s in gets if s.note)
    get_ok = have("gateway:ResponseCache.get")
    out["gateway.cache_hits"] = hits if get_ok else None
    out["gateway.cache_misses"] = len(gets) - hits if get_ok else None
    out["gateway.cache_hit_ratio"] = ratio(hits, len(gets)) if get_ok else None
    out["gateway.cache_put_s"] = dur("gateway:ResponseCache.put")
    out["gateway.cache_puts"] = count("gateway:ResponseCache.put")
    http_s = dur("gateway:HttpBackend.complete")
    stub_s = dur("stub:StubAdapter.send")
    out["gateway.http_complete_s"] = http_s
    out["gateway.http_local_s"] = None if http_s is None or stub_s is None else http_s - stub_s

    # QA.
    answers = by_name[ANSWER]
    answer_groups = {s.group for s in answers}
    out["qa.answers"] = count(ANSWER)
    out["qa.prompt_build_s"] = dur("qa:build_augmented_prompt")
    out["qa.normalize_s"] = (
        sum(s.end - s.start for s in by_name["qa:normalize_answer"] if s.group in answer_groups)
        if have("qa:normalize_answer", ANSWER) else None
    )

    # Evaluate, cli, dsl.
    out["evaluate.load_manifest_s"] = dur("evaluate:load_manifest")
    exact, graded = dur("evaluate:exact_match_accuracy"), dur("evaluate:graded_accuracy")
    out["evaluate.score_s"] = None if exact is None or graded is None else exact + graded
    out["evaluate.report_json_s"] = dur("evaluate:report_to_json")
    jsonl_ids = {s.id for s in by_name["cli:write_predictions_jsonl"]}
    out["cli.write_s"] = (
        dur("cli:write_predictions_jsonl")
        + sum(s.end - s.start for s in by_name["cli:Path.write_text"] if s.parent not in jsonl_ids)
        if have("cli:write_predictions_jsonl", "cli:Path.write_text") else None
    )
    out["dsl.topological_order_calls"] = count("dsl:topological_order")
    out["dsl.parse_schema_calls"] = count("dsl:parse_schema")

    # Self time per layer: each span's duration minus its children's.
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in rep.spans:
        covered = sum(c.end - c.start for c in children[span.id])
        layer = span.name.split(":", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (span.end - span.start - covered)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


# Percentiles reported per pool of span durations; a traced run goes on until
# every pool has at least 10 samples beyond its highest percentile.
PERCENTILES = {
    "grounding.image": (GROUNDING, (0.5, 0.95)),
    "gateway.complete": (("gateway:ModelGateway.complete",), (0.5, 0.99)),
    "qa.answer": ((ANSWER,), (0.5, 0.99)),
}


def pooled_samples(reps: list[RepTrace], missing: list[str]) -> dict[str, list[float]]:
    """Durations in ms pooled over reps, per percentile pool whose hooks exist."""
    pools: dict[str, list[float]] = {}
    for pool, (names, _) in PERCENTILES.items():
        if any(name in missing for name in names):
            continue
        pools[pool] = [
            (span.end - span.start) * 1000
            for rep in reps
            for span in rep.spans
            if span.name in names
        ]
    return pools


def percentile_metrics(reps: list[RepTrace], missing: list[str]) -> dict[str, float | None]:
    pools = pooled_samples(reps, missing)
    return {
        f"{pool}_p{round(q * 100)}_ms": percentile(pools[pool], q) if pool in pools else None
        for pool, (_, quantiles) in PERCENTILES.items()
        for q in quantiles
    }


def enough_samples(reps: list[RepTrace], missing: list[str]) -> bool:
    pools = pooled_samples(reps, missing)
    return all(
        len(pools[pool]) * (1 - max(quantiles)) >= 10
        for pool, (_, quantiles) in PERCENTILES.items()
        if pool in pools and pools[pool]
    )

"""What the benchmark runs and measures.

This module is the single description of the benchmark: its workloads, every
metric with its unit, direction and layer, and which end-to-end metric each
per-layer metric should move, on which workload. `BENCHMARK.json` at the root
of the repository mirrors it, and `python3 bench/run.py --describe` prints it.

Wall time of the ablation is roughly backend calls x latency / concurrency,
plus local per-call cost. Each workload makes one of those terms dominate, so
an optimisation of that term shows on it and is predicted flat on the others.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = (
    "baseline",
    "schema_only",
    "grounding_sequential",
    "grounding_hierarchical",
    "full_dsg",
)

# Exact-match accuracy of the toy ladder, which every replicated manifest keeps.
EXPECTED_ACCURACY = dict(zip(MODES, (1 / 12, 2 / 12, 9 / 12, 1.0, 1.0)))

RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    replicas: int  # copies of the 12 toy questions; 4 images per copy
    image_bytes: int  # approximate size of each generated PNG
    cache: str  # "cold": fresh empty --cache-dir per ablate; "warm": pre-filled; "none"
    latency_ms: float = 0.0  # median injected stub latency
    latency_sigma: float = 0.0  # log-normal shape of the injected latency

    @property
    def images(self) -> int:
        return 4 * self.replicas

    @property
    def questions(self) -> int:
        return 12 * self.replicas


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold-tail",
            why=(
                "First live ablation: empty cache, small images, heavy-tailed stub "
                "latency. Backend waits, runner barriers and the grounding critical "
                "path set the wall time."
            ),
            replicas=6,
            image_bytes=2 << 10,
            cache="cold",
            # The 20 ms the ROADMAP's baseline was measured at, with a tail:
            # sigma 0.6 puts p99 at about 4 x the median.
            latency_ms=20.0,
            latency_sigma=0.6,
        ),
        Workload(
            name="warm-replay",
            why=(
                "Re-run and re-score loop: cache pre-filled in set-up, 1 MiB images, "
                "zero stub calls. All time is local: image hashing, keys, cache reads, "
                "prompts, scoring, writing."
            ),
            replicas=12,
            image_bytes=1 << 20,
            cache="warm",
        ),
        Workload(
            name="nocache-wire",
            why=(
                "No cache, fixed 20 ms stub latency, 256 KiB images: every request pays "
                "base64 and JSON payload building, and duplicate requests reach the stub, "
                "so dedup and memo memory show."
            ),
            replicas=4,
            image_bytes=256 << 10,
            cache="none",
            latency_ms=20.0,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    layer: str
    moves: str  # the end-to-end metric(s) a change in this metric should move
    where: str  # the workload where it should move, and where it is predicted flat
    doc: str
    bound: float | None = None  # end-to-end only: tolerated worsening, share of median


END_TO_END = (
    Metric(
        "ablate_wall_s", "s", "lower", "cli", "-", "all",
        "wall time of one `ablate` call, median over the run's repetitions",
        bound=0.25,
    ),
    Metric(
        "predictions_per_s", "1/s", "higher", "cli", "-", "all",
        "predictions written (5 modes x questions) / ablate_wall_s",
        bound=0.25,
    ),
    Metric(
        "user_cpu_s", "s", "lower", "cli", "-", "all",
        "user CPU of the worker process during one ablate, all threads, minus the "
        "CPU the stub spends inside its send() (stub.cpu_s, all of it user CPU); "
        "median over repetitions. Kernel CPU is the per-layer sys_cpu_s",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mib", "MiB", "lower", "cli", "-", "all",
        "peak resident memory of the fresh worker interpreter that runs the ablations",
        bound=0.1,
    ),
    Metric(
        "setup_s", "s", "lower", "bench", "-", "all",
        "median of several set-ups. A set-up writes the inputs (benchmark code), "
        "on warm-replay runs a scripted ablate that pre-fills the cache, and starts "
        "the program once in a fresh interpreter (Python, requests and the program's "
        "import-time work), so work moved out of ablate into import time shows here",
        bound=0.25,
    ),
)

_WALL = "ablate_wall_s, predictions_per_s"
_COLD = "cold-tail (flat on warm-replay)"
_CALLS = "nocache-wire, cold-tail (0 on warm-replay)"
_KEYS = "warm-replay (small on cold-tail)"
_WIRE = "nocache-wire (0 on warm-replay)"
_LOCAL = "warm-replay"
_OVERHEAD = "none: benchmark overhead or budget guard"


def _m(name, unit, better, layer, moves, where, doc):
    return Metric(name, unit, better, layer, moves, where, doc)


PER_LAYER = (
    _m("backend_calls", "count", "lower", "stub", "live-API bill", _CALLS,
       "requests that reach the stub in one ablate; repeats exactly"),
    _m("failed_share", "share", "lower", "run", "-", "all",
       "failed / attempted operations (ablate runs plus backend attempts)"),
    _m("sys_cpu_s", "s", "lower", "cli", "-", "cold-tail (response-cache file writes)",
       "kernel CPU of the worker process during one ablate; median over the "
       "untraced repetitions. Not gated: the same file writes took 4x more "
       "kernel CPU from one minute to the next on a shared virtual machine"),
    _m("stub.slot_utilisation", "share", "higher", "stub", _WALL, _COLD,
       "time inside the stub / (concurrency x ablate wall); 0 when no call reaches it"),
    _m("stub.latency_s", "s", "lower", "stub", "none", _OVERHEAD,
       "injected latency summed over the ablate's calls"),
    _m("stub.cpu_s", "s", "lower", "stub", "none", _OVERHEAD,
       "CPU of the stub's send(): parsing, image checks, reply building; "
       "subtracted from user_cpu_s"),
    _m("stub.inflight_max", "count", "lower", "stub", "none", _OVERHEAD,
       "most requests inside the stub at once; never above the concurrency"),
    _m("runner.idle_slot_s", "s", "lower", "runner", _WALL, _COLD,
       "concurrency x run_predictions wall minus worker task time, summed over modes"),
    *(
        _m(f"runner.mode_s.{mode}", "s", "lower", "runner", _WALL, _COLD,
           f"wall time of run_predictions for {mode}")
        for mode in MODES
    ),
    _m("runner.ground_phase_s", "s", "lower", "runner", _WALL, _COLD,
       "first grounding start to last grounding end, summed over modes"),
    _m("runner.answer_phase_s", "s", "lower", "runner", _WALL, _COLD,
       "first answer start to last answer end, summed over modes"),
    _m("grounding.images", "count", "lower", "grounding", "ablate_wall_s", "cold-tail",
       "per-image grounding walks in one ablate"),
    _m("grounding.calls_per_image", "count", "lower", "grounding", "ablate_wall_s",
       "cold-tail", "gateway requests made inside one grounding walk, on average"),
    _m("grounding.image_p50_ms", "ms", "lower", "grounding", "ablate_wall_s", "cold-tail",
       "median duration of one grounding walk"),
    _m("grounding.image_p95_ms", "ms", "lower", "grounding", "ablate_wall_s", "cold-tail",
       "95th percentile of one grounding walk (highest with 10 samples beyond it)"),
    _m("gateway.complete_calls", "count", "lower", "gateway", "backend_calls", _CALLS,
       "ModelGateway.complete calls in one ablate"),
    _m("gateway.distinct_request_ratio", "share", "higher", "gateway", "backend_calls",
       _CALLS, "distinct cache keys / backend_calls; 0 when backend_calls is 0"),
    _m("gateway.digest_calls", "count", "lower", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "ImageRef.digest calls"),
    _m("gateway.digest_s", "s", "lower", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "time in ImageRef.digest, all threads"),
    _m("gateway.digest_mib", "MiB", "lower", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "image bytes hashed by ImageRef.digest"),
    _m("gateway.cache_key_s", "s", "lower", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "time in cache_key, including the digests it takes"),
    _m("gateway.cache_get_s", "s", "lower", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "time in ResponseCache.get"),
    _m("gateway.cache_hits", "count", "higher", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "ResponseCache.get calls that returned a reply"),
    _m("gateway.cache_misses", "count", "lower", "gateway", "ablate_wall_s, user_cpu_s", _KEYS,
       "ResponseCache.get calls that returned nothing"),
    _m("gateway.cache_hit_ratio", "share", "higher", "gateway", "ablate_wall_s, user_cpu_s",
       _KEYS, "cache_hits / (cache_hits + cache_misses); 0 when there is no lookup"),
    _m("gateway.cache_put_s", "s", "lower", "gateway", "user_cpu_s, sys_cpu_s",
       "cold-tail (0 on the other two)", "time in ResponseCache.put"),
    _m("gateway.cache_puts", "count", "lower", "gateway", "user_cpu_s, sys_cpu_s",
       "cold-tail (0 on the other two)", "ResponseCache.put calls"),
    _m("gateway.http_complete_s", "s", "lower", "gateway", "user_cpu_s, ablate_wall_s", _WIRE,
       "time in HttpBackend.complete, all threads, stub included"),
    _m("gateway.http_local_s", "s", "lower", "gateway", "user_cpu_s, ablate_wall_s", _WIRE,
       "http_complete_s minus the time inside the stub: payload, base64, JSON, requests"),
    _m("gateway.http_request_mib", "MiB", "lower", "gateway", "user_cpu_s, ablate_wall_s",
       _WIRE, "request bodies received by the stub"),
    _m("gateway.complete_p50_ms", "ms", "lower", "gateway", "user_cpu_s, ablate_wall_s", _WIRE,
       "median ModelGateway.complete duration"),
    _m("gateway.complete_p99_ms", "ms", "lower", "gateway", "user_cpu_s, ablate_wall_s", _WIRE,
       "99th percentile ModelGateway.complete duration"),
    _m("qa.answers", "count", "lower", "qa", "user_cpu_s", _LOCAL, "qa.answer calls"),
    _m("qa.answer_p50_ms", "ms", "lower", "qa", "user_cpu_s", _LOCAL,
       "median duration of one answer, gateway call included"),
    _m("qa.answer_p99_ms", "ms", "lower", "qa", "user_cpu_s", _LOCAL,
       "99th percentile duration of one answer"),
    _m("qa.prompt_build_s", "s", "lower", "qa", "user_cpu_s", _LOCAL,
       "time in build_augmented_prompt"),
    _m("qa.normalize_s", "s", "lower", "qa", "user_cpu_s", _LOCAL,
       "time in normalize_answer called while answering"),
    _m("qa.no_match_share", "share", "lower", "qa", "user_cpu_s", _LOCAL,
       "predictions normalized to <no-match> / predictions written"),
    _m("evaluate.load_manifest_s", "s", "lower", "evaluate", "ablate_wall_s, setup_s",
       _LOCAL, "time in load_manifest"),
    _m("evaluate.score_s", "s", "lower", "evaluate", "ablate_wall_s, setup_s", _LOCAL,
       "time in exact_match_accuracy and graded_accuracy"),
    _m("evaluate.report_json_s", "s", "lower", "evaluate", "ablate_wall_s, setup_s",
       _LOCAL, "time in report_to_json"),
    _m("cli.write_s", "s", "lower", "cli", "ablate_wall_s, setup_s", _LOCAL,
       "time writing --out files: write_predictions_jsonl and other Path.write_text"),
    _m("cli.output_mib", "MiB", "lower", "cli", "ablate_wall_s, setup_s", _LOCAL,
       "bytes in --out after one ablate"),
    _m("dsl.topological_order_calls", "count", "lower", "dsl", "ablate_wall_s, setup_s",
       _LOCAL, "topological_order calls"),
    _m("dsl.parse_schema_calls", "count", "lower", "dsl", "ablate_wall_s, setup_s",
       _LOCAL, "parse_schema calls"),
    *(
        _m(f"{layer}.self_s", "s", "lower", layer, "ablate_wall_s, user_cpu_s", "all",
           f"time with a {layer} span innermost on its thread, all threads summed")
        for layer in ("cli", "runner", "grounding", "qa", "gateway", "evaluate", "dsl",
                      "stub")
    ),
    _m("trace.overhead_share", "share", "lower", "trace", "none", _OVERHEAD,
       "median traced ablate wall / median untraced ablate wall - 1, same run"),
)


def benchmark_json() -> dict:
    """The projection of this catalog that BENCHMARK.json holds."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def describe() -> str:
    """Human-readable listing of every workload and metric."""
    lines = ["Workloads"]
    for w in WORKLOADS.values():
        lines.append(
            f"  {w.name}: {w.questions} questions, {w.images} images of ~{w.image_bytes} B, "
            f"cache {w.cache}, stub latency median {w.latency_ms} ms"
            f" (log-normal sigma {w.latency_sigma})"
        )
        lines.append(f"    why: {w.why}")
    lines.append("")
    lines.append("End-to-end metrics (untraced runs; bound = tolerated worsening of the median)")
    for m in END_TO_END:
        lines.append(f"  {m.name} [{m.unit}, {m.better} is better, bound {m.bound}]: {m.doc}")
    lines.append("")
    lines.append("Per-layer metrics (traced runs: --trace 1)")
    for m in PER_LAYER:
        lines.append(
            f"  {m.name} [{m.unit}, {m.better} is better, layer {m.layer}]: {m.doc}"
        )
        lines.append(f"      should move: {m.moves}; on: {m.where}")
    return "\n".join(lines)

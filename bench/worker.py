"""Runs one workload's `ablate` calls in a fresh interpreter and measures them.

Started by run.py as `python3 bench/worker.py SPEC.json`. It mounts the stub
backend, repeats the ablation until the measuring time is spent, checks every
repetition's outputs, and prints one JSON object as the last line of stdout.
With tracing on, every third repetition is untraced, so the same run gives
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import schemaground.cli  # noqa: E402  (imports every pipeline module)
from schemaground.toydata import toy_fixture_rules  # noqa: E402

import catalog  # noqa: E402
import stub  # noqa: E402
import tracing  # noqa: E402

NO_MATCH = "<no-match>"

# A traced run may measure this much longer than asked, to pool enough
# samples for its percentiles.
EXTRA_TRACE_S = 60


def output_digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def check_ladder(out: Path) -> list[str]:
    """Exact-match accuracy per mode must be the toy ladder."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    problems = []
    for mode, expected in catalog.EXPECTED_ACCURACY.items():
        got = summary["modes"][mode]["overall"]["mean"]
        if abs(got - expected) > 1e-9:
            problems.append(f"{mode} accuracy {got:.4f}, expected {expected:.4f}")
    return problems


def prediction_counts(out: Path) -> tuple[int, int]:
    """(predictions written, predictions normalized to no-match)."""
    total = no_match = 0
    for path in out.glob("*.predictions.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            total += 1
            no_match += json.loads(line)["normalized"] == NO_MATCH
    return total, no_match


def ablate_argv(spec: dict, out: Path, cache: Path | None) -> list[str]:
    argv = [
        "ablate",
        "--manifest", str(Path(spec["inputs"]) / "manifest.json"),
        "--backend-config", str(Path(spec["inputs"]) / "backend-http.json"),
        "--concurrency", str(spec["concurrency"]),
        "--out", str(out),
    ]
    if cache is not None:
        argv += ["--cache-dir", str(cache)]
    return argv


def run(spec: dict) -> dict:
    workload = catalog.WORKLOADS[spec["workload"]]
    inputs = Path(spec["inputs"])
    work = Path(spec["work"])
    concurrency = spec["concurrency"]
    adapter = stub.StubAdapter(
        toy_fixture_rules(),
        sorted((inputs / "images").glob("*.png")),
        stub.Latency(workload.latency_ms, workload.latency_sigma),
        spec["seed"],
    )
    tracer = tracing.Tracer() if spec["trace"] else None
    reference = spec.get("reference_digests")
    reps: list[dict] = []
    traces: list[tracing.RepTrace] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + spec["seconds"]
    with stub.mounted(adapter):
        while True:
            index = len(reps)
            traced = tracer is not None and index % 3 != 0
            out = work / f"out-{index}"
            cache = {"cold": work / f"cache-{index}", "warm": inputs / "cache"}.get(
                workload.cache
            )
            argv = ablate_argv(spec, out, cache)
            adapter.reset()
            if traced:
                tracer.install()
            rep_problems: list[str] = []
            code = None
            usage_start = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = schemaground.cli.main(argv)
            except Exception:  # a crash is a failed repetition, reported below
                rep_problems.append(traceback.format_exc(limit=5))
            finally:
                wall = time.perf_counter() - start
                # The stub stands in for a remote server: its CPU is not the
                # program's. It makes no system call but its sleep, so all of
                # it is user CPU.
                usage = resource.getrusage(resource.RUSAGE_SELF)
                user = usage.ru_utime - usage_start.ru_utime - adapter.cpu_s
                kernel = usage.ru_stime - usage_start.ru_stime
                if traced:
                    tracer.uninstall()

            predictions = no_match = output_bytes = 0
            if code != 0:
                rep_problems.append(f"ablate exited with {code}")
            else:
                rep_problems += check_ladder(out)
                digests = output_digests(out)
                if reference is None:
                    reference = digests
                elif digests != reference:
                    rep_problems.append("--out files differ from the first ablate's")
                predictions, no_match = prediction_counts(out)
                output_bytes = sum(path.stat().st_size for path in out.iterdir())
            rep_problems += adapter.problems
            if adapter.inflight_max > concurrency:
                rep_problems.append(
                    f"{adapter.inflight_max} requests in flight, concurrency {concurrency}"
                )
            if workload.cache == "warm" and adapter.calls:
                rep_problems.append(f"warm replay made {adapter.calls} backend calls")
            if reps and adapter.calls != reps[0]["calls"]:
                rep_problems.append(
                    f"backend calls {adapter.calls} differ from the first ablate's "
                    f"{reps[0]['calls']}"
                )
            attempted += 1 + adapter.calls
            failed += bool(rep_problems) + adapter.failures
            problems += [f"ablate {index}: {problem}" for problem in rep_problems]
            reps.append({"traced": traced, "wall": wall, "user": user, "sys": kernel,
                         "calls": adapter.calls})
            if traced:
                traces.append(
                    tracing.RepTrace(
                        spans=tracer.take(),
                        wall_s=wall,
                        stub_calls=adapter.calls,
                        stub_busy_s=adapter.busy_s,
                        stub_latency_s=adapter.latency_s,
                        stub_cpu_s=adapter.cpu_s,
                        stub_inflight_max=adapter.inflight_max,
                        stub_request_bytes=adapter.request_bytes,
                        output_bytes=output_bytes,
                        predictions=predictions,
                        no_match=no_match,
                    )
                )
            shutil.rmtree(out, ignore_errors=True)
            if workload.cache == "cold":
                shutil.rmtree(cache, ignore_errors=True)
            if tracer is None:
                enough = True
            else:
                enough = len(reps) >= 2 and (
                    tracing.enough_samples(traces, tracer.missing)
                    or time.perf_counter() >= deadline + EXTRA_TRACE_S
                )
            if enough and time.perf_counter() >= deadline:
                break

    untraced = [rep for rep in reps if not rep["traced"]]
    wall = statistics.median(rep["wall"] for rep in untraced)
    metrics: dict[str, object] = {
        "ablate_wall_s": wall,
        "predictions_per_s": 5 * spec["questions"] / wall,
        "user_cpu_s": statistics.median(rep["user"] for rep in untraced),
        "sys_cpu_s": statistics.median(rep["sys"] for rep in untraced),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        metrics.update(layer_metrics(traces, tracer.missing, concurrency))
        metrics["trace.overhead_share"] = (
            statistics.median(rep["wall"] for rep in reps if rep["traced"]) / wall - 1
        )
        tracing.write_spans([t.spans for t in traces], Path(spec["spans_out"]))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "samples": {"untraced": len(untraced), "traced": len(traces)},
        "reps": reps,
        "missing_hooks": tracer.missing if tracer is not None else [],
        "problems": problems,
        "metrics": metrics,
    }


def layer_metrics(traces, missing, concurrency) -> dict:
    """Per-layer metrics over the traced ablates: medians of per-ablate values,
    and percentiles of samples pooled over them."""
    per_rep = [tracing.rep_metrics(t, concurrency, missing) for t in traces]
    metrics = {}
    for name in per_rep[0]:
        values = [values[name] for values in per_rep]
        metrics[name] = None if None in values else statistics.median(values)
    metrics.update(tracing.percentile_metrics(traces, missing))
    return metrics


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

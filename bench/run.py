"""Offline benchmark of the five-mode `ablate` run.

    python3 bench/run.py --workload cold-tail --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, untraced then traced
    python3 bench/run.py --describe            # workloads and metrics, documented

One run sets the workload up several times, timing each set-up: it generates
the inputs from the seed and starts the program once. Between the first and
the second half of the set-ups, a fresh worker interpreter repeats the real
`schemaground.cli` ablate against an in-process stub backend for `--seconds`
and checks every repetition's outputs. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones. The
exit code is 0 only when every check passed, and 2, with no result, when
the program's source is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import catalog  # noqa: E402

# Timed set-ups; setup_s is their median. A fast set-up (a few tenths of a
# second) is repeated until SETUP_MIN_S is spent, so its median rests on many
# samples.
SETUPS = 5
SETUP_MIN_S = 3.0
TIME_LIMIT_S = 170


def _source_present() -> bool:
    return (SRC / "schemaground" / "cli.py").is_file()


def run_workload(args) -> dict:
    workload = catalog.WORKLOADS[args.workload]
    replicas = args.replicas or workload.replicas
    concurrency = len(os.sched_getaffinity(0))
    started = time.perf_counter()
    work = BENCH / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    from inputs import set_up  # imported before set-up is timed

    try:
        setup_times: list[float] = []
        setup_problems: list[str] = []
        problems: list[str] = []
        chosen = None

        def set_up_until(count: int, seconds: float) -> None:
            nonlocal chosen
            while len(setup_times) < count or sum(setup_times) < seconds:
                root = work / f"setup-{len(setup_times)}"
                start = time.perf_counter()
                candidate, found = set_up(
                    root, args.seed, replicas, workload.image_bytes,
                    workload.cache == "warm", concurrency,
                )
                setup_times.append(time.perf_counter() - start)
                setup_problems.extend(found)
                if chosen is None:
                    chosen = candidate
                else:
                    shutil.rmtree(root)

        # Half of the set-ups run before measuring and half after, so that
        # setup_s samples the same stretch of time as the measured ablates.
        set_up_until(SETUPS // 2 + 1, SETUP_MIN_S / 2)

        spec = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "inputs": str(chosen.root),
            "work": str(work / "runs"),
            "concurrency": concurrency,
            "questions": chosen.questions,
            "spans_out": str(BENCH / ".out" / f"spans-{workload.name}.jsonl"),
        }
        if workload.cache == "warm":
            from worker import output_digests

            spec["reference_digests"] = output_digests(chosen.root / "prefill-out")
        (work / "runs").mkdir(parents=True)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # Leave as long again for the set-ups after measuring.
        budget = max(10.0, TIME_LIMIT_S - 2 * (time.perf_counter() - started))
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "samples": {}, "problems": []}
        try:
            child = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                capture_output=True,
                text=True,
                timeout=budget,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"worker did not finish within {budget:.0f} s")
        else:
            lines = child.stdout.strip().splitlines()
            if child.returncode == 0 and lines:
                result = json.loads(lines[-1])
            else:
                problems.append(f"worker exited with {child.returncode}: {child.stderr[-2000:]}")
        set_up_until(SETUPS, SETUP_MIN_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += setup_problems + result["problems"]
    attempted = (len(setup_times) if workload.cache == "warm" else 0) + result["attempted"]
    failed = len(setup_problems) + result["failed"]
    measured = result["metrics"]
    measured["setup_s"] = statistics.median(setup_times)
    measured["failed_share"] = failed / attempted
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    return {
        "correct": not problems and result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": measured.get(m.name), "unit": m.unit} for m in wanted},
        "samples": {**result["samples"], "setups": len(setup_times)},
        "reps": result.get("reps", []),
        "setup_times": setup_times,
        "missing_hooks": result.get("missing_hooks", []),
        "problems": problems,
    }


def report_lines(name: str, args, result: dict) -> list[str]:
    samples = result["samples"]
    kind = "traced" if args.trace else "untraced"
    lines = [
        f"# {name} seed {args.seed}: {samples.get(kind, 0)} {kind} ablate runs "
        f"({samples.get('untraced', 0)} untraced in all), {samples['setups']} set-ups, "
        f"correct={result['correct']}"
    ]
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    for metric in wanted:
        value = result["metrics"][metric.name]["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        n = samples["setups"] if metric.name == "setup_s" else samples.get(kind, 0)
        lines.append(
            f"#   {metric.name:<34} {shown:>12} {metric.unit:<6} "
            f"{metric.better} is better, n={n}"
        )
    setups = result["setup_times"]
    lines.append(
        f"#   set-ups: min {min(setups):.4f} s, median {statistics.median(setups):.4f} s, "
        f"max {max(setups):.4f} s"
    )
    for rep in result["reps"]:
        lines.append(
            f"#   ablate {'traced' if rep['traced'] else 'untraced'}: wall {rep['wall']:.4f} s, "
            f"user cpu {rep['user']:.4f} s, sys cpu {rep['sys']:.4f} s, "
            f"backend calls {rep['calls']}"
        )
    for hook in result["missing_hooks"]:
        lines.append(f"#   hook missing: {hook}")
    for problem in result["problems"]:
        lines.append(f"#   FAILED CHECK: {problem.strip()}")
    return lines


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    all_correct = True
    for name in catalog.WORKLOADS:
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.replicas:
                argv += ["--replicas", str(args.replicas)]
            child = subprocess.run(argv, capture_output=True, text=True, timeout=3 * TIME_LIMIT_S)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) if lines else child.stderr, flush=True)
            all_correct &= child.returncode == 0
    print(f"# all workloads correct: {all_correct}")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*catalog.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--replicas", type=int, default=None,
        help="copies of the 12 toy questions, overriding the workload's (smoke tests)",
    )
    parser.add_argument("--describe", action="store_true", help="print workloads and metrics")
    args = parser.parse_args(argv)
    if args.describe:
        print(catalog.describe())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not _source_present():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args)
    print("\n".join(report_lines(args.workload, args, result)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

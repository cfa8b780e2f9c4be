"""Tests of the benchmark itself: deterministic inputs, a stub that answers as
the scripted backend does, the tracer, and tiny smoke runs of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalog  # noqa: E402
import stub  # noqa: E402
import tracing  # noqa: E402
from inputs import generate  # noqa: E402
from schemaground import cli  # noqa: E402
from schemaground.gateway import HttpBackend, ScriptedBackend  # noqa: E402
from schemaground.toydata import make_toy_dataset, toy_fixture_rules  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    first = generate(tmp_path / "a", seed=7, replicas=2, image_bytes=4096)
    again = generate(tmp_path / "b", seed=7, replicas=2, image_bytes=4096)
    other = generate(tmp_path / "c", seed=8, replicas=2, image_bytes=4096)
    assert _tree(first.root) == _tree(again.root)
    assert first.questions == 24 and len(first.images) == 8
    assert len({p.read_bytes() for p in first.images}) == 8
    assert first.images[0].read_bytes() != other.images[0].read_bytes()
    assert (first.root / "manifest.json").read_bytes() == (other.root / "manifest.json").read_bytes()


def test_image_size_tracks_the_request(tmp_path):
    inputs = generate(tmp_path, seed=1, replicas=1, image_bytes=256 << 10)
    size = inputs.images[0].stat().st_size
    assert abs(size - (256 << 10)) < 2048


def _ablate(manifest: Path, config: Path, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ablate", "--manifest", str(manifest),
                         "--backend-config", str(config), "--out", str(out)]) == 0


def test_stub_replies_equal_scripted_replies_on_the_toy_set(tmp_path, monkeypatch):
    toy = make_toy_dataset(tmp_path / "toy")
    seen = []
    scripted_complete = ScriptedBackend.complete

    def recording(self, request):
        reply = scripted_complete(self, request)
        seen.append((request, reply))
        return reply

    monkeypatch.setattr(ScriptedBackend, "complete", recording)
    _ablate(toy.manifest_path, toy.backend_config_path, tmp_path / "scripted")
    monkeypatch.undo()
    assert len(seen) > 12

    adapter = stub.StubAdapter(
        toy_fixture_rules(), toy.image_paths.values(), stub.Latency(), seed=0
    )
    http_config = tmp_path / "toy" / "backend-http.json"
    http_config.write_text(json.dumps({
        "backend_id": "scripted-toy", "kind": "http", "model_id": "scripted-vlm",
        "base_url": stub.STUB_URL,
    }))
    with stub.mounted(adapter):
        backend = HttpBackend(stub.STUB_URL, backend_id="scripted-toy")
        for request, reply in seen:
            assert backend.complete(request) == reply
        assert adapter.calls == len(seen)
        _ablate(toy.manifest_path, http_config, tmp_path / "stubbed")
    assert _tree(tmp_path / "stubbed") == _tree(tmp_path / "scripted")
    assert adapter.problems == []
    assert adapter.inflight_max <= 4


def test_stub_rejects_an_image_that_is_not_a_generated_file(tmp_path):
    inputs = generate(tmp_path / "in", seed=1, replicas=1, image_bytes=1024)
    adapter = stub.StubAdapter(toy_fixture_rules(), inputs.images[1:], stub.Latency(), seed=0)
    body = {
        "model": "m",
        "messages": [{
            "role": "user",
            "content": [
                {"type": "text", "text": "How many electrons are visible?"},
                {"type": "image_url", "image_url": {"url": stub.data_url(inputs.images[0])}},
            ],
        }],
    }
    with stub.mounted(adapter):
        import requests

        response = requests.Session().post(f"{stub.STUB_URL}/chat/completions", json=body)
    assert response.status_code == 400
    assert adapter.failures == 1
    assert "matches no generated image" in adapter.problems[0]


def test_latency_is_a_pure_function_of_seed_and_body():
    latency = stub.Latency(median_ms=20, sigma=0.6)
    draws = [latency.seconds(3, i.to_bytes(2, "big")) for i in range(2000)]
    assert draws == [latency.seconds(3, i.to_bytes(2, "big")) for i in range(2000)]
    assert draws != [latency.seconds(4, i.to_bytes(2, "big")) for i in range(2000)]
    assert 0.018 < sorted(draws)[1000] < 0.022
    assert 0.060 < sorted(draws)[1980] < 0.100  # p99 near 4 x the median
    assert stub.Latency().seconds(3, b"x") == 0.0


def test_tracer_reports_missing_hooks_and_restores_originals():
    import schemaground.qa as qa
    import schemaground.runner as runner

    original = qa.answer
    hooks = (
        tracing.Hook("qa", "schemaground.qa", "answer"),
        tracing.Hook("runner", "schemaground.runner", "evaluate_everything"),
    )
    tracer = tracing.Tracer(hooks)
    tracer.install()
    try:
        assert qa.answer is not original
        assert runner.answer is qa.answer
    finally:
        tracer.uninstall()
    assert qa.answer is original and runner.answer is original
    assert tracer.missing == ["runner:evaluate_everything"]


def test_self_time_and_groups_follow_each_thread():
    spans = [
        tracing.Span(1, None, 1, "qa:answer", 10, 0.0, 1.0, None),
        tracing.Span(2, 1, 1, "gateway:ModelGateway.complete", 10, 0.2, 0.8, None),
        tracing.Span(3, 2, 1, "stub:StubAdapter.send", 10, 0.3, 0.7, None),
    ]
    rep = tracing.RepTrace(spans, 1.0, 1, 0.4, 0.3, 0.01, 1, 100, 10, 5, 1)
    metrics = tracing.rep_metrics(rep, concurrency=2, missing=["runner:run_predictions"])
    assert metrics["qa.self_s"] == pytest.approx(0.4)
    assert metrics["gateway.self_s"] == pytest.approx(0.2)
    assert metrics["stub.self_s"] == pytest.approx(0.4)
    assert metrics["runner.idle_slot_s"] is None
    assert metrics["qa.no_match_share"] == pytest.approx(0.2)
    assert tracing.percentile(list(range(100)), 0.95) is None
    assert tracing.percentile(list(range(200)), 0.95) == 189


def test_benchmark_json_mirrors_the_catalog():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert recorded == catalog.benchmark_json()
    names = [m["name"] for m in recorded["end_to_end"] + recorded["per_layer"]]
    assert len(names) == len(set(names))


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *map(str, argv)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    result = _run("--workload", workload, "--seed", 5, "--seconds", 0.1,
                  "--trace", trace, "--replicas", 1)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(last["metrics"]) == [m.name for m in wanted]
    for metric in wanted:
        entry = last["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        if not metric.name.endswith(("_p95_ms", "_p99_ms")):  # too few samples at this size
            assert isinstance(entry["value"], (int, float)), metric.name
    if trace:
        calls = last["metrics"]["backend_calls"]["value"]
        assert (calls == 0) == (workload == "warm-replay")
        assert last["metrics"]["gateway.complete_calls"]["value"] > 0
    else:
        assert all(last["metrics"][m.name]["value"] > 0 for m in wanted)


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    result = _run("--workload", "cold-tail", "--seed", 1, "--seconds", 1, "--trace", 0,
                  cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""

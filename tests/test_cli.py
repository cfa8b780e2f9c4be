"""End-to-end CLI runs in subprocesses: files written, tables printed,
deliberate failures mapped to their exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import schemaground
from schemaground.dsl import render_schema
from schemaground.extraction import load_canonical_schema
from schemaground.toydata import TOY_BINDINGS, TOY_SEQUENTIAL_DRIFT

from helpers import checkout_env

LADDER = {
    "baseline": 1 / 12,
    "schema_only": 2 / 12,
    "grounding_sequential": 9 / 12,
    "grounding_hierarchical": 1.0,
    "full_dsg": 1.0,
}


def run_cli(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "schemaground.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=checkout_env(),
    )


def test_subprocess_imports_the_package_under_test(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", "import schemaground; print(schemaground.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(Path(schemaground.__file__).resolve())


def test_program_start_does_not_import_requests(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, schemaground.cli; print('requests' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _backend_args(toy, tmp_path):
    return (
        "--backend-config", toy.backend_config_path,
        "--cache-dir", tmp_path / "cache",
    )


# ------------------------------------------------------------------ extract


def test_extract_canonical_matches_packaged_fixture(tmp_path):
    out = tmp_path / "tic-tac-toe.schema"
    result = run_cli("extract", "tic-tac-toe", "--canonical", "--out", out, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert f"wrote {out}" in result.stdout
    assert out.read_text() == render_schema(load_canonical_schema("tic-tac-toe"))


def test_extract_unknown_concept_exit_code(tmp_path):
    result = run_cli("extract", "warp-drive", "--canonical", cwd=tmp_path)
    assert result.returncode == 31
    assert "UnknownConceptError" in result.stderr


def test_extract_via_scripted_backend(toy, tmp_path):
    out = tmp_path / "maze.schema"
    result = run_cli(
        "extract", "maze", "--out", out, *_backend_args(toy, tmp_path), cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text() == render_schema(load_canonical_schema("maze"))


def test_extract_without_backend_or_canonical(tmp_path):
    result = run_cli("extract", "maze", cwd=tmp_path)
    assert result.returncode == 23
    assert "BackendConfigError" in result.stderr


# ------------------------------------------------------------------- ground


@pytest.fixture()
def maze_schema_file(tmp_path):
    path = tmp_path / "maze.schema"
    path.write_text(render_schema(load_canonical_schema("maze")))
    return path


def test_ground_hierarchical_writes_bindings(toy, tmp_path, maze_schema_file):
    out = tmp_path / "resolved.json"
    result = run_cli(
        "ground",
        "--schema", maze_schema_file,
        "--image", toy.image_paths["maze"],
        "--out", out,
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert f"wrote {out} (3 bindings)" in result.stdout
    payload = json.loads(out.read_text())
    descriptions = {entry["component"]: entry["description"] for entry in payload["bindings"]}
    assert descriptions == TOY_BINDINGS["maze"]
    assert len(payload["transcript"]) == 6


def test_ground_sequential_diverges_on_dependent_component(toy, tmp_path, maze_schema_file):
    out = tmp_path / "resolved-seq.json"
    result = run_cli(
        "ground",
        "--schema", maze_schema_file,
        "--image", toy.image_paths["maze"],
        "--sequential",
        "--out", out,
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    descriptions = {entry["component"]: entry["description"] for entry in payload["bindings"]}
    assert descriptions["entry-exit"] == TOY_SEQUENTIAL_DRIFT[("maze", "entry-exit")]
    queries = [turn["text"] for turn in payload["transcript"] if turn["role"] == "user"]
    assert all(", and the" not in query for query in queries)


def test_ground_missing_image(toy, tmp_path, maze_schema_file):
    result = run_cli(
        "ground",
        "--schema", maze_schema_file,
        "--image", tmp_path / "absent.png",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 51
    assert "MissingImageError" in result.stderr


# ------------------------------------------------------------------- answer


def test_answer_writes_predictions(toy, tmp_path):
    result = run_cli(
        "answer",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    path = tmp_path / "out" / "baseline.predictions.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    ids = [json.loads(line)["instance_id"] for line in lines]
    assert ids == sorted(ids)


# ----------------------------------------------------------------- evaluate


def test_evaluate_two_modes_prints_two_row_tables(toy, tmp_path):
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--mode", "full_dsg",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    tables = result.stdout.split("\n\n")
    assert len(tables) >= 2
    for table in tables[:2]:
        lines = table.splitlines()
        assert lines[0].startswith("mode")
        assert lines[2].startswith("baseline")
        assert lines[3].startswith("full_dsg")
    assert "0.083 ± 0.000" in result.stdout
    assert "1.000 ± 0.000" in result.stdout
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert sorted(summary["modes"]) == ["baseline", "full_dsg"]
    assert summary["metric"] == "exact_match"
    for mode in ("baseline", "full_dsg"):
        assert (tmp_path / "out" / f"{mode}.predictions.jsonl").is_file()
        assert (tmp_path / "out" / f"{mode}.report.json").is_file()


def test_evaluate_repeated_mode_runs_once(toy, tmp_path):
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--mode", "baseline",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    tables = result.stdout.split("\n\n")
    assert len(tables) == 2
    for table in tables:
        rows = [line for line in table.splitlines() if line.startswith("baseline")]
        assert len(rows) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert list(summary["modes"]) == ["baseline"]


def test_evaluate_multi_run_is_deterministic(toy, tmp_path):
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "grounding_hierarchical",
        "--runs", "2",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(
        (tmp_path / "out" / "grounding_hierarchical.report.json").read_text()
    )
    assert report["runs"] == 2
    assert report["overall"]["per_run"] == [1.0, 1.0]
    assert report["overall"]["std"] == 0.0


def test_evaluate_graded_metric(toy, tmp_path):
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "grounding_hierarchical",
        "--metric", "graded",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(
        (tmp_path / "out" / "grounding_hierarchical.report.json").read_text()
    )
    assert report["metric"] == "graded"
    assert report["overall"]["mean"] == pytest.approx(0.85, abs=1e-9)


def test_evaluate_human_row(toy, tmp_path):
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--human-row",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "baseline.report.json").read_text())
    assert report["human"] is not None
    assert len(report["human"]["per_run"]) == 5


def test_answer_free_response_flag(toy, tmp_path):
    result = run_cli(
        "answer",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--free-response",
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "out" / "baseline.predictions.jsonl").read_text().splitlines()
    normalized = [json.loads(line)["normalized"] for line in lines]
    assert "<no-match>" not in normalized


# ------------------------------------------------------------------- ablate


def test_ablate_covers_all_five_modes(toy, tmp_path):
    result = run_cli(
        "ablate",
        "--manifest", toy.manifest_path,
        "--out", tmp_path / "out",
        *_backend_args(toy, tmp_path),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    means = {}
    for mode, expected in LADDER.items():
        report = json.loads((tmp_path / "out" / f"{mode}.report.json").read_text())
        means[mode] = report["overall"]["mean"]
        assert means[mode] == pytest.approx(expected, abs=1e-9), mode
    ordered = [means[mode] for mode in LADDER]
    assert ordered == sorted(ordered)
    first_table = result.stdout.split("\n\n")[0].splitlines()
    assert [line.split()[0] for line in first_table[2:]] == list(LADDER)


def test_readme_quick_start_script(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_offline_ablation.py"
    result = subprocess.run(
        [sys.executable, script, "--workdir", tmp_path / "ablation"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads((tmp_path / "ablation" / "out" / "summary.json").read_text())
    ladder = {mode: round(report["overall"]["mean"], 3) for mode, report in summary["modes"].items()}
    assert ladder == {
        "baseline": 0.083,
        "schema_only": 0.167,
        "grounding_sequential": 0.75,
        "grounding_hierarchical": 1.0,
        "full_dsg": 1.0,
    }


# --------------------------------------------------------------- exit codes


def test_bad_backend_config_exit_code(toy, tmp_path):
    config = tmp_path / "backend.json"
    config.write_text(json.dumps({"backend_id": "b", "kind": "smoke-signals", "model_id": "m"}))
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--backend-config", config,
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 23
    assert "BackendConfigError" in result.stderr


def test_invalid_manifest_exit_code(toy, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"subset": True, "instances": [{"id": "x"}]}))
    result = run_cli(
        "evaluate",
        "--manifest", manifest,
        *_backend_args(toy, tmp_path),
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 50
    assert "ManifestInvalidError" in result.stderr


def test_fixture_miss_exit_code(toy, tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text("[]")
    config = tmp_path / "backend.json"
    config.write_text(
        json.dumps(
            {"backend_id": "b", "kind": "scripted", "model_id": "m", "fixture_path": "rules.json"}
        )
    )
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--backend-config", config,
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 21
    assert "FixtureMissError" in result.stderr


def test_schema_dir_override_for_another_concept(toy, tmp_path):
    schema_dir = tmp_path / "schemas"
    schema_dir.mkdir()
    (schema_dir / "maze.schema").write_text(render_schema(load_canonical_schema("atom")))
    result = run_cli(
        "ablate",
        "--manifest", toy.manifest_path,
        "--schema-dir", schema_dir,
        *_backend_args(toy, tmp_path),
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 13
    assert "ConceptMismatchError" in result.stderr
    assert str(schema_dir / "maze.schema") in result.stderr
    assert not list((tmp_path / "cache").glob("*.json"))


def test_usage_errors_exit_two(tmp_path):
    assert run_cli(cwd=tmp_path).returncode == 2
    assert run_cli("evaporate", cwd=tmp_path).returncode == 2
    assert run_cli("evaluate", "--manifest", "m.json", "--mode", "psychic",
                   "--backend-config", "b.json", cwd=tmp_path).returncode == 2
    for command, flag in (("evaluate", "--concurrency"), ("answer", "--runs")):
        result = run_cli(command, "--manifest", "m.json", flag, "0",
                         "--backend-config", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert "must be at least 1" in result.stderr
    for command, flag, value, floor in (
        ("answer", "--max-tokens", "0", "1"),
        ("ablate", "--max-tokens", "0", "1"),
        ("answer", "--temperature", "-1", "0.0"),
    ):
        result = run_cli(command, "--manifest", "m.json", flag, value,
                         "--backend-config", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert f"must be at least {floor}" in result.stderr
    result = run_cli("extract", "maze", "--max-retries", "-1",
                     "--backend-config", "b.json", cwd=tmp_path)
    assert result.returncode == 2
    assert "must be at least 0" in result.stderr
    (tmp_path / "maze.schema").write_text(render_schema(load_canonical_schema("maze")))
    (tmp_path / "x.gif").write_bytes(b"GIF89a")
    for schema, image, message in (
        ("absent.schema", "x.png", "cannot read absent.schema"),
        ("maze.schema", "x.gif", "cannot infer media type"),
    ):
        result = run_cli("ground", "--schema", schema, "--image", image,
                         "--backend-config", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert message in result.stderr

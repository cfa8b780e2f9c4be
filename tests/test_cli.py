"""End-to-end CLI runs in subprocesses: files written, tables printed,
deliberate failures mapped to their exit codes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schemaground
from schemaground import cli
from schemaground.dsl import render_schema
from schemaground.errors import EXIT_CODES
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import ScriptedBackend
from schemaground.toydata import TOY_BINDINGS, TOY_SEQUENTIAL_DRIFT, toy_fixture_rules

from helpers import PassThrough, checkout_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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


# One ablate sends each of its 72 distinct requests once, with a cache or
# without, and writes the same 11 files, whatever the size of its pool. A
# pass-through backend stands between each gateway and the scripted one, so
# workers let the turn go at each call as they do before a live backend.
@pytest.mark.parametrize("cached", [False, True])
def test_ablate_calls_and_files_do_not_depend_on_concurrency(toy, tmp_path, monkeypatch, cached):
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend,
        "complete",
        lambda self, request: (calls.append(request), complete(self, request))[1],
    )
    gateway_for = cli._gateway

    def pass_through_gateway(args):
        gateway = gateway_for(args)
        PassThrough(gateway)
        return gateway

    monkeypatch.setattr(cli, "_gateway", pass_through_gateway)
    outputs = {}
    for concurrency in (1, 2, 16):
        out = tmp_path / f"out-{concurrency}"
        cache = ["--cache-dir", str(tmp_path / f"cache-{concurrency}")] if cached else []
        before = len(calls)
        code = cli.main([
            "ablate",
            "--manifest", str(toy.manifest_path),
            "--backend-config", str(toy.backend_config_path),
            "--concurrency", str(concurrency),
            "--out", str(out),
            *cache,
        ])
        assert code == 0
        assert len(calls) - before == 72
        outputs[concurrency] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(outputs[1]) == 11
    assert outputs[1] == outputs[2] == outputs[16]


def test_readme_quick_start_script(tmp_path):
    script = SCRIPTS / "run_offline_ablation.py"
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


def test_make_toy_dataset_script(tmp_path):
    out = tmp_path / "toy"
    result = subprocess.run(
        [sys.executable, SCRIPTS / "make_toy_dataset.py", "--out", out],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["instances"]) == 12
    assert isinstance(json.loads((out / "fixtures.json").read_text()), list)
    assert json.loads((out / "backend.json").read_text())["fixture_path"] == "fixtures.json"
    assert sorted(path.name for path in (out / "images").iterdir()) == [
        "atom.png", "cell.png", "maze.png", "solar-system.png",
    ]
    assert f"images:         4 under {out / 'images'}" in result.stdout


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


def test_a_base_url_without_a_scheme_exits_23_before_any_request(toy, tmp_path):
    config = tmp_path / "backend.json"
    config.write_text(json.dumps({
        "backend_id": "b", "kind": "http", "model_id": "m", "base_url": "api.example.test/v1",
    }))
    result = run_cli(
        "ablate",
        "--manifest", toy.manifest_path,
        "--backend-config", config,
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 23
    assert "BackendConfigError: bad base_url 'api.example.test/v1'" in result.stderr
    assert "attempt" not in result.stderr
    assert not (tmp_path / "out").exists()


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


def test_a_manifest_without_instances_exits_50(toy, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"subset": True, "instances": []}))
    for command in ("evaluate", "answer"):
        out = tmp_path / command
        result = run_cli(
            command,
            "--manifest", manifest,
            *_backend_args(toy, tmp_path),
            "--out", out,
            cwd=tmp_path,
        )
        assert result.returncode == 50, result.stderr
        assert "no instances" in result.stderr
        assert not out.exists()


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


def test_a_failure_in_a_later_mode_writes_no_predictions(toy, tmp_path):
    # Without the replies that only sequential grounding gets, every mode but
    # grounding_sequential, the third, has its replies.
    drift = set(TOY_SEQUENTIAL_DRIFT.values())
    rules = [rule for rule in toy_fixture_rules() if rule["reply"] not in drift]
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    config = tmp_path / "backend.json"
    config.write_text(
        json.dumps(
            {"backend_id": "b", "kind": "scripted", "model_id": "m", "fixture_path": "rules.json"}
        )
    )
    common = ("--manifest", toy.manifest_path, "--backend-config", config, "--out")
    others = [mode for mode in LADDER if mode != "grounding_sequential"]
    modes = [arg for mode in others for arg in ("--mode", mode)]
    result = run_cli("evaluate", *modes, *common, tmp_path / "others", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    result = run_cli("ablate", *common, tmp_path / "out", cwd=tmp_path)
    assert result.returncode == 21
    assert "FixtureMissError" in result.stderr
    assert "while grounding component" in result.stderr
    assert not list(tmp_path.glob("out/*.predictions.jsonl"))


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


# A `<concept>.schema` that is not a readable UTF-8 file is a schema error
# naming it: not a traceback, and not a silent fall-back to the canonical
# schema.
@pytest.mark.parametrize("kind", ["not-utf8", "directory", "dangling-link"])
def test_unreadable_schema_dir_file_exits_ten(toy, tmp_path, kind):
    schema_dir = tmp_path / "sd"
    schema_dir.mkdir()
    bad = schema_dir / "maze.schema"
    if kind == "directory":
        bad.mkdir()
    elif kind == "dangling-link":
        bad.symlink_to(tmp_path / "no-such-file")
    else:
        bad.write_bytes(b"\xff\xfe")
    result = run_cli(
        "evaluate",
        "--manifest", toy.manifest_path,
        "--mode", "baseline",
        "--schema-dir", schema_dir,
        *_backend_args(toy, tmp_path),
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 10, result.stderr
    assert "SchemaSyntaxError" in result.stderr
    assert str(bad) in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


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
    for extra in ((), ("--canonical",)):
        result = run_cli("extract", "", *extra, "--backend-config", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert "must be non-empty" in result.stderr
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
    # A mistyped --schema-dir would otherwise score the canonical schemas.
    for command in ("answer", "evaluate", "ablate"):
        for schema_dir in ("no/such/dir", "maze.schema"):
            result = run_cli(command, "--manifest", "m.json", "--schema-dir", schema_dir,
                             "--backend-config", "b.json", cwd=tmp_path)
            assert result.returncode == 2
            assert f"{schema_dir} is not an existing directory" in result.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_temperature_exits_two(tmp_path, value):
    result = run_cli("ablate", "--manifest", "m.json", "--temperature", value,
                     "--backend-config", "b.json", cwd=tmp_path)
    assert result.returncode == 2
    assert f"must be finite, got {value}" in result.stderr


@pytest.mark.parametrize("cache_dir", ["taken", "taken/sub"])
def test_cache_dir_at_or_under_a_file_exits_two(toy, tmp_path, cache_dir):
    (tmp_path / "taken").write_text("not a directory")
    result = run_cli(
        "ablate",
        "--manifest", toy.manifest_path,
        "--backend-config", toy.backend_config_path,
        "--cache-dir", cache_dir,
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert "taken exists and is not a directory" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def _run_without_rules(toy, tmp_path, command, out):
    """The exit code of `command` with `--out tmp_path/<out>`, or with no
    `--out` when out is None, against a backend with no fixture rules, so
    that any backend call fails: 21, or 30 from `extract`. `taken` is an
    existing file there, and `made` and `maze.schema` (the default `extract
    maze` output, when tmp_path is the working directory) existing
    directories."""
    (tmp_path / "taken").write_text("not a directory")
    (tmp_path / "made").mkdir()
    (tmp_path / "maze.schema").mkdir()
    (tmp_path / "rules.json").write_text("[]")
    config = tmp_path / "backend.json"
    config.write_text(json.dumps(
        {"backend_id": "b", "kind": "scripted", "model_id": "m", "fixture_path": "rules.json"}
    ))
    if command == "extract":
        argv = ["extract", "maze"]
    elif command == "ground":
        schema = tmp_path / "ground.schema"
        schema.write_text(render_schema(load_canonical_schema("maze")))
        argv = ["ground", "--schema", str(schema), "--image", str(toy.image_paths["maze"])]
    else:
        argv = [command, "--manifest", str(toy.manifest_path)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    try:
        return cli.main([*argv, "--backend-config", str(config)])
    except SystemExit as exit_:
        return exit_.code


# A bad --out is a usage error, found when the arguments are parsed, not
# after the backend calls.
@pytest.mark.parametrize(
    ("command", "out"),
    [
        (command, out)
        for command, outs in (
            ("answer", ("taken", "taken/sub")),
            ("evaluate", ("taken", "taken/sub")),
            ("ablate", ("taken", "taken/sub")),
            ("extract", ("made", "taken/sub", None)),
            ("ground", ("made", "taken/sub")),
        )
        for out in outs
    ],
)
def test_a_bad_out_exits_two_before_any_backend_call(
    toy, tmp_path, capsys, monkeypatch, command, out
):
    monkeypatch.chdir(tmp_path)
    assert _run_without_rules(toy, tmp_path, command, out) == 2
    err = capsys.readouterr().err
    if out == "made":
        assert "made is an existing directory" in err
    elif out is None:
        assert "argument --out: maze.schema is an existing directory" in err
    else:
        assert "taken exists and is not a directory" in err
    assert (tmp_path / "taken").read_text() == "not a directory"


# The control: an existing output file may be overwritten, and an existing
# output directory is used, so these get as far as the backend call.
@pytest.mark.parametrize(
    ("command", "out", "code"),
    [("extract", "taken", 30), ("ground", "taken", 21), ("ablate", "made", 21)],
)
def test_a_good_out_gets_as_far_as_the_backend(toy, tmp_path, capsys, command, out, code):
    assert _run_without_rules(toy, tmp_path, command, out) == code
    assert "FixtureMissError" in capsys.readouterr().err


def test_a_cache_entry_that_is_a_directory_is_a_miss_and_is_left_alone(toy, tmp_path):
    def ablate(name):
        result = run_cli(
            "ablate",
            "--manifest", toy.manifest_path,
            "--backend-config", toy.backend_config_path,
            "--cache-dir", tmp_path / f"{name}-cache",
            "--out", tmp_path / name,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        files = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        return result, files, result.stdout.replace(str(tmp_path / name), "<OUT>")

    _, clean_files, clean_stdout = ablate("clean")
    entry = tmp_path / "taken-cache" / min(path.name for path in tmp_path.glob("clean-cache/*"))
    entry.mkdir(parents=True)
    result, files, stdout = ablate("taken")
    assert files == clean_files
    assert stdout == clean_stdout
    assert f"cache entry {entry} not written" in result.stderr
    assert "Traceback" not in result.stderr
    assert entry.is_dir()
    assert len(list(entry.parent.glob("*.json"))) == 72
    assert not list(entry.parent.glob("*.tmp"))


def test_readme_exit_code_table_is_the_code_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if re.match(r"\| \d+ \|", line)
    ]
    assert [int(code) for code, _, _ in rows] == sorted({1, 2, *EXIT_CODES.values()})
    assert {name.strip("`"): int(code) for code, name, _ in rows if name != "—"} == {
        error.__name__: code for error, code in EXIT_CODES.items()
    }
    assert [int(code) for code, name, _ in rows if name == "—"] == [1, 2]

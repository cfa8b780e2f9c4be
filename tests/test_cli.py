"""End-to-end CLI runs in subprocesses: files written, tables printed,
deliberate failures mapped to their exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schemaground
from schemaground import cli
from schemaground.errors import EXIT_CODES
from schemaground.extraction import (
    build_extraction_prompt,
    extract_schema,
    load_canonical_schema,
)
from schemaground.gateway import (
    ImageRef,
    Message,
    ModelGateway,
    ModelRequest,
    ScriptedBackend,
    cache_key,
)
from schemaground.grounding import ground_hierarchical, ground_sequential
from schemaground.toydata import TOY_BINDINGS, TOY_SEQUENTIAL_DRIFT, toy_fixture_rules

from helpers import PassThrough, cache_records, checkout_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"

LADDER = {
    "baseline": 1 / 12,
    "schema_only": 2 / 12,
    "grounding_sequential": 9 / 12,
    "grounding_hierarchical": 1.0,
    "full_dsg": 1.0,
}


def run_cli(*argv, cwd, stdout=subprocess.PIPE, **env):
    """Run the CLI in a subprocess, with env's variables set on top of
    `checkout_env()`, its stdout captured unless another is given."""
    return subprocess.run(
        [sys.executable, "-m", "schemaground.cli", *map(str, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env={**checkout_env(), **env},
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
    assert out.read_text() == load_canonical_schema("tic-tac-toe").text


# A character that stdout's encoding cannot hold prints as a backslash
# escape, as Python writes stderr: the file is written, so the command exits 0.
def test_extract_to_a_path_that_stdout_cannot_encode_exits_0(tmp_path):
    out = tmp_path / "é.schema"
    result = run_cli(
        "extract", "maze", "--canonical", "--out", out, cwd=tmp_path, PYTHONIOENCODING="ascii"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {out}\n".replace("é", "\\xe9")
    assert out.read_text(encoding="utf-8") == load_canonical_schema("maze").text


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
    assert out.read_text() == load_canonical_schema("maze").text


# `--seed-hint` reaches the extraction request, and is 0 without the flag:
# each extract writes one reply record, keyed by the request that carries
# its hint.
def test_extract_sends_the_seed_hint(toy, tmp_path):
    out, cache = tmp_path / "maze.schema", tmp_path / "cache"
    argv = ["extract", "maze", "--out", str(out), *map(str, _backend_args(toy, tmp_path))]
    gateway = ModelGateway.from_config(toy.backend_config_path)
    prompt = Message("user", build_extraction_prompt("maze"))
    for flags, seed_hint in (([], 0), (["--seed-hint", "5"], 5)):
        assert cli.main([*argv, *flags]) == 0
        assert out.read_text() == load_canonical_schema("maze").text
        request = ModelRequest(gateway.model_id, (prompt,), seed_hint=seed_hint)
        assert cache_records(cache, "key")[-1]["key"] == cache_key(
            gateway.backend.backend_id, request
        )
    assert len(cache_records(cache, "key")) == 2


def test_extract_without_backend_or_canonical(tmp_path):
    result = run_cli("extract", "maze", cwd=tmp_path)
    assert result.returncode == 23
    assert "BackendConfigError" in result.stderr


# A fixture that matches nothing fails the request as a 401 or a 5xx after
# retries does. `--fallback-to-canonical` then writes the packaged schema,
# and one warning on stderr says so and why.
def test_extract_fallback_to_canonical_warns_on_stderr(tmp_path):
    (tmp_path / "rules.json").write_text("[]")
    (tmp_path / "backend.json").write_text(json.dumps(
        {"backend_id": "b", "kind": "scripted", "model_id": "m", "fixture_path": "rules.json"}
    ))
    out = tmp_path / "maze.schema"
    result = run_cli(
        "extract", "maze", "--fallback-to-canonical",
        "--backend-config", tmp_path / "backend.json", "--out", out,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {out}\n"
    assert out.read_text(encoding="utf-8") == load_canonical_schema("maze").text
    [warning] = result.stderr.splitlines()
    assert "'maze'" in warning
    assert "canonical" in warning
    assert "FixtureMissError: no fixture rule matches the request" in warning


# ------------------------------------------------------------------- ground


@pytest.fixture()
def maze_schema_file(tmp_path):
    path = tmp_path / "maze.schema"
    path.write_text(load_canonical_schema("maze").text)
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


# A schema file may open with a UTF-8 byte-order mark, as some editors write
# one: it is dropped, not read as the start of the header.
def test_a_schema_with_a_byte_order_mark_grounds_as_the_plain_file(
    toy, tmp_path, maze_schema_file
):
    marked = tmp_path / "marked.schema"
    marked.write_bytes(b"\xef\xbb\xbf" + maze_schema_file.read_bytes())
    for schema in (maze_schema_file, marked):
        assert cli.main([
            "ground",
            "--schema", str(schema),
            "--image", str(toy.image_paths["maze"]),
            "--out", str(tmp_path / f"{schema.stem}.json"),
            *map(str, _backend_args(toy, tmp_path)),
        ]) == 0
    assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "maze.json").read_bytes()


# A flagless `ground` sends seed hint 0, as run 0 of `ablate` does, so its
# requests are among the ablate's and the two share their cache records.
def test_a_ground_and_an_ablate_share_their_cache_records(toy, tmp_path, maze_schema_file, capsys):
    cache = tmp_path / "cache"
    backend = ["--backend-config", str(toy.backend_config_path), "--cache-dir", str(cache)]
    assert cli.main([
        "ground", "--schema", str(maze_schema_file), "--image", str(toy.image_paths["maze"]),
        "--out", str(tmp_path / "resolved.json"), *backend,
    ]) == 0
    assert len(cache_records(cache, "key")) == 3
    assert cli.main([
        "ablate", "--manifest", str(toy.manifest_path), "--out", str(tmp_path / "out"), *backend,
    ]) == 0
    keys = [record["key"] for record in cache_records(cache, "key")]
    assert len(keys) == len(set(keys)) == 72


# A Python caller that passes no seed sends 0, as a command without
# `--seed-hint` does: once the library calls have filled the cache, the
# flagless `ground`, `ground --sequential` and `extract` find every reply
# there and write no record.
def test_the_python_defaults_build_the_flagless_commands_requests(
    toy, tmp_path, maze_schema_file
):
    cache = tmp_path / "cache"
    gateway = ModelGateway.from_config(toy.backend_config_path, cache_dir=cache)
    schema = load_canonical_schema("maze")
    image = ImageRef.from_file(toy.image_paths["maze"])
    ground_hierarchical(schema, image, gateway)
    ground_sequential(schema, image, gateway)
    assert extract_schema("maze", gateway) == schema
    records = cache_records(cache, "key")
    assert len(records) == 5
    backend = ["--backend-config", str(toy.backend_config_path), "--cache-dir", str(cache)]
    ground = ["ground", "--schema", str(maze_schema_file), "--image", str(image.path)]
    assert cli.main([*ground, "--out", str(tmp_path / "h.json"), *backend]) == 0
    assert cli.main([*ground, "--sequential", "--out", str(tmp_path / "s.json"), *backend]) == 0
    assert cli.main(["extract", "maze", "--out", str(tmp_path / "maze.out"), *backend]) == 0
    assert cache_records(cache, "key") == records


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


# An image that exists but cannot be read is a missing image too: its digest
# is taken before the first request, so nothing reaches the backend. The read
# is refused in-process, since file modes refuse nothing to the superuser.
@pytest.mark.parametrize(
    "command",
    [("ablate",), ("ablate", "--cache-dir", "cache"), ("ground",)],
    ids=["ablate", "ablate-cache-dir", "ground"],
)
def test_an_image_that_cannot_be_read_exits_51_before_any_backend_call(
    toy, tmp_path, maze_schema_file, capsys, monkeypatch, command
):
    image = toy.image_paths["maze"]
    read_bytes = Path.read_bytes

    def refuse(path):
        if path.name == image.name:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, request: calls.append(request))
    monkeypatch.chdir(tmp_path)
    if command[0] == "ground":
        inputs = ["--schema", str(maze_schema_file), "--image", str(image)]
    else:
        inputs = ["--manifest", str(toy.manifest_path)]
    argv = [*command, *inputs, "--backend-config", str(toy.backend_config_path)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 51
    err = capsys.readouterr().err
    assert "MissingImageError: cannot read image " in err
    assert f"{image.name}: Permission denied" in err
    assert calls == []


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


def test_evaluate_free_response_flag(toy, tmp_path):
    result = run_cli(
        "evaluate",
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


# Under a stdout that cannot encode `±` the tables print it as `\xb1`, and the
# run writes the same 11 files and exits 0.
def test_an_ablate_whose_stdout_cannot_encode_its_tables_exits_0(toy, tmp_path):
    out = tmp_path / "out"

    def ablate(encoding):
        result = run_cli(
            "ablate",
            "--manifest", toy.manifest_path,
            "--backend-config", toy.backend_config_path,
            "--out", out,
            cwd=tmp_path,
            PYTHONIOENCODING=encoding,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout, {path.name: path.read_bytes() for path in out.iterdir()}

    utf8_stdout, utf8_files = ablate("utf-8")
    ascii_stdout, ascii_files = ablate("ascii")
    assert "0.083 ± 0.000" in utf8_stdout
    assert ascii_stdout == utf8_stdout.replace("±", "\\xb1")
    assert len(ascii_files) == 11
    assert ascii_files == utf8_files


# A command whose stdout reader has gone (`| head`, `| true`) has written
# its files by then, so it exits 0, with no traceback and no "Exception
# ignored" line at shutdown.
@pytest.mark.parametrize(
    ("command", "files"), [("ablate", 11), ("evaluate", 3), ("extract", 1), ("ground", 1)]
)
def test_a_command_whose_stdout_reader_has_gone_exits_0(
    toy, tmp_path, maze_schema_file, command, files
):
    out = tmp_path / "out"
    manifest = ("--manifest", toy.manifest_path)
    argv = {
        "ablate": ("ablate", *manifest, "--out", out),
        "evaluate": ("evaluate", "--mode", "full_dsg", *manifest, "--out", out),
        "extract": ("extract", "maze", "--canonical", "--out", out / "maze.schema"),
        "ground": (
            "ground", "--schema", maze_schema_file, "--image", toy.image_paths["maze"],
            "--out", out / "resolved.json",
        ),
    }[command]
    backend = () if command == "extract" else _backend_args(toy, tmp_path)
    # The read end is closed before the command starts, so its write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_cli(*argv, *backend, cwd=tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
    assert len(list(out.iterdir())) == files


# A baseline prompt quotes no schema, so a baseline-only run reads none: it
# answers a concept that has no canonical schema, and one whose --schema-dir
# file does not parse. Any other mode still needs each concept's schema.
def test_a_baseline_only_run_reads_no_schema(toy, tmp_path, capsys):
    payload = json.loads(toy.manifest_path.read_text(encoding="utf-8"))
    for instance in payload["instances"]:
        instance["image"] = str(toy.manifest_path.parent / instance["image"])
        if instance["concept"] == "maze":
            instance["concept"] = "labyrinth"
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps(payload), encoding="utf-8")
    schema_dir = tmp_path / "schemas"
    schema_dir.mkdir()
    (schema_dir / "maze.schema").write_text("not a schema")
    backend = ("--backend-config", str(toy.backend_config_path))
    for name, flags in (
        ("renamed", ("--manifest", str(renamed))),
        ("bad-schema", ("--manifest", str(toy.manifest_path), "--schema-dir", str(schema_dir))),
    ):
        out = tmp_path / name
        argv = ["evaluate", "--mode", "baseline", *flags, *backend, "--out", str(out)]
        assert cli.main(argv) == 0
        assert len((out / "baseline.predictions.jsonl").read_text().splitlines()) == 12
    argv = ["evaluate", "--mode", "schema_only", "--manifest", str(renamed), *backend]
    assert cli.main([*argv, "--out", str(tmp_path / "schema-only")]) == 31
    assert "UnknownConceptError: no canonical schema for 'labyrinth'" in capsys.readouterr().err


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


# `evaluate --mode m` on its own writes the ablate's predictions for m byte
# for byte, for each of the five modes. `full_dsg` answers from the
# hierarchical walk whether that walk also serves `grounding_hierarchical` or
# not, so beside it too it writes the same predictions.
def test_full_dsg_predictions_do_not_depend_on_the_other_modes(toy, tmp_path):
    common = [
        "--manifest", str(toy.manifest_path),
        "--backend-config", str(toy.backend_config_path),
        "--concurrency", "2",
    ]
    assert cli.main(["ablate", *common, "--out", str(tmp_path / "ablate")]) == 0
    for name, modes in [
        *((mode, [mode]) for mode in LADDER),
        ("pair", ["full_dsg", "grounding_hierarchical"]),
    ]:
        flags = [flag for mode in modes for flag in ("--mode", mode)]
        assert cli.main(["evaluate", *common, *flags, "--out", str(tmp_path / name)]) == 0
        for mode in modes:
            expected = (tmp_path / "ablate" / f"{mode}.predictions.jsonl").read_bytes()
            assert (tmp_path / name / f"{mode}.predictions.jsonl").read_bytes() == expected


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
    result = run_cli(
        "evaluate",
        "--manifest", manifest,
        *_backend_args(toy, tmp_path),
        "--out", tmp_path / "out",
        cwd=tmp_path,
    )
    assert result.returncode == 50, result.stderr
    assert "no instances" in result.stderr
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("cached", [True, False], ids=["cache-dir", "no-cache"])
def test_a_reply_that_is_not_valid_unicode_exits_22(toy, tmp_path, capsys, cached):
    # JSON carries a lone surrogate as an escape; UTF-8, and so no cache entry
    # or predictions file, can hold one.
    question = {"contains": "Is the layout rectangular or circular?"}
    rules = [
        {**rule, "reply": "yes \ud800"} if rule["match"] == question else rule
        for rule in toy_fixture_rules()
    ]
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    config = tmp_path / "backend.json"
    config.write_text(
        json.dumps(
            {"backend_id": "b", "kind": "scripted", "model_id": "m", "fixture_path": "rules.json"}
        )
    )
    argv = ["ablate", "--manifest", toy.manifest_path, "--backend-config", config]
    if cached:
        argv += ["--cache-dir", tmp_path / "cache"]
    assert cli.main([*map(str, argv), "--out", str(tmp_path / "out")]) == 22
    err = capsys.readouterr().err
    assert "MalformedReplyError" in err
    assert "not valid Unicode text" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out/*.predictions.jsonl"))
    for entry in tmp_path.glob("cache/*.json"):
        assert "\\ud800" not in entry.read_text(encoding="utf-8")


# A manifest string that UTF-8 cannot encode could reach neither a cache key
# nor a predictions file: it is refused before any backend call is paid.
@pytest.mark.parametrize("field", ["id", "options"])
def test_a_manifest_string_that_is_not_valid_unicode_exits_50_before_any_call(
    toy, tmp_path, capsys, monkeypatch, field
):
    manifest = json.loads(toy.manifest_path.read_text(encoding="utf-8"))
    first = manifest["instances"][0]
    if field == "id":
        first["id"] = "maze-\ud800"
    else:
        first["options"][-1] += " \ud800"
    for instance in manifest["instances"]:
        instance["image"] = str(toy.root / instance["image"])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend,
        "complete",
        lambda self, request: (calls.append(request), complete(self, request))[1],
    )
    argv = [
        "ablate",
        "--manifest", tmp_path / "manifest.json",
        *_backend_args(toy, tmp_path),
        "--out", tmp_path / "out",
    ]
    assert cli.main(list(map(str, argv))) == 50
    err = capsys.readouterr().err
    assert f"ManifestInvalidError: instance {first['id']!r}: field {field!r}" in err
    assert "Traceback" not in err
    assert calls == []
    assert not list(tmp_path.glob("cache/**/*.json"))
    assert not (tmp_path / "out").exists()


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
    (schema_dir / "maze.schema").write_text(load_canonical_schema("atom").text)
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


# A concept names its file under --schema-dir, so one that is no identifier,
# such as `../outside`, could name a file outside it; no schema could declare
# such a concept, so the manifest is refused before any file is read.
def test_a_manifest_concept_that_is_no_identifier_exits_50_before_any_read(
    toy, tmp_path, capsys, monkeypatch
):
    schema_dir = tmp_path / "schemas"
    schema_dir.mkdir()
    (tmp_path / "outside.schema").write_text(
        "gen(concept=secret-name) =\n    gen(x | concept=secret-name)\n"
    )
    manifest = json.loads(toy.manifest_path.read_text(encoding="utf-8"))
    for instance in manifest["instances"]:
        instance["image"] = str(toy.root / instance["image"])
    manifest["instances"][0]["concept"] = "../outside"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend,
        "complete",
        lambda self, request: (calls.append(request), complete(self, request))[1],
    )
    argv = [
        "ablate",
        "--manifest", tmp_path / "manifest.json",
        "--schema-dir", schema_dir,
        *_backend_args(toy, tmp_path),
        "--out", tmp_path / "out",
    ]
    assert cli.main(list(map(str, argv))) == 50
    err = capsys.readouterr().err
    assert "ManifestInvalidError" in err
    assert "'../outside' is not an identifier" in err
    assert "secret-name" not in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_an_extract_concept_that_is_no_identifier_exits_two_before_any_call(
    toy, tmp_path, capsys, monkeypatch
):
    # The default --out, `<concept>.schema`, would lie outside the work dir.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, request: calls.append(request))
    for extra in ((), ("--canonical",)):
        argv = ["extract", "../outside", *extra, "--backend-config", str(toy.backend_config_path)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be an identifier, got '../outside'" in err
    assert calls == []
    assert list(tmp_path.rglob("*")) == [work]


def test_schema_dir_files_with_a_byte_order_mark_ablate_as_the_plain_files(toy, tmp_path):
    outs = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        schema_dir = tmp_path / f"{name}-schemas"
        schema_dir.mkdir()
        for concept in TOY_BINDINGS:
            text = load_canonical_schema(concept).text.encode("utf-8")
            (schema_dir / f"{concept}.schema").write_bytes(mark + text)
        outs.append(tmp_path / f"{name}-out")
        assert cli.main([
            "ablate",
            "--manifest", str(toy.manifest_path),
            "--schema-dir", str(schema_dir),
            *map(str, _backend_args(toy, tmp_path)),
            "--out", str(outs[-1]),
        ]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert len(names) == 11
    assert sorted(path.name for path in outs[1].iterdir()) == names
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


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
        "--mode", "schema_only",
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
    # `answer` was `evaluate --mode` without the score, and is gone.
    result = run_cli("answer", "--manifest", "m.json", "--backend-config", "b.json", cwd=tmp_path)
    assert result.returncode == 2
    assert "invalid choice: 'answer'" in result.stderr
    # `--multiple-choice` only restated the default, and is gone.
    for command in ("evaluate", "ablate"):
        result = run_cli(command, "--manifest", "m.json", "--multiple-choice",
                         "--backend-config", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert "unrecognized arguments: --multiple-choice" in result.stderr
    assert run_cli("evaluate", "--manifest", "m.json", "--mode", "psychic",
                   "--backend-config", "b.json", cwd=tmp_path).returncode == 2
    for flag in ("--concurrency", "--runs"):
        result = run_cli("evaluate", "--manifest", "m.json", flag, "0",
                         "--backend-config", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert "must be at least 1" in result.stderr
    for command, flag, value, floor in (
        ("evaluate", "--max-tokens", "0", "1"),
        ("ablate", "--max-tokens", "0", "1"),
        ("evaluate", "--temperature", "-1", "0.0"),
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
        assert "must be an identifier, got ''" in result.stderr
    (tmp_path / "maze.schema").write_text(load_canonical_schema("maze").text)
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
    for command in ("evaluate", "ablate"):
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
        schema.write_text(load_canonical_schema("maze").text)
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


# A path in the cache directory named as a log but that cannot be read, a
# directory here, is skipped with a warning and left alone.
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
    entry = tmp_path / "taken-cache" / "00000000000000000000-0.jsonl"
    entry.mkdir(parents=True)
    result, files, stdout = ablate("taken")
    assert files == clean_files
    assert stdout == clean_stdout
    assert f"cache log {entry} not read" in result.stderr
    assert "Traceback" not in result.stderr
    assert entry.is_dir()
    assert len(cache_records(entry.parent, "key")) == 72


# A published cache proves its numbers by a strict replay: a scripted config
# with the cache's backend_id and model_id and no rules, so that a request the
# cache lacks fails (exit 21) and no reply can be made up for it.
def test_a_strict_replay_of_a_cache_writes_the_cold_files_and_fails_on_a_miss(
    toy, tmp_path, capsys
):
    cache = tmp_path / "cache"
    common = ["ablate", "--manifest", str(toy.manifest_path), "--cache-dir", str(cache)]
    assert cli.main([
        *common, "--backend-config", str(toy.backend_config_path), "--out", str(tmp_path / "cold"),
    ]) == 0
    (tmp_path / "rules.json").write_text("[]")
    config = json.loads(toy.backend_config_path.read_text(encoding="utf-8"))
    (tmp_path / "strict.json").write_text(json.dumps({**config, "fixture_path": "rules.json"}))
    strict = [*common, "--backend-config", str(tmp_path / "strict.json")]
    replies = cache_records(cache, "key")
    assert len(replies) == 72
    assert cli.main([*strict, "--out", str(tmp_path / "replay")]) == 0
    cold = {path.name: path.read_bytes() for path in (tmp_path / "cold").iterdir()}
    assert len(cold) == 11
    assert {path.name: path.read_bytes() for path in (tmp_path / "replay").iterdir()} == cold
    capsys.readouterr()
    assert cli.main([*strict, "--runs", "2", "--out", str(tmp_path / "two-runs")]) == 21
    err = capsys.readouterr().err
    assert "FixtureMissError" in err
    assert "while grounding component" in err
    assert cache_records(cache, "key") == replies
    assert not (tmp_path / "two-runs").exists()


def _flags_the_parser_lacks(readme: str, capsys) -> list[str]:
    """The flags that the README names and the parser lacks: in each
    `schemaground` command of a fenced block, those that its subcommand does
    not define; in the inline code spans of the prose, each `--flag` that no
    subcommand defines."""
    helps = {}
    for command in ("extract", "ground", "evaluate", "ablate"):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        helps[command] = capsys.readouterr().out

    def lacks(flag: str, command: str) -> bool:
        return not re.search(rf"(?<![\w-]){flag}(?![\w-])", helps[command])

    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
    commands = [
        line.split()
        for block in fence.findall(readme)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("schemaground ")
    ]
    spans = re.findall(r"`([^`]+)`", fence.sub("", readme))
    prose_flags = sorted({flag for span in spans for flag in re.findall(r"--[a-z][a-z-]*", span)})
    assert commands and prose_flags
    assert {words[1] for words in commands} <= helps.keys()
    return [
        flag
        for words in commands
        for flag in (word.split("=")[0] for word in words if word.startswith("--"))
        if lacks(flag, words[1])
    ] + [flag for flag in prose_flags if all(lacks(flag, command) for command in helps)]


# Each flag that the README names in a command or in an inline code span is
# one that the parser defines, so no text can outlive the command or flag it
# shows; a README that still lists `--multiple-choice` fails.
def test_readme_commands_use_only_defined_subcommands_and_flags(capsys):
    readme = README.read_text(encoding="utf-8")
    assert _flags_the_parser_lacks(readme, capsys) == []
    stale = readme + "\nFlags: `--multiple-choice` (default) / `--free-response`.\n"
    assert _flags_the_parser_lacks(stale, capsys) == ["--multiple-choice"]


def test_readme_exit_code_table_is_the_code_table():
    readme = README.read_text(encoding="utf-8")
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

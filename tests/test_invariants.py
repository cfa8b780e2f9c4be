"""Metamorphic guards: changes to a command's input that must not move what
it writes or which requests it sends.

Each test runs scripted `ablate`s over the toy dataset, writing reordered or
split manifests beside the toy one so their image paths resolve as its do.
The image-digest memo records every image (`settle_images`), so the records
under a cache directory do not depend on how old the toy files are.
"""

from __future__ import annotations

import json
import random

import pytest

from schemaground import cli
from schemaground.toydata import make_toy_dataset

from helpers import cache_records, settle_images


@pytest.fixture()
def dataset(tmp_path, monkeypatch):
    settle_images(monkeypatch)
    return make_toy_dataset(tmp_path / "toy")


def _manifest(dataset, name: str, instances: list[dict]) -> str:
    path = dataset.root / name
    path.write_text(json.dumps({"subset": True, "instances": instances}))
    return str(path)


def _instances(dataset) -> list[dict]:
    return json.loads(dataset.manifest_path.read_text())["instances"]


def _ablate(dataset, manifest, cache, out, *extra) -> None:
    assert cli.main([
        "ablate",
        "--manifest", str(manifest),
        "--backend-config", str(dataset.backend_config_path),
        "--cache-dir", str(cache),
        "--out", str(out),
        *extra,
    ]) == 0


def _files(root) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _replies(cache) -> set[str]:
    return {record["key"] for record in cache_records(cache, "key")}


def _cache_names(cache) -> list[str]:
    """The keys of the cache's replies and the files its memo knows, sorted."""
    return sorted([*_replies(cache), *(record["stat"] for record in cache_records(cache, "stat"))])


# Grouping, task order and the order of the cache's writes follow the
# manifest, but predictions are sorted by (run, instance id) and every
# request carries only its instance's content: a shuffled manifest writes
# the same 11 files and fills the cache under the same names.
@pytest.mark.parametrize("seed", [0, 1])
def test_a_shuffled_manifest_writes_the_same_files_and_cache_names(dataset, tmp_path, seed):
    _ablate(dataset, dataset.manifest_path, tmp_path / "cache", tmp_path / "out")
    instances = _instances(dataset)
    random.Random(seed).shuffle(instances)
    assert instances != _instances(dataset)
    shuffled = _manifest(dataset, "shuffled.json", instances)
    _ablate(dataset, shuffled, tmp_path / "shuffled-cache", tmp_path / "shuffled-out")
    out = _files(tmp_path / "out")
    assert len(out) == 11
    assert _files(tmp_path / "shuffled-out") == out
    cache_names = _cache_names(tmp_path / "cache")
    assert len(cache_names) == 72 + 4
    assert _cache_names(tmp_path / "shuffled-cache") == cache_names


# Split and merge: the two halves of a manifest, run against one cache, send
# every request that the whole manifest sends, so a run of the whole then
# replays and adds no reply entry.
def test_two_halves_sharing_a_cache_leave_nothing_for_the_whole_manifest(dataset, tmp_path):
    instances = _instances(dataset)
    cache = tmp_path / "cache"
    half = len(instances) // 2
    for name, part in (("first.json", instances[:half]), ("second.json", instances[half:])):
        _ablate(dataset, _manifest(dataset, name, part), cache, tmp_path / name)
    replies = _replies(cache)
    assert len(replies) == 72
    _ablate(dataset, dataset.manifest_path, cache, tmp_path / "whole")
    assert _replies(cache) == replies


# Run i carries seed hint base + i, so `--runs 2 --seed-hint 7` sends the
# requests of `--seed-hint 7` and of `--seed-hint 8`, and nothing else.
def test_the_requests_of_two_runs_are_those_of_their_two_seed_hints(dataset, tmp_path):
    for name, *extra in (
        ("both", "--runs", "2", "--seed-hint", "7"),
        ("seven", "--seed-hint", "7"),
        ("eight", "--seed-hint", "8"),
    ):
        _ablate(dataset, dataset.manifest_path, tmp_path / name, tmp_path / f"{name}-out", *extra)
    seven, eight = _replies(tmp_path / "seven"), _replies(tmp_path / "eight")
    assert len(seven) == len(eight) == 72
    assert not seven & eight
    assert _replies(tmp_path / "both") == seven | eight

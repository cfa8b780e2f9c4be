"""The image-digest memo in `--cache-dir`: a later command reads no image
file that has not changed since its digest was recorded.

Each test makes its own toy dataset, so it may rewrite, rename or stat its
images, and sets the clock that the memo's age rule reads (`settle_images`),
so no test sleeps past the rule and none depends on how old its files are.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil

import pytest

from schemaground import cli
from schemaground.errors import MissingImageError
from schemaground.gateway import (
    ImageRef,
    ModelGateway,
    ResponseCache,
    ScriptedBackend,
    cache_key,
)
from schemaground.toydata import make_toy_dataset, tiny_png

from helpers import cache_records, memo_digests, record_reads, settle_images, write_log


@pytest.fixture()
def dataset(tmp_path):
    return make_toy_dataset(tmp_path / "toy")


def _ablate(dataset, cache, out, concurrency=4) -> None:
    assert cli.main([
        "ablate",
        "--manifest", str(dataset.manifest_path),
        "--backend-config", str(dataset.backend_config_path),
        "--cache-dir", str(cache),
        "--concurrency", str(concurrency),
        "--out", str(out),
    ]) == 0


def _same_files(left, right) -> bool:
    names = sorted(path.name for path in left.iterdir())
    return names == sorted(path.name for path in right.iterdir()) and all(
        (left / name).read_bytes() == (right / name).read_bytes() for name in names
    )


def _file_digests(paths) -> list[str]:
    return sorted(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)


def _replies(cache) -> list[str]:
    return sorted(record["key"] for record in cache_records(cache, "key"))


def _count_backend_calls(monkeypatch) -> list:
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend,
        "complete",
        lambda self, request: (calls.append(request), complete(self, request))[1],
    )
    return calls


@pytest.mark.parametrize("concurrency", [1, 4])
def test_a_replay_of_settled_images_opens_no_image_file(
    dataset, tmp_path, monkeypatch, concurrency
):
    settle_images(monkeypatch)
    cache = tmp_path / "cache"
    _ablate(dataset, cache, tmp_path / "cold", concurrency)
    images = list(dataset.image_paths.values())
    assert memo_digests(cache) == _file_digests(images)
    reads = record_reads(monkeypatch, images)
    _ablate(dataset, cache, tmp_path / "warm", concurrency)
    assert reads == []
    assert _same_files(tmp_path / "cold", tmp_path / "warm")
    assert len(memo_digests(cache)) == 4


def test_an_image_rewritten_with_its_size_and_mtime_gets_its_new_digest(
    dataset, tmp_path, monkeypatch
):
    settle_images(monkeypatch)
    cache = tmp_path / "cache"
    image = dataset.image_paths["maze"]
    # The keys of the requests that carry this image, from the cold run.
    requests = []
    complete = ModelGateway.complete
    monkeypatch.setattr(
        ModelGateway,
        "complete",
        lambda self, request: (requests.append(request), complete(self, request))[1],
    )
    _ablate(dataset, cache, tmp_path / "cold")
    backend_id = json.loads(dataset.backend_config_path.read_text())["backend_id"]
    carrying = {
        cache_key(backend_id, request)
        for request in requests
        if request.messages[-1].image.path == image
    }
    assert 0 < len(carrying) < 72
    assert len(_replies(cache)) == 72
    before = os.stat(image)
    data = image.read_bytes()
    image.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
    os.utime(image, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(image)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != before.st_ctime_ns
    calls = _count_backend_calls(monkeypatch)
    _ablate(dataset, cache, tmp_path / "warm")
    assert len(calls) == len(carrying)
    assert len(_replies(cache)) == 72 + len(carrying)
    new_digest = hashlib.sha256(image.read_bytes()).hexdigest()
    assert new_digest in memo_digests(cache)
    assert new_digest in {request.messages[-1].image.digest() for request in calls}


def test_an_image_changed_while_it_is_hashed_is_not_recorded(dataset, tmp_path, monkeypatch):
    settle_images(monkeypatch)
    moved = dataset.image_paths["maze"]
    digest = ImageRef.digest
    touched = []

    def digest_then_touch(self):
        value = digest(self)
        if self.path == moved and not touched:
            stat = os.stat(moved)
            os.utime(moved, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
            touched.append(stat)
        return value

    monkeypatch.setattr(ImageRef, "digest", digest_then_touch)
    _ablate(dataset, tmp_path / "cache", tmp_path / "out")
    assert len(touched) == 1
    others = [path for path in dataset.image_paths.values() if path != moved]
    assert memo_digests(tmp_path / "cache") == _file_digests(others)


@pytest.mark.parametrize(
    "entry",
    [b"", b'"', b"{}", b"7", b'"%s"' % (b"A" * 64), b'"%s"' % (b"a" * 63), b"\xff\xfe"],
    ids=["empty", "torn", "object", "number", "upper-case", "short", "not-utf8"],
)
def test_a_corrupt_memo_entry_is_a_miss_and_is_replaced(dataset, tmp_path, monkeypatch, entry):
    settle_images(monkeypatch)
    cache = tmp_path / "cache"
    _ablate(dataset, cache, tmp_path / "cold")
    records = cache_records(cache, "stat")
    assert len(records) == 4
    # The same log, with `entry` as the JSON text of each recorded digest.
    replies = [json.dumps(record) for record in cache_records(cache, "key")]
    for log in cache.iterdir():
        log.unlink()
    write_log(
        cache,
        *replies,
        *(b'{"stat": "%s", "sha256": %s}' % (record["stat"].encode(), entry) for record in records),
    )
    images = list(dataset.image_paths.values())
    reads = record_reads(monkeypatch, images)
    _ablate(dataset, cache, tmp_path / "warm")
    assert len(reads) == 4
    replaced = cache_records(cache, "stat")[-4:]
    assert sorted(record["stat"] for record in replaced) == sorted(
        record["stat"] for record in records
    )
    assert sorted(record["sha256"] for record in replaced) == _file_digests(images)
    assert _same_files(tmp_path / "cold", tmp_path / "warm")


# A cache root where no log can be created (read-only, say) costs one
# warning per record not written, replies and digests alike, and the
# command writes what it writes without a cache.
def test_a_cache_root_that_cannot_be_written_logs_a_warning_per_write_and_the_command_goes_on(
    dataset, tmp_path, monkeypatch, caplog
):
    settle_images(monkeypatch)
    cache = tmp_path / "cache"
    _ablate(dataset, tmp_path / "clean-cache", tmp_path / "clean")
    os_open = os.open

    def refuse_creates(path, flags, *args, **kwargs):
        if flags & os.O_CREAT and os.path.dirname(path) == str(cache):
            raise PermissionError(13, "Permission denied", path)
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_creates)
    with caplog.at_level(logging.WARNING, logger="schemaground.gateway"):
        _ablate(dataset, cache, tmp_path / "out")
    warnings = [record.getMessage() for record in caplog.records]
    assert len(warnings) == 72 + 4
    assert all(warning.startswith(f"cache record not written in {cache}") for warning in warnings)
    assert list(cache.iterdir()) == []
    assert _same_files(tmp_path / "clean", tmp_path / "out")


# ROADMAP item 18: an image copied, or renamed, has the same bytes, so the
# same digest and request keys: a replay on the copy makes no backend call
# and writes what the first run wrote.
def test_an_image_copied_or_renamed_keeps_its_keys_and_outputs(dataset, tmp_path, monkeypatch):
    settle_images(monkeypatch)
    cache = tmp_path / "cache"
    _ablate(dataset, cache, tmp_path / "first")
    copy = tmp_path / "copy"
    shutil.copytree(dataset.root, copy)
    os.rename(copy / "images" / "maze.png", copy / "images" / "renamed-maze.png")
    manifest = json.loads((copy / "manifest.json").read_text())
    for instance in manifest["instances"]:
        instance["image"] = instance["image"].replace("maze.png", "renamed-maze.png")
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert any("renamed-maze.png" in item["image"] for item in manifest["instances"])
    replies = _replies(cache)
    calls = _count_backend_calls(monkeypatch)
    assert cli.main([
        "ablate",
        "--manifest", str(copy / "manifest.json"),
        "--backend-config", str(copy / "backend.json"),
        "--cache-dir", str(cache),
        "--out", str(tmp_path / "second"),
    ]) == 0
    assert calls == []
    assert _replies(cache) == replies
    assert _same_files(tmp_path / "first", tmp_path / "second")
    # The copies are new files, so the memo now knows them as well.
    assert len(memo_digests(cache)) == 8


def test_the_digest_of_inline_or_hashed_images_is_known_and_a_missing_file_raises(
    tmp_path, monkeypatch
):
    cache = ResponseCache(tmp_path / "cache")
    path = tmp_path / "probe.png"
    path.write_bytes(tiny_png((4, 5, 6)))
    hashed = ImageRef.from_file(path)
    digest = hashed.digest()
    path.unlink()
    inline = ImageRef("image/png", data=tiny_png((1, 2, 3)))
    stats = []
    stat = os.stat
    monkeypatch.setattr(
        os, "stat", lambda *args, **kwargs: (stats.append(args), stat(*args, **kwargs))[1]
    )
    assert cache.image_digest(inline) == hashlib.sha256(inline.data).hexdigest()
    assert cache.image_digest(hashed) == digest
    assert stats == []
    with pytest.raises(MissingImageError, match="No such file or directory"):
        cache.image_digest(ImageRef.from_file(path))
    assert list((tmp_path / "cache").iterdir()) == []

"""The response cache's logs in `--cache-dir`: one append-only JSON-lines log
per command that writes, read whole when a cache opens.

Records are read through `helpers.cache_records`; hand-made logs are written
with `helpers.write_log`, whose default name sorts before any log a cache
creates.
"""

from __future__ import annotations

import errno
import gc
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from schemaground import cli
from schemaground.gateway import (
    Message,
    ModelGateway,
    ModelRequest,
    ResponseCache,
    ScriptedBackend,
    cache_key,
)
from schemaground.toydata import make_toy_dataset

from helpers import cache_records, checkout_env, settle_images, write_log


@pytest.fixture()
def calls(monkeypatch) -> list:
    """The requests that reach a scripted backend from here on."""
    requests = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend,
        "complete",
        lambda self, request: (requests.append(request), complete(self, request))[1],
    )
    return requests


def _ablate_argv(toy, manifest, cache, out) -> list[str]:
    return [
        "ablate",
        "--manifest", str(manifest),
        "--backend-config", str(toy.backend_config_path),
        "--cache-dir", str(cache),
        "--out", str(out),
    ]


def _ablate(toy, cache, out) -> None:
    assert cli.main(_ablate_argv(toy, toy.manifest_path, cache, out)) == 0


# A crash mid-write leaves the last record of a log cut short: that record
# alone reads as a miss, and the next command fetches only it again, into a
# log of its own.
def test_a_log_cut_off_mid_record_loses_only_that_record(toy, tmp_path, calls, monkeypatch):
    settle_images(monkeypatch)
    cache = tmp_path / "cache"
    _ablate(toy, cache, tmp_path / "cold")
    assert len(calls) == 72
    (log,) = cache.iterdir()
    data = log.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    cut_key = json.loads(data[last:])["key"]
    log.write_bytes(data[: last + (len(data) - last) // 2])
    assert len(cache_records(cache, "key")) == 71
    del calls[:]
    _ablate(toy, cache, tmp_path / "warm")
    assert len(calls) == 1
    assert cache_records(cache, "key")[-1]["key"] == cut_key
    assert len(list(cache.iterdir())) == 2
    _ablate(toy, cache, tmp_path / "again")
    assert len(calls) == 1
    assert len(list(cache.iterdir())) == 2


# Two logs that hold one key with different replies, as two commands
# racing on one request leave them: the first record in log-name order
# wins, in every later cache, and a put of the key writes nothing.
def test_of_two_logs_that_disagree_the_first_by_name_wins(tmp_path):
    root = tmp_path / "cache"
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "fresh"}])
    request = ModelRequest("default", (Message("user", "q"),))
    key = cache_key(backend.backend_id, request)

    def record(text: str) -> str:
        return json.dumps({"key": key, "text": text})

    write_log(root, record("second"), name="00000000000000000002-1.jsonl")
    write_log(
        root,
        record(" "),
        record("first"),
        record("later in the same log"),
        name="00000000000000000001-9.jsonl",
    )
    for _ in range(3):
        cache = ResponseCache(root)
        assert cache.get(key) == "first"
        cache.put(key, "third")
        assert ModelGateway(backend, cache=ResponseCache(root)).complete(request) == "first"
    assert len(list(root.iterdir())) == 2


def test_a_directory_of_the_old_layout_logs_one_warning_and_is_not_read(tmp_path, caplog):
    root = tmp_path / "cache"
    (root / "images").mkdir(parents=True)
    keys = ["%064x" % index for index in range(3)]
    for key in keys:
        (root / f"{key}.json").write_text('{"text": "old"}')
    (root / "images" / f"{keys[0]}.json").write_text('"%s"' % ("0" * 64))
    (root / "notes.json").write_text("{}")
    with caplog.at_level(logging.WARNING, logger="schemaground.gateway"):
        cache = ResponseCache(root)
    assert [record.getMessage() for record in caplog.records] == [
        f"cache directory {root}: 3 entries of the old layout ignored"
    ]
    assert all(cache.get(key) is None for key in keys)


def test_a_log_that_cannot_be_read_is_skipped_with_a_warning(tmp_path, caplog):
    root = tmp_path / "cache"
    (root / "00000000000000000000-0.jsonl").mkdir(parents=True)
    write_log(root, '{"key": "k", "text": "r"}', name="00000000000000000001-0.jsonl")
    with caplog.at_level(logging.WARNING, logger="schemaground.gateway"):
        cache = ResponseCache(root)
    assert len(caplog.records) == 1
    assert "00000000000000000000-0.jsonl not read" in caplog.records[0].getMessage()
    assert cache.get("k") == "r"


# A write that fails once the log exists (a full disk, say) may leave a
# record cut short at the log's end; the cache closes that log and starts
# another at its next write, so no later record joins the torn one.
def test_a_failed_append_ends_the_log_and_the_next_put_starts_another(
    tmp_path, monkeypatch, caplog
):
    root = tmp_path / "cache"
    cache = ResponseCache(root)
    cache.put("a", "1")
    write = os.write

    def full(fd, data):
        monkeypatch.setattr(os, "write", write)
        write(fd, bytes(data[:5]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    with caplog.at_level(logging.WARNING, logger="schemaground.gateway"):
        cache.put("b", "2")
    assert caplog.text.count("cache record not written") == 1
    assert cache.get("b") == "2"
    cache.put("c", "3")
    assert len(list(root.iterdir())) == 2
    assert [record["key"] for record in cache_records(root, "key")] == ["a", "c"]
    assert {key: ResponseCache(root).get(key) for key in "abc"} == {"a": "1", "b": None, "c": "3"}


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_no_file_descriptor_outlives_its_cache(toy, tmp_path):
    gc.collect()
    before = _open_fds()
    cache = ResponseCache(tmp_path / "cache")
    cache.put("k", "r")
    assert len(_open_fds() - before) == 1
    del cache
    assert _open_fds() == before
    _ablate(toy, tmp_path / "cache", tmp_path / "out")
    gc.collect()
    assert _open_fds() == before


# Two commands, one per half of the toy manifest, started at once into one
# cache directory, each append to a log of their own; the whole manifest
# then replays from the two logs without a backend call.
def test_two_ablates_at_once_into_one_cache_leave_nothing_for_the_whole(tmp_path, calls):
    toy = make_toy_dataset(tmp_path / "toy")
    cache = tmp_path / "cache"
    instances = json.loads(toy.manifest_path.read_text())["instances"]
    half = len(instances) // 2
    children = []
    for name, part in (("first", instances[:half]), ("second", instances[half:])):
        manifest = toy.root / f"{name}.json"
        manifest.write_text(json.dumps({"subset": True, "instances": part}))
        argv = _ablate_argv(toy, manifest, cache, tmp_path / name)
        children.append(subprocess.Popen(
            [sys.executable, "-m", "schemaground.cli", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=checkout_env(),
        ))
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    assert len(list(cache.iterdir())) == 2
    assert len({record["key"] for record in cache_records(cache, "key")}) == 72
    _ablate(toy, cache, tmp_path / "whole")
    assert calls == []


# One cache shared by more threads than cores, with a short switch interval:
# every put lands as one whole line of the one log, none lost or torn.
def test_threads_putting_into_one_cache_write_every_record_whole(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    texts = {f"t{thread}-{index}": "é" * index for thread in range(8) for index in range(1, 60)}

    def put_all(thread: int) -> None:
        for key, text in texts.items():
            if key.startswith(f"t{thread}-"):
                cache.put(key, text)
                cache.put(key, "a second put of the key")

    threads = [threading.Thread(target=put_all, args=(thread,)) for thread in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    (log,) = (tmp_path / "cache").iterdir()
    assert log.read_bytes().count(b"\n") == len(texts)
    records = cache_records(tmp_path / "cache", "key")
    assert {record["key"]: record["text"] for record in records} == texts
    assert len(records) == len(texts)

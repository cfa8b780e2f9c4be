"""Runner scheduling: every request issued exactly once per command."""

from __future__ import annotations

import _thread
import hashlib
import json
import signal
import sys
import threading
import time

import pytest

from schemaground import cli, runner
from schemaground.errors import FixtureMissError
from schemaground.evaluate import DatasetManifest, load_manifest
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import (
    ImageRef,
    ModelGateway,
    ResponseCache,
    ScriptedBackend,
    cache_key,
)
from schemaground.qa import AnswerMode, answer
from schemaground.runner import load_schemas, run_predictions

from helpers import PassThrough, memo_digests, record_reads, scripted_gateway, settle_images


# Backend calls per command on the 12-instance toy manifest: all five modes
# in one run, with or without a cache, at any concurrency. Each distinct
# request reaches the backend once, whichever task asks for it first: the
# gateway's single-flight memo makes every other asker wait for that reply.
# The pass-through backend makes each worker let the turn go at its call, as
# a live backend does. Above one worker, a `Gate` of width 2 holds the first
# call, as a call waiting on I/O, until a second worker calls, so the calls
# come from several threads.
@pytest.mark.parametrize("concurrency", [1, 2, 16])
@pytest.mark.parametrize("cached", [False, True])
def test_backend_calls_per_command(toy, toy_manifest, tmp_path, cached, concurrency):
    gateway = ModelGateway.from_config(
        toy.backend_config_path, cache_dir=tmp_path / "cache" if cached else None
    )
    backend = Gate(gateway, 2) if concurrency > 1 else PassThrough(gateway)
    calls = backend.calls
    by_mode = run_predictions(
        toy_manifest,
        list(AnswerMode),
        gateway,
        load_schemas(toy_manifest),
        concurrency=concurrency,
    )
    assert list(by_mode) == list(AnswerMode)
    assert all(len(predictions) == 12 for predictions in by_mode.values())
    assert len(calls) == len({cache_key("b", request) for request in calls}) == 72
    assert (len(backend.threads) > 1) == (concurrency > 1)


# Every prompt byte the five modes send, pinned: the SHA-256 of the sorted
# per-request records (role, text and image count, 0 or 1, of each
# message). Each distinct request is sent once, so the records are the
# distinct ones. Image bytes do not enter it, so it moves only when prompt
# wording or turn structure does.
def test_prompt_fingerprint_of_the_five_modes(toy, toy_manifest):
    gateway = ModelGateway.from_config(toy.backend_config_path)
    records = []
    complete = gateway.backend.complete

    def record(request):
        records.append(
            json.dumps([[m.role, m.text, int(m.image is not None)] for m in request.messages])
        )
        return complete(request)

    gateway.backend.complete = record
    run_predictions(toy_manifest, list(AnswerMode), gateway, load_schemas(toy_manifest))
    digest = hashlib.sha256("\n".join(sorted(records)).encode("utf-8")).hexdigest()
    assert (len(records), len(set(records))) == (72, 72)
    assert digest == "f59e87b5d0c378ff988080abcf86e7a4008ec18cdd052c1d206aa7c21a904c35"


# `grounding_hierarchical` and `full_dsg` answer from one hierarchical walk:
# on the toy ablate, one walk of each kind per (run, group), and each
# distinct request still sent once.
@pytest.mark.parametrize("runs", [1, 2])
def test_one_grounding_walk_per_kind_run_and_group(toy, tmp_path, monkeypatch, runs):
    walks = []

    def recording(name):
        walk = getattr(runner, name)

        def recorded(*args, **kwargs):
            walks.append(name)
            return walk(*args, **kwargs)

        return recorded

    for name in ("ground_hierarchical", "ground_sequential"):
        monkeypatch.setattr(runner, name, recording(name))
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend,
        "complete",
        lambda self, request: (calls.append(request), complete(self, request))[1],
    )
    argv = ablate_argv(toy, tmp_path)
    assert cli.main([*argv, "--runs", str(runs), "--out", str(tmp_path / "out")]) == 0
    assert walks.count("ground_hierarchical") == walks.count("ground_sequential") == 4 * runs
    assert len(calls) == 72 * runs


def test_five_modes_read_each_image_once(toy, monkeypatch):
    manifest = load_manifest(toy.manifest_path)
    assert len(manifest.instances) == 12
    assert len({id(instance.image) for instance in manifest.instances}) == 4
    reads = record_reads(monkeypatch, {instance.image.path for instance in manifest.instances})
    gateway = ModelGateway.from_config(toy.backend_config_path)
    run_predictions(manifest, list(AnswerMode), gateway, load_schemas(manifest))
    assert len(reads) == 4


def test_more_workers_than_cores_answer_each_instance_once_per_run(toy, toy_manifest):
    gateway = ModelGateway.from_config(toy.backend_config_path)
    backend = Gate(gateway, 2)
    calls = backend.calls
    predictions = run_predictions(
        toy_manifest,
        [AnswerMode.FULL_DSG],
        gateway,
        load_schemas(toy_manifest),
        runs=3,
        concurrency=8,
        seed_hint=5,
    )[AnswerMode.FULL_DSG]
    ids = sorted(instance.id for instance in toy_manifest.instances)
    assert [(p.run_index, p.instance_id) for p in predictions] == [
        (run, instance_id) for run in range(3) for instance_id in ids
    ]
    assert len(calls) == 3 * 24
    assert sorted(request.seed_hint for request in calls) == [5] * 24 + [6] * 24 + [7] * 24
    assert len(backend.threads) > 1


def test_grounding_failure_propagates_from_the_pool(toy_manifest):
    gateway = scripted_gateway([])
    with pytest.raises(FixtureMissError, match="while grounding component"):
        run_predictions(
            toy_manifest,
            [AnswerMode.FULL_DSG],
            gateway,
            load_schemas(toy_manifest),
            runs=3,
            concurrency=2,
        )


# ---------------------------------------------------------------- the turn


def ablate_argv(toy, tmp_path) -> list[str]:
    return [
        "ablate",
        "--manifest", str(toy.manifest_path),
        "--backend-config", str(toy.backend_config_path),
        "--cache-dir", str(tmp_path / "cache"),
        "--concurrency", "4",
    ]


def record_threads(monkeypatch) -> set[int]:
    """The threads that call `ModelGateway.complete` from here on."""
    threads = set()
    complete = ModelGateway.complete
    monkeypatch.setattr(
        ModelGateway,
        "complete",
        lambda self, request: (threads.add(threading.get_ident()), complete(self, request))[1],
    )
    return threads


def test_a_warm_ablate_runs_on_one_thread(toy, tmp_path, monkeypatch):
    argv = ablate_argv(toy, tmp_path)
    assert cli.main([*argv, "--out", str(tmp_path / "cold")]) == 0
    calls = []
    monkeypatch.setattr(
        ScriptedBackend, "complete", lambda self, request: calls.append(request)
    )
    threads = record_threads(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0
    assert calls == []
    assert len(threads) == 1


# A warm replay of fresh images, too young for the image-digest memo to
# record, reads every image for its digest before its first request, on the
# calling thread, whatever the number of workers.
@pytest.mark.parametrize("concurrency", [1, 4])
def test_a_warm_ablate_hashes_every_image_before_the_first_request(
    toy, tmp_path, monkeypatch, concurrency
):
    settle_images(monkeypatch, settled=False)
    argv = ablate_argv(toy, tmp_path)
    argv[argv.index("--concurrency") + 1] = str(concurrency)
    assert cli.main([*argv, "--out", str(tmp_path / "cold")]) == 0
    paths = {instance.image.path for instance in load_manifest(toy.manifest_path).instances}
    events = []
    reads = record_reads(monkeypatch, paths)
    digest, complete = ImageRef.digest, ModelGateway.complete

    def recording_digest(self):
        thread = threading.current_thread()
        read_before = reads.count(thread)
        value = digest(self)
        if reads.count(thread) > read_before:
            events.append("hashed")
        return value

    def recording_complete(self, request):
        events.append("complete")
        return complete(self, request)

    monkeypatch.setattr(ImageRef, "digest", recording_digest)
    monkeypatch.setattr(ModelGateway, "complete", recording_complete)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0
    finally:
        sys.setswitchinterval(interval)
    for cold in sorted((tmp_path / "cold").iterdir()):
        assert (tmp_path / "warm" / cold.name).read_bytes() == cold.read_bytes()
    assert len(reads) == len(paths) == 4
    assert set(reads) == {threading.current_thread()}
    first_request = events.index("complete")
    assert events[:first_request] == ["hashed"] * len(paths)
    assert memo_digests(tmp_path / "cache") == []


# A scripted backend never waits, so a call to it keeps the turn, and a cold
# scripted ablate runs on one thread as a warm one does.
def test_a_cold_scripted_ablate_runs_on_one_thread(toy, tmp_path, monkeypatch):
    threads = record_threads(monkeypatch)
    assert cli.main([*ablate_argv(toy, tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert len(threads) == 1


# The cache's map is the one place a reply is looked up: each `complete`
# reads its key there once, whether the reply is held, in flight or still to
# fetch, and the put that follows a miss does not read it again.
def test_each_complete_looks_its_key_up_once(toy, tmp_path, monkeypatch):
    keys, requests = [], []
    get, complete = ResponseCache.get, ModelGateway.complete
    monkeypatch.setattr(
        ResponseCache, "get", lambda self, key: (keys.append(key), get(self, key))[1]
    )
    monkeypatch.setattr(
        ModelGateway,
        "complete",
        lambda self, request: (requests.append(request), complete(self, request))[1],
    )
    assert cli.main([*ablate_argv(toy, tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert len(keys) == len(requests) == 84
    assert len(set(keys)) == 72


class Gate(PassThrough):
    """A backend that waits: it takes the place of a gateway's backend and
    lets no call return before `width` calls are in flight at once. The
    gateway gives the turn up only before a call to a backend that waits,
    which a scripted one does not. A gate that has not opened after 10 s
    opens anyway and records it, so a scheduler that never reaches the width
    fails its test instead of hanging it."""

    def __init__(self, gateway: ModelGateway, width: int):
        super().__init__(gateway)
        self.width = width
        self.peak = self.inflight = 0
        self.timed_out = False
        self._lock = threading.Lock()
        self._open = threading.Event()

    def complete(self, request):
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            if self.inflight == self.width:
                self._open.set()
        try:
            if not self._open.wait(timeout=10):
                self.timed_out = True
                self._open.set()
            return super().complete(request)
        finally:
            with self._lock:
                self.inflight -= 1


def run_in_thread(target) -> None:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()


# Each worker lets the turn go before its backend call, so `concurrency`
# calls are in flight at once: never more, and not only one.
@pytest.mark.parametrize("concurrency", [2, 3])
def test_the_turn_is_let_go_at_the_backend(toy, toy_manifest, concurrency):
    gateway = ModelGateway.from_config(toy.backend_config_path)
    gate = Gate(gateway, concurrency)
    found = []
    run_in_thread(lambda: found.append(
        run_predictions(
            toy_manifest,
            list(AnswerMode),
            gateway,
            load_schemas(toy_manifest),
            concurrency=concurrency,
        )
    ))
    assert not gate.timed_out
    assert gate.peak == concurrency
    assert all(len(predictions) == 12 for predictions in found[0].values())


# One image, and tasks in the order hierarchical, sequential, baseline. The
# first worker's grounding request waits at the gate; the second worker's
# sequential walk asks the same request first (the first component has no
# dependency to describe) and waits on its flight. Only if that wait lets
# the turn go can the third worker start the baseline task, whose answer is
# the second call the gate needs.
def test_a_wait_on_a_flight_lets_the_turn_go(toy, toy_manifest):
    image = toy_manifest.instances[0].image
    manifest = DatasetManifest(
        tuple(instance for instance in toy_manifest.instances if instance.image is image)
    )
    gateway = ModelGateway.from_config(toy.backend_config_path)
    gate = Gate(gateway, 2)
    modes = [
        AnswerMode.GROUNDING_SEQUENTIAL,
        AnswerMode.GROUNDING_HIERARCHICAL,
        AnswerMode.BASELINE,
    ]
    found = []
    run_in_thread(lambda: found.append(
        run_predictions(manifest, modes, gateway, load_schemas(manifest), concurrency=3)
    ))
    assert not gate.timed_out
    assert [len(found[0][mode]) for mode in modes] == [len(manifest.instances)] * 3


# The failing task never gives the turn up, so no other worker starts a task
# before the failure is seen, and none starts one after.
def test_after_a_failure_no_new_task_starts(toy_manifest, monkeypatch):
    raised = []

    def fail(*args, **kwargs):
        raised.append(RuntimeError(f"answer {len(raised)}"))
        raise raised[-1]

    monkeypatch.setattr(runner, "answer", fail)
    gateway = ModelGateway(ScriptedBackend([]))
    with pytest.raises(RuntimeError) as excinfo:
        run_predictions(
            toy_manifest,
            [AnswerMode.BASELINE],
            gateway,
            load_schemas(toy_manifest),
            runs=3,
            concurrency=4,
        )
    assert len(raised) == 1
    assert excinfo.value is raised[0]


def interrupt_while_both_workers_wait(toy_manifest, monkeypatch, interrupt) -> float:
    """Run two workers over the toy baseline tasks and call `interrupt` once
    both wait in the backend, whose calls return only once the runner's
    interrupt path lets the turn go (or after 5 s). Checks that the
    interrupt reaches the caller, that no worker starts a new task and that
    each is joined; returns the seconds from `interrupt` to the raise."""
    concurrency = 2
    lock = threading.Lock()
    interrupted, release = threading.Event(), threading.Event()
    workers, tasks = set(), set()
    sent_at = []

    class Held:
        backend_id = "held"

        def complete(self, request):
            with lock:
                workers.add(threading.current_thread())
                if len(workers) == concurrency and not interrupted.is_set():
                    interrupted.set()
                    sent_at.append(time.perf_counter())
                    interrupt()
            assert release.wait(timeout=5), "the interrupt never reached the runner"
            return "yes"

    def record_task(instance, *args, **kwargs):
        tasks.add(instance.image.digest())
        return answer(instance, *args, **kwargs)

    gateway = ModelGateway(Held())
    give_turn = gateway.give_turn

    def give_turn_then_release():
        # The runner's interrupt path records the interrupt before it lets
        # the turn go, so from here on no worker takes a new task.
        if interrupted.is_set() and threading.current_thread() is threading.main_thread():
            release.set()
        give_turn()

    monkeypatch.setattr(gateway, "give_turn", give_turn_then_release)
    monkeypatch.setattr(runner, "answer", record_task)
    with pytest.raises(KeyboardInterrupt):
        try:
            run_predictions(
                toy_manifest,
                [AnswerMode.BASELINE],
                gateway,
                load_schemas(toy_manifest),
                concurrency=concurrency,
            )
        finally:
            raised_at = time.perf_counter()
    assert release.is_set()
    assert len(workers) == len(tasks) == concurrency
    assert not any(worker.is_alive() for worker in workers)
    return raised_at - sent_at[0]


# Ctrl-C while every worker waits on the backend: SIGINT sent to the main
# thread, as a terminal sends it, wakes the caller at once.
def test_an_interrupt_starts_no_new_task_and_joins_every_worker(toy_manifest, monkeypatch):
    main = threading.main_thread().ident
    interrupt_while_both_workers_wait(
        toy_manifest, monkeypatch, lambda: signal.pthread_kill(main, signal.SIGINT)
    )


# An interrupt that is only flagged (`_thread.interrupt_main`, here from a
# timer thread) wakes no blocked thread. The caller still sees it within one
# of its short joins, while both backend calls are held, not after them.
def test_a_flagged_interrupt_is_seen_while_the_workers_wait(toy_manifest, monkeypatch):
    def interrupt_from_a_timer():
        timer = threading.Timer(0.01, _thread.interrupt_main)
        timer.daemon = True
        timer.start()

    seconds = interrupt_while_both_workers_wait(
        toy_manifest, monkeypatch, interrupt_from_a_timer
    )
    assert seconds < 2


def test_schema_dir_override_replaces_only_its_concept(toy_manifest, tmp_path):
    (tmp_path / "maze.schema").write_text("gen(concept=maze) =\n    gen(walls | concept=maze)\n")
    schemas = load_schemas(toy_manifest, tmp_path)
    assert [node.id for node in schemas["maze"].nodes] == ["walls"]
    for concept in ("atom", "cell", "solar-system"):
        assert schemas[concept].text == load_canonical_schema(concept).text

"""Gateway contracts: request shapes, cache keys, scripted/HTTP backends."""

from __future__ import annotations

import base64
import hashlib
import io
import json
import logging
import os
import re
import stat
import sys
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemaground import cli
from schemaground.errors import (
    BackendConfigError,
    BackendUnavailableError,
    FixtureMissError,
    MalformedReplyError,
    MissingImageError,
    exit_code_for,
)
from schemaground.gateway import (
    ALLOWED_MEDIA_TYPES,
    HttpBackend,
    ImageRef,
    Message,
    ModelGateway,
    ModelRequest,
    ResponseCache,
    ScriptedBackend,
    cache_key,
    read_json,
)
from schemaground.qa import AnswerMode
from schemaground.runner import load_schemas, run_predictions
from schemaground.toydata import tiny_png, toy_fixture_rules

from helpers import cache_records, memo_digests, record_reads, settle_images, write_log

PNG = tiny_png((9, 9, 9))


def _request(text="hello", image=None, seed_hint=0, temperature=0.0):
    return ModelRequest(
        model_id="m1",
        messages=(Message("user", text, image=image),),
        temperature=temperature,
        seed_hint=seed_hint,
    )


# --------------------------------------------------------------- image refs


def test_image_ref_from_file_infers_media_type(tmp_path):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    ref = ImageRef.from_file(path)
    assert ref.media_type == "image/png"
    assert ref.load_bytes() == PNG


def test_image_ref_rejects_unknown_extension(tmp_path):
    with pytest.raises(ValueError, match="media type"):
        ImageRef.from_file(tmp_path / "x.bmp")


def test_image_ref_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ImageRef(media_type="image/png")
    with pytest.raises(ValueError, match="exactly one"):
        ImageRef(media_type="image/png", path=tmp_path / "x.png", data=PNG)


@pytest.mark.parametrize("media_type", ["image/gif", 'image/png";base64,x"}'])
def test_image_ref_refuses_a_media_type_the_http_body_cannot_carry(media_type):
    with pytest.raises(ValueError, match="unsupported media type"):
        ImageRef(media_type, data=PNG)


def test_image_digest_same_for_path_and_inline(tmp_path):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    assert ImageRef.from_file(path).digest() == ImageRef("image/png", data=PNG).digest()


# A file of several 64 KiB blocks, the last cut short, has the digest of
# its bytes.
def test_image_digest_of_a_file_of_several_blocks(tmp_path):
    data = PNG + bytes(range(256)) * 1000
    path = tmp_path / "x.png"
    path.write_bytes(data)
    assert len(data) > 3 * (1 << 16)
    assert ImageRef.from_file(path).digest() == hashlib.sha256(data).hexdigest()


def test_image_digest_reads_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    image = ImageRef.from_file(path)
    reads = record_reads(monkeypatch, [path])
    digests = {image.digest() for _ in range(3)}
    assert digests == {hashlib.sha256(PNG).hexdigest()}
    assert len(reads) == 1
    assert image == ImageRef.from_file(path)
    assert hash(image) == hash(ImageRef.from_file(path))


# A file that cannot be stat'ed or read is a missing image, whichever of the
# digest, the memo or the request body reaches it.
def test_an_image_file_that_cannot_be_read_is_a_missing_image(tmp_path, monkeypatch):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    read_bytes = Path.read_bytes

    def refuse(file):
        if file == path:
            raise PermissionError(13, "Permission denied", str(file))
        return read_bytes(file)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    denied = f"cannot read image {path}: Permission denied"
    with pytest.raises(MissingImageError, match=re.escape(denied)):
        ImageRef.from_file(path).digest()
    with pytest.raises(MissingImageError, match=re.escape(denied)):
        ResponseCache(tmp_path / "cache").image_digest(ImageRef.from_file(path))
    monkeypatch.undo()

    image = ImageRef.from_file(path)
    image.digest()
    path.unlink()
    gone = f"cannot read image {path}: No such file or directory"
    with pytest.raises(MissingImageError, match=re.escape(gone)):
        ResponseCache(tmp_path / "cache").image_digest(ImageRef.from_file(path))
    backend, adapter, _ = _http([])
    with pytest.raises(MissingImageError, match=re.escape(gone)):
        backend.complete(_request(image=image))
    assert adapter.sent == []


# ----------------------------------------------------------------- messages


def test_message_role_and_content_invariants():
    image = ImageRef("image/png", data=PNG)
    with pytest.raises(ValueError, match="role"):
        Message("narrator", "hi")
    with pytest.raises(ValueError, match="role"):
        Message("system", "s")
    with pytest.raises(ValueError, match="assistant"):
        Message("assistant", "hi", image=image)
    # A message has text, with or without an image.
    for message_image in (None, image):
        with pytest.raises(ValueError, match="non-empty"):
            Message("user", "", image=message_image)
    assert Message("user", "look", image=image).image is image


def test_request_requires_alternating_roles():
    user = Message("user", "q")
    assistant = Message("assistant", "a")
    ModelRequest(model_id="m", messages=(user, assistant, user))
    with pytest.raises(ValueError, match="alternate"):
        ModelRequest(model_id="m", messages=(user, user))
    with pytest.raises(ValueError, match="alternate"):
        ModelRequest(model_id="m", messages=(assistant,))
    with pytest.raises(ValueError, match="non-empty"):
        ModelRequest(model_id="m", messages=())
    # A request ends on the user turn.
    for messages in [(user, assistant), (user, assistant, user, assistant)]:
        with pytest.raises(ValueError, match="end on a user message"):
            ModelRequest(model_id="m", messages=messages)
    with pytest.raises(ValueError, match="temperature"):
        ModelRequest(model_id="m", messages=(user,), temperature=-0.5)
    with pytest.raises(ValueError, match="max_tokens"):
        ModelRequest(model_id="m", messages=(user,), max_tokens=0)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf"), -0.1])
def test_request_rejects_a_temperature_that_is_negative_or_not_finite(temperature):
    with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
        _request(temperature=temperature)


# A bool is `true` to JSON, a string is a string: none of these may enter a
# cache key or a request body as the number the field means.
@pytest.mark.parametrize(
    "field, value",
    [
        ("max_tokens", True),
        ("max_tokens", 2.5),
        ("max_tokens", "7"),
        ("seed_hint", True),
        ("seed_hint", 1.5),
        ("seed_hint", "7"),
        ("seed_hint", None),
        ("temperature", True),
        ("temperature", "0.5"),
        ("temperature", None),
    ],
)
def test_request_rejects_a_number_field_of_another_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ModelRequest("m", (Message("user", "x"),), **{field: value})


def test_request_and_message_reject_text_that_is_not_a_string():
    with pytest.raises(ValueError, match="model_id must be a string"):
        ModelRequest(7, (Message("user", "x"),))
    with pytest.raises(ValueError, match="text must be a string"):
        Message("user", b"x")


# --------------------------------------------------------------- cache keys


def test_cache_key_is_stable_and_sensitive():
    base = cache_key("b", _request())
    assert base == cache_key("b", _request())
    assert base != cache_key("other-backend", _request())
    assert base != cache_key("b", _request(text="different"))
    assert base != cache_key("b", _request(seed_hint=1))
    assert base != cache_key("b", _request(temperature=0.7))


def test_cache_key_uses_image_digest_not_bytes(tmp_path):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    from_path = _request(image=ImageRef.from_file(path))
    inline = _request(image=ImageRef("image/png", data=PNG))
    assert cache_key("b", from_path) == cache_key("b", inline)
    # The key hashes the image's digest and nothing else of the image: the
    # reference key below names the image by its digest alone.
    assert cache_key("b", inline) == _reference_key("b", inline)
    other = _request(image=ImageRef("image/png", data=PNG + b"x"))
    assert cache_key("b", inline) != cache_key("b", other)


def _reference_key(backend_id: str, request: ModelRequest) -> str:
    payload = {
        "backend_id": backend_id,
        "model_id": request.model_id,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "seed_hint": request.seed_hint,
        "messages": [
            {
                "role": message.role,
                "text": message.text,
                "images": []
                if message.image is None
                else [{"media_type": message.image.media_type, "sha256": message.image.digest()}],
            }
            for message in request.messages
        ],
    }
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# Any character, lone surrogates included, with the ones JSON escapes drawn
# often: quotes, backslashes, control characters and non-ASCII.
_KEY_TEXT = st.text(
    alphabet=st.characters(exclude_categories=())
    | st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\u00e9\u2028\ud800\udfff\U0001f600')
)


# One or three messages, alternating from a user message, each with text;
# a user message carries no image or one.
@st.composite
def _key_requests(draw):
    messages = []
    for index in range(draw(st.sampled_from([1, 3]))):
        image = None
        if index % 2 == 0:
            image = draw(
                st.none()
                | st.builds(
                    ImageRef, st.sampled_from(ALLOWED_MEDIA_TYPES), data=st.binary(max_size=8)
                )
            )
        text = draw(_KEY_TEXT.filter(bool))
        messages.append(Message("user" if index % 2 == 0 else "assistant", text, image))
    temperature = draw(
        st.sampled_from([0, 0.0, 1e-7, 1e16, 0.1 + 0.2])
        | st.integers(min_value=0, max_value=2**70)
        | st.floats(min_value=0, allow_nan=False, allow_infinity=False)
    )
    return draw(_KEY_TEXT), ModelRequest(
        draw(_KEY_TEXT),
        tuple(messages),
        temperature,
        draw(st.integers(min_value=1, max_value=2**70)),
        draw(st.integers(min_value=-(2**70), max_value=2**70)),
    )


@settings(max_examples=300)
@given(backend_and_request=_key_requests())
def test_cache_key_hashes_the_json_dumps_of_the_payload(backend_and_request):
    backend_id, request = backend_and_request
    assert cache_key(backend_id, request) == _reference_key(backend_id, request)


# ------------------------------------------------------------ response cache


def test_response_cache_roundtrip_and_write_once(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = cache_key("b", _request())
    assert cache.get(key) is None
    cache.put(key, "first")
    cache.put(key, "second attempt must not overwrite")
    assert cache.get(key) == "first"
    assert ResponseCache(tmp_path / "cache").get(key) == "first"
    assert cache_records(tmp_path / "cache", "key") == [{"key": key, "text": "first"}]
    assert len(list((tmp_path / "cache").iterdir())) == 1


@pytest.mark.parametrize("blank", ["", "   \n"])
def test_a_blank_cached_reply_is_a_miss_that_the_next_fetch_replaces(tmp_path, blank):
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    request = _request("q?")
    key = cache_key(backend.backend_id, request)
    write_log(tmp_path / "cache", json.dumps({"key": key, "text": blank}))
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get(key) is None
    assert ModelGateway(backend, cache=cache).complete(request) == "r"
    assert cache.get(key) == "r"
    assert ResponseCache(tmp_path / "cache").get(key) == "r"


def test_response_cache_reads_an_entry_longer_than_one_read(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    text = "é" * 100_000  # 200 KB of UTF-8, so several reads of 64 KiB
    cache.put("k", text)
    assert ResponseCache(tmp_path / "cache").get("k") == text


def test_a_cached_reply_with_a_lone_surrogate_is_a_miss_that_the_next_fetch_replaces(tmp_path):
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    request = _request("q?")
    key = cache_key(backend.backend_id, request)
    write_log(tmp_path / "cache", '{"key": "%s", "text": "yes \\ud800"}' % key)
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get(key) is None
    assert ModelGateway(backend, cache=cache).complete(request) == "r"
    texts = [record["text"] for record in cache_records(tmp_path / "cache", "key")]
    assert texts == ["yes \ud800", "r"]
    assert ResponseCache(tmp_path / "cache").get(key) == "r"


# A cache creates its one log on its first put, named by its creation time
# and process id, and appends each later record to it.
def test_a_put_creates_its_entry_in_place(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert list((tmp_path / "cache").iterdir()) == []
    cache.put("k", "r")
    cache.put("k2", "é\u2028")
    assert cache.get("k") == "r"
    (log,) = (tmp_path / "cache").iterdir()
    assert re.fullmatch(r"\d{20}-%d\.jsonl" % os.getpid(), log.name)
    assert abs(int(log.name[:20]) - time.time_ns()) < 60e9
    assert stat.S_IMODE(log.stat().st_mode) == 0o600
    assert log.read_bytes() == (
        b'{"key": "k", "text": "r"}\n{"key": "k2", "text": "\xc3\xa9\xe2\x80\xa8"}\n'
    )
    assert ResponseCache(tmp_path / "cache").get("k2") == "é\u2028"


def test_a_put_into_a_removed_cache_root_logs_a_warning_and_raises_nothing(
    tmp_path, caplog
):
    root = tmp_path / "cache"
    cache = ResponseCache(root)
    root.rmdir()
    with caplog.at_level(logging.WARNING, logger="schemaground.gateway"):
        cache.put("k", "r")
        # The reply is still held, so a second put of its key writes nothing.
        assert cache.get("k") == "r"
        cache.put("k", "r")
        assert caplog.text.count(f"cache record not written in {root}") == 1
        cache.put("k2", "r")
    assert caplog.text.count(f"cache record not written in {root}") == 2
    assert not root.exists()


# A cache with no root holds its records in memory only.
def test_a_rootless_cache_round_trips_in_memory_and_makes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResponseCache()
    assert cache.root is None
    assert cache.get("k") is None
    cache.put("k", "r")
    cache.put("k", "again")
    assert cache.get("k") == "r"
    assert list(tmp_path.iterdir()) == []


# A cacheless run keeps no image-digest memo, so it stats no image: it only
# hashes each one, in one read.
def test_a_rootless_cache_takes_an_image_digest_in_one_read_and_no_stat(
    tmp_path, monkeypatch
):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    stats = []
    real_stat = os.stat
    monkeypatch.setattr(
        os, "stat", lambda *args, **kwargs: (stats.append(args[0]), real_stat(*args, **kwargs))[1]
    )
    reads = record_reads(monkeypatch, [path])
    image = ImageRef.from_file(path)
    cache = ResponseCache()
    digest = hashlib.sha256(PNG).hexdigest()
    assert cache.image_digest(image) == cache.image_digest(image) == digest
    assert len(reads) == 1
    assert stats == []


# Two gateways with their own caches stand for two processes sharing one
# cache directory. For each request both backends reply at once, each with
# its own text, so the two puts of one key race, each into its own log. Half
# the keys start with a blank record, as a bad write leaves one, in a log
# that sorts first. Every later command gets the first valid record.
def test_racing_puts_of_one_key_leave_one_entry_that_stays(tmp_path):
    barrier = threading.Barrier(2, timeout=TIMEOUT_S)

    class Racing:
        backend_id = "racing"

        def __init__(self, reply):
            self.reply = reply

        def complete(self, request):
            barrier.wait()
            return self.reply

    root = tmp_path / "cache"
    requests_ = [_request(f"q{index}") for index in range(20)]
    keys = [cache_key("racing", request) for request in requests_]
    write_log(root, *(json.dumps({"key": key, "text": ""}) for key in keys[::2]))
    gateways = [ModelGateway(Racing(reply), cache=ResponseCache(root)) for reply in "ab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for request in requests_:
            replies = []
            threads = [
                threading.Thread(target=lambda g=g: replies.append(g.complete(request)))
                for g in gateways
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT_S)
            assert sorted(replies) == ["a", "b"]
    finally:
        sys.setswitchinterval(interval)
    logs = sorted(root.iterdir())
    assert len(logs) == 3
    assert all(stat.S_IMODE(log.stat().st_mode) == 0o600 for log in logs[1:])
    records = cache_records(root, "key")
    assert len(records) == 10 + 2 * 20
    won = {}
    for record in records:
        if record["text"]:
            won.setdefault(record["key"], record["text"])
    assert sorted(won) == sorted(keys)
    assert set(won.values()) <= {"a", "b"}
    for key, request in zip(keys, requests_):
        ResponseCache(root).put(key, "c")
        assert ModelGateway(Racing("c"), cache=ResponseCache(root)).complete(request) == won[key]
    assert sorted(root.iterdir()) == logs
    assert cache_records(root, "key") == records


def test_read_json_reads_json_and_lets_os_errors_through(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"a": [1e308, -0.5, 12345678901234567890, "é", null]}')
    assert read_json(path) == {"a": [1e308, -0.5, 12345678901234567890, "é", None]}
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json")
    with pytest.raises(IsADirectoryError):
        read_json(tmp_path)


# --------------------------------------------------------- scripted backend


def test_scripted_backend_matchers_and_order():
    backend = ScriptedBackend(
        [
            {"match": {"equals": "exact"}, "reply": "by-equals"},
            {"match": {"contains": "needle"}, "reply": "by-contains"},
            {"match": {"regex": r"\bn\d+\b"}, "reply": "by-regex"},
            {"match": {"contains": "needle in haystack"}, "reply": "shadowed"},
        ]
    )
    assert backend.complete(_request("exact")) == "by-equals"
    assert backend.complete(_request("a needle in haystack")) == "by-contains"
    assert backend.complete(_request("token n42 here")) == "by-regex"
    with pytest.raises(FixtureMissError):
        backend.complete(_request("nothing matches this"))


def test_scripted_backend_matches_last_user_message():
    backend = ScriptedBackend(
        [
            {"match": {"contains": "first"}, "reply": "A"},
            {"match": {"contains": "second"}, "reply": "B"},
        ]
    )
    request = ModelRequest(
        model_id="m",
        messages=(
            Message("user", "first turn"),
            Message("assistant", "A"),
            Message("user", "second turn"),
        ),
    )
    assert backend.complete(request) == "B"
    miss = ModelRequest(
        model_id="m",
        messages=(
            Message("user", "first turn"),
            Message("assistant", "A"),
            Message("user", "no rule for this"),
        ),
    )
    with pytest.raises(FixtureMissError):
        backend.complete(miss)


@pytest.mark.parametrize(
    "rule",
    [
        {"match": {"glob": "x"}, "reply": "r"},
        {"match": {"equals": "x", "contains": "y"}, "reply": "r"},
        {"match": "x", "reply": "r"},
        {"match": {"equals": "x"}},
        {"match": {"equals": "x"}, "reply": 3},
    ],
)
def test_scripted_backend_rejects_bad_rules(rule):
    with pytest.raises(BackendConfigError):
        ScriptedBackend([rule])


@pytest.mark.parametrize(
    ("rule", "message"),
    [
        ({"match": {"regex": "(unclosed"}, "reply": "r"}, "bad regex"),
        ({"match": {"contains": 5}, "reply": "r"}, "contains needle must be a string"),
        ({"match": {"equals": ["x"]}, "reply": "r"}, "equals needle must be a string"),
        ("x", "must be a JSON object, got str"),
        (5, "must be a JSON object, got int"),
    ],
)
def test_scripted_backend_rejects_bad_needles_when_built(rule, message):
    good = {"match": {"contains": "q"}, "reply": "r"}
    with pytest.raises(BackendConfigError, match=f"fixture rule 1: {message}") as info:
        ScriptedBackend([good, rule])
    assert exit_code_for(info.value) == 23


def test_scripted_backend_from_file_is_deterministic_across_instances(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"match": {"contains": "q"}, "reply": "r"}]))
    first = ScriptedBackend.from_file(path)
    second = ScriptedBackend.from_file(path)
    assert first.complete(_request("q?")) == second.complete(_request("q?")) == "r"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(BackendConfigError):
        ScriptedBackend.from_file(bad)


def test_scripted_backend_fixture_file_missing_or_not_json(tmp_path):
    with pytest.raises(BackendConfigError, match="cannot read fixture file"):
        ScriptedBackend.from_file(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(BackendConfigError, match="cannot read fixture file"):
        ScriptedBackend.from_file(broken)
    broken.write_text('[{"match": {"contains": "q"}, "reply": NaN}]')
    with pytest.raises(BackendConfigError, match="cannot read fixture file .*NaN is not"):
        ScriptedBackend.from_file(broken)


# ------------------------------------------------------------- http backend


class _Reply:
    """One scripted reply: a status and a completion payload, "ok" by default."""

    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self.payload = payload


class _CapturingAdapter(requests.adapters.BaseAdapter):
    """A transport that keeps a copy of each prepared request as it was sent,
    and the settings it was sent with. Each send replays the next item of
    `script` while one is left: an exception is raised, a `_Reply` is
    answered. Otherwise it replies "ok", or what `reply` gives for the
    request."""

    def __init__(self, reply=lambda request: "ok", script=()):
        super().__init__()
        self.sent = []
        self.settings = []
        self._reply = reply
        self._script = list(script)

    def send(self, request, **kwargs):
        self.sent.append(request.copy())
        self.settings.append(kwargs)
        item = self._script.pop(0) if self._script else _Reply()
        if isinstance(item, Exception):
            raise item
        payload = item.payload
        if payload is None:
            payload = {"choices": [{"message": {"content": self._reply(request)}}]}
        response = requests.Response()
        response.status_code = item.status_code
        response.raw = io.BytesIO(json.dumps(payload).encode("utf-8"))
        response.request = request
        response.url = request.url
        return response

    def close(self):
        pass


def _http(script, **kwargs):
    """A backend whose own session sends to an adapter replaying `script`."""
    sleeps = []
    backend = HttpBackend(base_url="https://api.example.test/v1", sleep=sleeps.append, **kwargs)
    adapter = _CapturingAdapter(script=script)
    backend.session.mount("https://api.example.test/", adapter)
    return backend, adapter, sleeps


def test_http_backend_success_payload_shape():
    backend, adapter, _ = _http([_Reply()])
    request = ModelRequest(
        model_id="vlm-1",
        messages=(Message("user", "look", image=ImageRef("image/png", data=PNG)),),
        temperature=0.25,
        max_tokens=99,
        seed_hint=7,
    )
    assert backend.complete(request) == "ok"
    (sent,) = adapter.sent
    assert sent.method == "POST"
    assert sent.url == "https://api.example.test/v1/chat/completions"
    body = json.loads(sent.body)
    assert body["model"] == "vlm-1"
    assert body["temperature"] == 0.25
    assert body["max_tokens"] == 99
    assert body["seed"] == 7
    parts = body["messages"][0]["content"]
    assert parts[0] == {"type": "text", "text": "look"}
    url = parts[1]["image_url"]["url"]
    assert url.startswith("data:image/png;base64,")
    assert base64.b64decode(url.split(",", 1)[1]) == PNG


def test_http_backend_retries_server_errors_with_backoff():
    backend, adapter, sleeps = _http([_Reply(500), _Reply(503), _Reply()])
    assert backend.complete(_request()) == "ok"
    assert len(adapter.sent) == 3
    assert sleeps == [1.0, 2.0]


def test_http_backend_retries_transport_errors():
    backend, adapter, sleeps = _http([requests.ConnectionError("refused"), _Reply()])
    assert backend.complete(_request()) == "ok"
    assert len(adapter.sent) == 2
    assert sleeps == [1.0]


def test_http_backend_gives_up_after_three_attempts():
    backend, adapter, sleeps = _http([_Reply(500)] * 3)
    with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
        backend.complete(_request())
    assert len(adapter.sent) == 3
    assert sleeps == [1.0, 2.0]


def test_a_retry_sends_the_same_body_and_headers_with_the_timeout(monkeypatch):
    monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-123")
    backend, adapter, _ = _http(
        [_Reply(503), requests.ConnectionError("reset"), _Reply()], api_key_env="TEST_GATEWAY_KEY"
    )
    request = _request(image=ImageRef("image/png", data=PNG))
    assert backend.complete(request) == "ok"
    first, *retries = adapter.sent
    assert first.body == _reference_body(request)
    assert first.headers["Authorization"] == "Bearer sk-123"
    assert first.headers["Content-Length"] == str(len(first.body))
    for retry in retries:
        assert (retry.method, retry.url, retry.body) == (first.method, first.url, first.body)
        assert dict(retry.headers) == dict(first.headers)
    assert [settings["timeout"] for settings in adapter.settings] == [60.0] * 3


def test_http_backend_never_goes_through_session_request(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Session.request reached")

    monkeypatch.setattr(requests.Session, "request", refuse)
    backend, adapter, _ = _http([_Reply(500), _Reply()])
    assert backend.complete(_request()) == "ok"
    assert len(adapter.sent) == 2


def test_a_request_copies_no_cookie_jar_and_builds_a_cookie_header_only_for_a_cookie(
    monkeypatch,
):
    built, copied = [], []
    prepare_cookies = requests.PreparedRequest.prepare_cookies
    copy = requests.cookies.RequestsCookieJar.copy

    def record_build(self, cookies):
        built.append(cookies)
        prepare_cookies(self, cookies)

    def record_copy(self):
        copied.append(self)
        return copy(self)

    backend, adapter, _ = _http([_Reply(503), _Reply()])
    monkeypatch.setattr(requests.PreparedRequest, "prepare_cookies", record_build)
    monkeypatch.setattr(requests.cookies.RequestsCookieJar, "copy", record_copy)
    assert backend.complete(_request()) == "ok"
    assert built == []
    assert [sent.headers.get("Cookie") for sent in adapter.sent] == [None, None]

    backend.session.cookies.set("session", "s1", domain="api.example.test", path="/")
    assert backend.complete(_request()) == "ok"
    assert built == [backend.session.cookies]
    assert adapter.sent[-1].headers["Cookie"] == "session=s1"
    # The only copies are the ones the capturing adapter keeps of what it sent.
    assert len(copied) == len(adapter.sent) == 3


@pytest.mark.parametrize("status", [400, 401, 403, 404, 429])
def test_http_backend_client_errors_fail_fast(status):
    backend, adapter, sleeps = _http([_Reply(status)] * 3)
    with pytest.raises(BackendUnavailableError, match=str(status)):
        backend.complete(_request())
    assert len(adapter.sent) == 1
    assert sleeps == []


def test_http_backend_malformed_reply():
    backend, _, _ = _http([_Reply(payload={"unexpected": []})])
    with pytest.raises(MalformedReplyError):
        backend.complete(_request())


@pytest.mark.parametrize(
    "content, problem",
    [(["ok"], "list"), (7, "int"), ({"text": "ok"}, "dict"), (None, "empty reply")],
)
def test_http_backend_content_that_is_not_text_is_malformed(content, problem):
    backend, _, _ = _http([_Reply(payload={"choices": [{"message": {"content": content}}]})])
    with pytest.raises(MalformedReplyError, match=problem) as info:
        ModelGateway(backend).complete(_request())
    assert exit_code_for(info.value) == 22


def test_http_backend_api_key_handling(monkeypatch):
    backend, adapter, _ = _http([_Reply()], api_key_env="TEST_GATEWAY_KEY")
    monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
    with pytest.raises(BackendUnavailableError, match="TEST_GATEWAY_KEY"):
        backend.complete(_request())
    assert adapter.sent == []

    monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-123")
    backend2, adapter2, _ = _http([_Reply()], api_key_env="TEST_GATEWAY_KEY")
    backend2.complete(_request())
    assert adapter2.sent[0].headers["Authorization"] == "Bearer sk-123"


# A line break, or a character that Latin-1 cannot encode (a pasted em dash),
# cannot go in the Authorization header: the key is refused as an unset one
# is, before any request, and the message does not echo it.
@pytest.mark.parametrize("key", ["sk-a\nb", "sk-\u2014pasted"])
def test_an_api_key_that_cannot_be_a_header_value_is_refused_before_sending(monkeypatch, key):
    monkeypatch.setenv("TEST_GATEWAY_KEY", key)
    backend, adapter, _ = _http([_Reply()], api_key_env="TEST_GATEWAY_KEY")
    with pytest.raises(BackendUnavailableError, match="'TEST_GATEWAY_KEY'") as info:
        ModelGateway(backend).complete(_request())
    assert exit_code_for(info.value) == 20
    assert "pasted" not in str(info.value) and "sk-" not in str(info.value)
    assert adapter.sent == []


@pytest.mark.parametrize(
    "base_url", ["http://[::1/v1", "api.example.test/v1", "ftp://api.example.test/v1"]
)
def test_a_base_url_that_cannot_be_sent_to_is_a_config_error_when_built(
    tmp_path, monkeypatch, base_url
):
    sent = []
    monkeypatch.setattr(
        requests.adapters.HTTPAdapter, "send", lambda self, *args, **kwargs: sent.append(args)
    )
    sleeps = []
    with pytest.raises(BackendConfigError, match="bad base_url") as info:
        HttpBackend(base_url, sleep=sleeps.append)
    assert exit_code_for(info.value) == 23
    config = tmp_path / "backend.json"
    config.write_text(
        json.dumps({"backend_id": "b", "kind": "http", "model_id": "m", "base_url": base_url})
    )
    with pytest.raises(BackendConfigError, match="bad base_url"):
        ModelGateway.from_config(config)
    assert sent == [] and sleeps == []


# ------------------------------------------------------------- request body


def _reference_payload(request: ModelRequest) -> dict:
    """The chat-completions payload as a JSON-ready dict, images inline."""
    messages = []
    for message in request.messages:
        image = message.image
        if image is None:
            messages.append({"role": message.role, "content": message.text})
            continue
        url = f"data:{image.media_type};base64,{base64.b64encode(image.load_bytes()).decode()}"
        parts = [
            {"type": "text", "text": message.text},
            {"type": "image_url", "image_url": {"url": url}},
        ]
        messages.append({"role": message.role, "content": parts})
    return {
        "model": request.model_id,
        "messages": messages,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "seed": request.seed_hint,
    }


def _reference_body(request: ModelRequest) -> bytes:
    return json.dumps(_reference_payload(request)).encode("utf-8")


_EXTENSIONS = {"image/png": ".png", "image/jpeg": ".jpg", "image/webp": ".webp"}
# None, or (from_file?, media type, content) for the image of a user message.
_IMAGE_SPEC = st.none() | st.tuples(
    st.booleans(), st.sampled_from(sorted(_EXTENSIONS)), st.binary(max_size=64)
)
_AWKWARD_TEXT = 'say "hi" \\ a/b \x00 caf\u00e9 \U0001f600 </script>'


@st.composite
def _request_specs(draw):
    messages = []
    for index in range(draw(st.sampled_from([1, 3]))):
        image = draw(_IMAGE_SPEC) if index % 2 == 0 else None
        messages.append((draw(st.text(min_size=1) | st.just(_AWKWARD_TEXT)), image))
    return (
        draw(st.text()),
        messages,
        draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
        draw(st.integers(min_value=1, max_value=2**31)),
        draw(st.integers(min_value=-(2**63), max_value=2**63)),
    )


def _build_request(spec, directory) -> ModelRequest:
    model_id, message_specs, temperature, max_tokens, seed_hint = spec
    messages = []
    for index, (text, image_spec) in enumerate(message_specs):
        image = None
        if image_spec is not None:
            from_file, media_type, data = image_spec
            if from_file:
                path = directory / f"m{index}{_EXTENSIONS[media_type]}"
                path.write_bytes(data)
                image = ImageRef.from_file(path)
            else:
                image = ImageRef(media_type, data=data)
        role = "user" if index % 2 == 0 else "assistant"
        messages.append(Message(role, text, image=image))
    return ModelRequest(model_id, tuple(messages), temperature, max_tokens, seed_hint)


@settings(max_examples=200)
@example(spec=("m", [("look", (False, "image/png", PNG))], 0.0, 512, 0))
@example(
    spec=(
        "m\"/",
        [(_AWKWARD_TEXT, (True, "image/webp", b"\x00")), ("\\", None), ("again", None)],
        0.5,
        9,
        3,
    )
)
@given(spec=_request_specs())
def test_http_body_is_the_json_dumps_of_the_payload(spec, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp() / "bodies"
    directory.mkdir(exist_ok=True)
    request = _build_request(spec, directory)
    backend, _, _ = _http([])
    assert backend._body(request) == _reference_body(request)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_http_body_refuses_a_temperature_that_is_not_json(temperature):
    # ModelRequest refuses these values itself; the body refuses them too when
    # a request gets one past that check.
    request = _request()
    object.__setattr__(request, "temperature", temperature)
    backend, _, _ = _http([])
    with pytest.raises(ValueError, match="not JSON compliant"):
        backend._body(request)


def test_http_backend_sends_the_body_through_a_real_session(tiny_image):
    adapter = _CapturingAdapter()
    backend = HttpBackend(base_url="https://api.example.test/v1")
    backend.session.mount("https://api.example.test/", adapter)
    request = ModelRequest(
        model_id="vlm-1",
        messages=(
            Message("user", 'a "quoted" / slashed\\ caf\u00e9', image=tiny_image),
            Message("assistant", "seen"),
            Message("user", "and this one?", image=ImageRef("image/webp", data=PNG)),
        ),
        temperature=0.25,
        seed_hint=11,
    )
    assert backend.complete(request) == "ok"
    (prepared,) = adapter.sent
    expected = _reference_body(request)
    assert prepared.body == expected
    assert prepared.headers["Content-Type"] == "application/json"
    assert prepared.headers["Content-Length"] == str(len(expected))


# ------------------------------------------------------ session environment

_URL = "https://api.example.test/v1"


@pytest.fixture()
def clean_env(monkeypatch, tmp_path):
    """No inherited proxy, CA-bundle or .netrc setting."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    monkeypatch.setenv("NETRC", str(tmp_path / "absent-netrc"))
    return monkeypatch


def _write_netrc(directory):
    path = directory / "netrc"
    path.write_text("machine api.example.test login u password p\n")
    return str(path)


def _seen(session, post):
    """The proxies, verify setting and Authorization header of one post."""
    adapter = _CapturingAdapter()
    session.mount("https://api.example.test/", adapter)
    post()
    (prepared,), (settings,) = adapter.sent, adapter.settings
    return settings["proxies"], settings["verify"], prepared.headers.get("Authorization")


@pytest.mark.parametrize(
    "env, https_proxy, verify, authorization",
    [
        ({"HTTPS_PROXY": "http://proxy.test:3128"}, "http://proxy.test:3128", True, None),
        (
            {"HTTPS_PROXY": "http://proxy.test:3128", "NO_PROXY": "api.example.test"},
            None,
            True,
            None,
        ),
        ({"REQUESTS_CA_BUNDLE": "/ca/requests.pem"}, None, "/ca/requests.pem", None),
        ({"CURL_CA_BUNDLE": "/ca/curl.pem"}, None, "/ca/curl.pem", None),
        ({"NETRC": _write_netrc}, None, True, "Basic dTpw"),
    ],
    ids=["https-proxy", "no-proxy", "requests-ca-bundle", "curl-ca-bundle", "netrc"],
)
def test_http_backend_session_sends_what_trust_env_would(
    clean_env, tmp_path, env, https_proxy, verify, authorization
):
    for name, value in env.items():
        clean_env.setenv(name, value(tmp_path) if callable(value) else value)
    backend = HttpBackend(_URL)
    assert backend.session.trust_env is False
    seen = _seen(backend.session, lambda: backend.complete(_request()))
    plain = requests.Session()
    expected = _seen(
        plain,
        lambda: plain.post(
            f"{_URL}/chat/completions", data=b"{}", headers={"Content-Type": "application/json"}
        ),
    )
    assert seen == expected
    assert (expected[0].get("https"), expected[1], expected[2]) == (
        https_proxy,
        verify,
        authorization,
    )


def test_http_backend_reads_the_environment_when_built(clean_env):
    backend = HttpBackend(_URL)
    clean_env.setenv("HTTPS_PROXY", "http://proxy.test:3128")
    clean_env.setenv("REQUESTS_CA_BUNDLE", "/ca/requests.pem")
    proxies, verify, _ = _seen(backend.session, lambda: backend.complete(_request()))
    assert "https" not in proxies
    assert verify is True


def test_an_api_key_beats_a_netrc_entry_for_the_host(clean_env, tmp_path):
    clean_env.setenv("NETRC", _write_netrc(tmp_path))
    clean_env.setenv("TEST_GATEWAY_KEY", "sk-123")
    backend = HttpBackend(_URL, api_key_env="TEST_GATEWAY_KEY")
    _, _, authorization = _seen(backend.session, lambda: backend.complete(_request()))
    assert authorization == "Bearer sk-123"


# The pool keeps a connection per worker on both schemes; an adapter mounted
# on a longer prefix still serves its URLs.
@pytest.mark.parametrize("concurrency", [None, 1, 16])
def test_http_backend_pools_a_connection_per_worker(tmp_path, concurrency):
    config = tmp_path / "backend.json"
    config.write_text(
        json.dumps({"backend_id": "b", "kind": "http", "model_id": "m", "base_url": _URL})
    )
    if concurrency is None:
        backend = ModelGateway.from_config(config).backend
    else:
        backend = ModelGateway.from_config(config, concurrency=concurrency).backend
    for url in ("http://example.test/", f"{_URL}/chat/completions"):
        assert backend.session.get_adapter(url)._pool_maxsize == (concurrency or 10)
    adapter = _CapturingAdapter()
    backend.session.mount("https://api.example.test/", adapter)
    assert backend.complete(_request()) == "ok"
    assert len(adapter.sent) == 1


# ---------------------------------------------------------- image encodings


def _fixture_reply(scripted: ScriptedBackend, prepared) -> str:
    """The scripted reply to a chat-completions body."""
    content = json.loads(prepared.body)["messages"][-1]["content"]
    if not isinstance(content, str):
        content = "".join(part["text"] for part in content if part["type"] == "text")
    return scripted.complete(ModelRequest("m", (Message("user", content),)))


def test_each_worker_task_encodes_its_image_once(toy_manifest, monkeypatch):
    tasks = len(AnswerMode) * len({instance.image for instance in toy_manifest.instances})
    for instance in toy_manifest.instances:
        instance.image.digest()
    loads, bodies = [], []
    load_bytes, body = ImageRef.load_bytes, HttpBackend._body
    monkeypatch.setattr(
        ImageRef,
        "load_bytes",
        lambda self: (loads.append((threading.get_ident(), self)), load_bytes(self))[1],
    )

    def recorded_body(self, request):
        sent = body(self, request)
        bodies.append((request, sent))
        return sent

    monkeypatch.setattr(HttpBackend, "_body", recorded_body)
    scripted = ScriptedBackend(toy_fixture_rules())
    counts = {}
    for concurrency in (1, 2, 16):
        before = len(loads), len(bodies)
        backend = HttpBackend(_URL)
        adapter = _CapturingAdapter(lambda prepared: _fixture_reply(scripted, prepared))
        backend.session.mount("https://api.example.test/", adapter)
        gateway = ModelGateway(backend)
        run_predictions(
            toy_manifest,
            list(AnswerMode),
            gateway,
            load_schemas(toy_manifest),
            concurrency=concurrency,
        )
        counts[concurrency] = len(loads) - before[0]
        assert len(bodies) - before[1] == 72
        # No thread encodes the image it encoded last.
        last = {}
        for thread, image in loads[before[0]:]:
            assert last.get(thread) is not image
            last[thread] = image
    # At most one encode per task, whatever the concurrency; fewer when a
    # worker takes two tasks on one image in a row.
    assert all(count <= tasks for count in counts.values()), (counts, tasks)
    monkeypatch.undo()
    for request, sent in bodies:
        assert sent == _reference_body(request)


def test_threads_alternating_two_images_each_get_their_own_bodies(tiny_image, monkeypatch):
    pair = (_request(image=tiny_image), _request(image=ImageRef("image/png", data=PNG)))
    expected = [_reference_body(request) for request in pair]
    loads = []
    load_bytes = ImageRef.load_bytes
    monkeypatch.setattr(ImageRef, "load_bytes", lambda self: (loads.append(self), load_bytes(self))[1])
    backend, _, _ = _http([])
    wrong = []
    step_together = threading.Barrier(2, timeout=30)

    def alternate(first):
        # In step with the other thread, which always sends the other image:
        # A for 50 steps then B for 50, against B then A.
        for step in range(100):
            step_together.wait()
            index = (first + step // 50) % 2
            if backend._body(pair[index]) != expected[index]:
                wrong.append(index)

    threads = [threading.Thread(target=alternate, args=(first,)) for first in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    # One encode per thread per image it switched to.
    assert len(loads) == 4


# ------------------------------------------------------------ backend config


def test_load_backend_config_scripted(toy):
    backend = ModelGateway.from_config(toy.backend_config_path).backend
    assert isinstance(backend, ScriptedBackend)
    assert backend.backend_id == "scripted-toy"


def test_load_backend_config_http(tmp_path):
    path = tmp_path / "http.json"
    path.write_text(
        json.dumps(
            {
                "backend_id": "live",
                "kind": "http",
                "model_id": "vlm-9",
                "base_url": "https://api.example.test/v1",
                "api_key_env": "KEY",
            }
        )
    )
    backend = ModelGateway.from_config(path).backend
    assert isinstance(backend, HttpBackend)
    assert backend.api_key_env == "KEY"


@pytest.mark.parametrize(
    "payload",
    [
        {"backend_id": "b", "kind": "carrier-pigeon", "model_id": "m"},
        {"backend_id": "b", "kind": "http", "model_id": "m"},
        {"backend_id": "b", "kind": "scripted", "model_id": "m"},
        {"backend_id": "b", "kind": "scripted", "model_id": "m", "xtra": 1,
         "fixture_path": "f.json"},
        ["scripted"],
    ],
)
def test_load_backend_config_rejects_bad_configs(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BackendConfigError):
        ModelGateway.from_config(path)


@pytest.mark.parametrize(
    ("overrides", "field"),
    [
        ({"fixture_path": 5}, "fixture_path"),
        ({"kind": "http", "base_url": 5, "fixture_path": None}, "base_url"),
        ({"api_key_env": 5}, "api_key_env"),
        ({"backend_id": None}, "backend_id"),
        ({"kind": ["scripted"]}, "kind"),
        ({"model_id": 3}, "model_id"),
    ],
)
def test_load_backend_config_rejects_mistyped_fields(tmp_path, overrides, field):
    payload = {"backend_id": "b", "kind": "scripted", "model_id": "m", "fixture_path": "f.json"}
    payload.update(overrides)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BackendConfigError, match=f"'{field}' must be a string") as info:
        ModelGateway.from_config(path)
    assert exit_code_for(info.value) == 23


def test_load_backend_config_unreadable(tmp_path):
    with pytest.raises(BackendConfigError):
        ModelGateway.from_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(BackendConfigError):
        ModelGateway.from_config(broken)
    broken.write_text('{"backend_id": "b", "kind": "scripted", "model_id": NaN}')
    with pytest.raises(BackendConfigError, match="cannot read backend config .*NaN is not"):
        ModelGateway.from_config(broken)


# ------------------------------------------------------------------ gateway


def test_gateway_caches_and_marks_hits(tmp_path):
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    calls = []
    original = backend.complete
    backend.complete = lambda req: (calls.append(1), original(req))[1]
    gateway = ModelGateway(backend, cache=ResponseCache(tmp_path / "c"))
    first = gateway.complete(_request("q1"))
    second = gateway.complete(_request("q1"))
    assert first == second == "r"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "corrupt",
    ['{"text": "r', "", "[1]", '{"text": 3}', b"\xff\xfe", '{"text": "r", "n": 1e999}',
     pytest.param("[" * 50_000 + "]" * 50_000, id="deep-nest")],
)
def test_corrupt_cache_entry_is_a_miss_and_is_rewritten(tmp_path, corrupt):
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    calls = []
    original = backend.complete
    backend.complete = lambda req: (calls.append(1), original(req))[1]

    def complete(request):
        # A fresh gateway each time stands for a new process: one cache's
        # map would otherwise answer with the reply it fetched.
        return ModelGateway(backend, cache=ResponseCache(tmp_path / "c")).complete(request)

    complete(_request("q1"))
    (log,) = (tmp_path / "c").iterdir()
    key = cache_key(backend.backend_id, _request("q1"))
    if isinstance(corrupt, str):
        # A record of the right key whose reply is torn, of the wrong type,
        # or beside a number that JSON cannot hold.
        corrupt = corrupt.replace('{"text"', '{"key": "%s", "text"' % key).encode("utf-8")
    log.write_bytes(corrupt + b"\n")
    assert complete(_request("q1")) == "r"
    assert len(calls) == 2
    assert cache_records(tmp_path / "c", "key")[-1] == {"key": key, "text": "r"}
    assert complete(_request("q1")) == "r"
    assert len(calls) == 2


def test_uncached_gateway_sends_a_repeated_request_once():
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    calls = []
    original = backend.complete
    backend.complete = lambda req: (calls.append(1), original(req))[1]
    gateway = ModelGateway(backend)
    assert gateway.complete(_request("q1")) == gateway.complete(_request("q1")) == "r"
    assert len(calls) == 1
    assert gateway.complete(_request("q1", seed_hint=1)) == "r"
    assert len(calls) == 2


def test_gateway_does_not_memoize_a_failure():
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    calls = []
    original = backend.complete

    def flaky(request):
        calls.append(1)
        if len(calls) == 1:
            raise BackendUnavailableError("down")
        return original(request)

    backend.complete = flaky
    gateway = ModelGateway(backend)
    with pytest.raises(BackendUnavailableError):
        gateway.complete(_request("q1"))
    assert gateway.complete(_request("q1")) == "r"
    assert gateway.complete(_request("q1")) == "r"
    assert len(calls) == 2


# The put of a fetched reply is inside the flight's guard: a put that
# raises fails its call, and leaves no flight that a later call would wait on.
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_a_put_that_raises_leaves_no_flight_and_a_later_call_resends(
    tmp_path, monkeypatch, cached
):
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    calls = []
    original = backend.complete
    backend.complete = lambda req: (calls.append(1), original(req))[1]
    cache = ResponseCache(tmp_path / "cache") if cached else None
    gateway = ModelGateway(backend, cache=cache)

    def broken(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(ResponseCache, "_write", broken)
        with pytest.raises(KeyboardInterrupt):
            gateway.complete(_request("q"))
    assert gateway.cache.get(cache_key(backend.backend_id, _request("q"))) is None
    results = []
    thread = threading.Thread(
        target=lambda: results.append(gateway.complete(_request("q"))), daemon=True
    )
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), "the second call waits on a stale flight"
    assert results == ["r"]
    assert len(calls) == 2


def test_gateway_rejects_empty_reply():
    gateway = ModelGateway(ScriptedBackend([{"match": {"contains": "q"}, "reply": "  \n"}]))
    with pytest.raises(MalformedReplyError, match="empty"):
        gateway.complete(_request("q"))


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_gateway_rejects_a_reply_that_is_not_valid_unicode_text(tmp_path, cached):
    # JSON can carry a lone surrogate as an escape; UTF-8 cannot encode it.
    backend = ScriptedBackend(json.loads('[{"match": {"contains": "q"}, "reply": "yes \\ud800"}]'))
    cache = ResponseCache(tmp_path / "cache") if cached else None
    gateway = ModelGateway(backend, cache=cache)
    with pytest.raises(MalformedReplyError, match="not valid Unicode text") as info:
        gateway.complete(_request("q"))
    assert exit_code_for(info.value) == 22
    assert not list((tmp_path / "cache").glob("*"))
    # Nothing is memoized: the request goes to the backend again.
    with pytest.raises(MalformedReplyError, match="not valid Unicode text"):
        gateway.complete(_request("q"))


def test_gateway_chat_uses_configured_sampling():
    backend, adapter, _ = _http([_Reply()])
    gateway = ModelGateway(backend, model_id="vlm-2", temperature=0.5, max_tokens=77)
    gateway.chat([Message("user", "hi")], seed_hint=3)
    body = json.loads(adapter.sent[0].body)
    assert body["model"] == "vlm-2"
    assert body["temperature"] == 0.5
    assert body["max_tokens"] == 77
    assert body["seed"] == 3


def test_gateway_logs_never_contain_image_bytes(tmp_path, caplog):
    gateway = ModelGateway(
        ScriptedBackend([{"match": {"contains": "look"}, "reply": "seen"}]),
        cache=ResponseCache(tmp_path / "c"),
    )
    request = _request("look", image=ImageRef("image/png", data=PNG))
    with caplog.at_level(logging.DEBUG, logger="schemaground.gateway"):
        gateway.complete(request)
        gateway.complete(request)
    assert caplog.text
    encoded = base64.b64encode(PNG).decode("ascii")
    assert encoded[:16] not in caplog.text
    assert "IHDR" not in caplog.text


def test_gateway_from_config_end_to_end(toy, tmp_path):
    gateway = ModelGateway.from_config(toy.backend_config_path, cache_dir=tmp_path / "cache")
    reply = gateway.chat([Message("user", "Is the layout rectangular or circular?")])
    assert reply == "Circular."
    assert (tmp_path / "cache").is_dir()


# ------------------------------------------------------------ single flight

TIMEOUT_S = 10.0


class _GatedBackend:
    """A backend whose calls wait until the test opens the gate; then each
    call takes the next outcome: a reply, or an exception to raise."""

    backend_id = "gated"

    def __init__(self, *outcomes):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.calls = 0
        self._outcomes = list(outcomes)

    def complete(self, request):
        self.calls += 1
        self.entered.set()
        assert self.gate.wait(TIMEOUT_S), "the gate was never opened"
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def _complete_in_threads(gateway, request, count):
    """Send one request from count threads while the backend's gate is shut;
    open it once every thread has had time to ask, and return each thread's
    reply or error."""
    results = [None] * count

    def run(index):
        try:
            results[index] = gateway.complete(request)
        except Exception as err:
            results[index] = err

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(count)]
    for thread in threads:
        thread.start()
    assert gateway.backend.entered.wait(TIMEOUT_S)
    time.sleep(0.05)
    assert results == [None] * count  # every thread is still waiting
    gateway.backend.gate.set()
    for thread in threads:
        thread.join(TIMEOUT_S)
        assert not thread.is_alive(), "a caller is still waiting: deadlock"
    return results


def test_concurrent_callers_of_one_request_share_one_backend_call():
    gateway = ModelGateway(_GatedBackend("r"))
    results = _complete_in_threads(gateway, _request("q"), 8)
    assert results == ["r"] * 8
    assert gateway.backend.calls == 1
    assert gateway.complete(_request("q")) == "r"
    assert gateway.backend.calls == 1


def test_concurrent_callers_all_get_the_failure_and_a_later_call_resends():
    failure = BackendUnavailableError("down")
    gateway = ModelGateway(_GatedBackend(failure, "r"))
    results = _complete_in_threads(gateway, _request("q"), 8)
    assert all(result is failure for result in results)
    assert gateway.backend.calls == 1
    assert gateway.complete(_request("q")) == "r"
    assert gateway.backend.calls == 2


# The 8 callers of one fetch into a cache directory leave one reply record,
# written by the fetcher, not one per caller.
def test_the_waiters_on_one_flight_get_its_reply(tmp_path):
    gateway = ModelGateway(_GatedBackend("r"), cache=ResponseCache(tmp_path))
    request = _request("q")
    results = _complete_in_threads(gateway, request, 8)
    assert results == ["r"] * 8
    key = cache_key("gated", request)
    assert cache_records(tmp_path, "key") == [{"key": key, "text": "r"}]


# A failed fetch leaves no record, and no flight in the map for a later
# caller to wait on.
def test_the_waiters_on_one_flight_all_get_the_backends_exception(tmp_path):
    failure = BackendUnavailableError("down")
    gateway = ModelGateway(_GatedBackend(failure), cache=ResponseCache(tmp_path))
    request = _request("q")
    results = _complete_in_threads(gateway, request, 8)
    assert all(result is failure for result in results)
    assert cache_records(tmp_path, "key") == []
    assert gateway.cache.get(cache_key("gated", request)) is None


def test_a_cold_scripted_ablate_and_its_warm_replay_record_72_replies_and_4_digests(
    toy, tmp_path, monkeypatch
):
    # Settled images: the cold run records each one's digest in the memo, and
    # the warm replay reads no image, whatever the age of the toy images.
    settle_images(monkeypatch)
    for name in ("cold", "warm"):
        assert cli.main([
            "ablate",
            "--manifest", str(toy.manifest_path),
            "--backend-config", str(toy.backend_config_path),
            "--cache-dir", str(tmp_path / "cache"),
            "--concurrency", "4",
            "--out", str(tmp_path / name),
        ]) == 0
        assert len(cache_records(tmp_path / "cache", "key")) == 72
        assert len(memo_digests(tmp_path / "cache")) == 4

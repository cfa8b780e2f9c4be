"""Gateway contracts: request shapes, cache keys, scripted/HTTP backends."""

from __future__ import annotations

import base64
import hashlib
import json
import logging

import pytest
import requests

from schemaground.errors import (
    BackendConfigError,
    BackendUnavailableError,
    FixtureMissError,
    MalformedReplyError,
)
from schemaground.gateway import (
    HttpBackend,
    ImageRef,
    Message,
    ModelGateway,
    ModelRequest,
    ResponseCache,
    ScriptedBackend,
    build_backend,
    cache_key,
    cache_key_material,
    load_backend_config,
)
from schemaground.toydata import tiny_png

PNG = tiny_png((9, 9, 9))


def _request(text="hello", images=(), seed_hint=None, temperature=0.0):
    return ModelRequest(
        model_id="m1",
        messages=(Message("user", text, images=tuple(images)),),
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


def test_image_digest_same_for_path_and_inline(tmp_path):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    assert ImageRef.from_file(path).digest() == ImageRef.from_bytes(PNG).digest()


def test_image_digest_reads_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "x.png"
    path.write_bytes(PNG)
    image = ImageRef.from_file(path)
    reads = []
    read_bytes = type(path).read_bytes
    monkeypatch.setattr(type(path), "read_bytes", lambda p: (reads.append(p), read_bytes(p))[1])
    digests = {image.digest() for _ in range(3)}
    assert digests == {hashlib.sha256(PNG).hexdigest()}
    assert reads == [path]
    assert image == ImageRef.from_file(path)
    assert hash(image) == hash(ImageRef.from_file(path))


# ----------------------------------------------------------------- messages


def test_message_role_and_content_invariants():
    with pytest.raises(ValueError, match="role"):
        Message("narrator", "hi")
    with pytest.raises(ValueError, match="role"):
        Message("system", "s")
    with pytest.raises(ValueError, match="assistant"):
        Message("assistant", "hi", images=(ImageRef.from_bytes(PNG),))
    with pytest.raises(ValueError, match="empty"):
        Message("user", "")
    assert Message("user", "", images=(ImageRef.from_bytes(PNG),)).text == ""


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
    with pytest.raises(ValueError, match="temperature"):
        ModelRequest(model_id="m", messages=(user,), temperature=-0.5)
    with pytest.raises(ValueError, match="max_tokens"):
        ModelRequest(model_id="m", messages=(user,), max_tokens=0)


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
    from_path = _request(images=[ImageRef.from_file(path)])
    from_bytes = _request(images=[ImageRef.from_bytes(PNG)])
    assert cache_key("b", from_path) == cache_key("b", from_bytes)

    material = cache_key_material("b", from_bytes)
    assert hashlib.sha256(PNG).hexdigest() in material
    encoded = base64.b64encode(PNG).decode("ascii")
    assert encoded[:16] not in material
    assert "\\x89" not in material and "IHDR" not in material


# ------------------------------------------------------------ response cache


def test_response_cache_roundtrip_and_write_once(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = cache_key("b", _request())
    assert cache.get(key) is None
    cache.put(key, "first")
    cache.put(key, "second attempt must not overwrite")
    assert cache.get(key) == "first"
    assert len(cache) == 1
    assert not list((tmp_path / "cache").glob("*.tmp"))


def test_response_cache_reads_an_entry_longer_than_one_read(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    text = "é" * 100_000  # 200 KB of UTF-8, so several reads of 64 KiB
    cache.put("k", text)
    assert cache.get("k") == text


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


# ------------------------------------------------------------- http backend


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload if payload is not None else {
            "choices": [{"message": {"content": "ok"}}]
        }

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _http(script, **kwargs):
    sleeps = []
    backend = HttpBackend(
        base_url="https://api.example.test/v1",
        session=FakeSession(script),
        sleep=sleeps.append,
        **kwargs,
    )
    return backend, sleeps


def test_http_backend_success_payload_shape():
    backend, _ = _http([FakeResponse()])
    request = ModelRequest(
        model_id="vlm-1",
        messages=(Message("user", "look", images=(ImageRef.from_bytes(PNG),)),),
        temperature=0.25,
        max_tokens=99,
        seed_hint=7,
    )
    assert backend.complete(request) == "ok"
    call = backend.session.calls[0]
    assert call["url"] == "https://api.example.test/v1/chat/completions"
    body = call["json"]
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
    backend, sleeps = _http(
        [FakeResponse(status_code=500), FakeResponse(status_code=503), FakeResponse()]
    )
    assert backend.complete(_request()) == "ok"
    assert len(backend.session.calls) == 3
    assert sleeps == [1.0, 2.0]


def test_http_backend_retries_transport_errors():
    backend, sleeps = _http(
        [requests.ConnectionError("refused"), FakeResponse()]
    )
    assert backend.complete(_request()) == "ok"
    assert sleeps == [1.0]


def test_http_backend_gives_up_after_three_attempts():
    backend, sleeps = _http([FakeResponse(status_code=500)] * 3)
    with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
        backend.complete(_request())
    assert len(backend.session.calls) == 3
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize("status", [400, 401, 403, 404, 429])
def test_http_backend_client_errors_fail_fast(status):
    backend, sleeps = _http([FakeResponse(status_code=status)] * 3)
    with pytest.raises(BackendUnavailableError, match=str(status)):
        backend.complete(_request())
    assert len(backend.session.calls) == 1
    assert sleeps == []


def test_http_backend_malformed_reply():
    backend, _ = _http([FakeResponse(payload={"unexpected": []})])
    with pytest.raises(MalformedReplyError):
        backend.complete(_request())


def test_http_backend_api_key_handling(monkeypatch):
    backend, _ = _http([FakeResponse()], api_key_env="TEST_GATEWAY_KEY")
    monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
    with pytest.raises(BackendUnavailableError, match="TEST_GATEWAY_KEY"):
        backend.complete(_request())
    assert backend.session.calls == []

    monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-123")
    backend2, _ = _http([FakeResponse()], api_key_env="TEST_GATEWAY_KEY")
    backend2.complete(_request())
    assert backend2.session.calls[0]["headers"]["Authorization"] == "Bearer sk-123"


# ------------------------------------------------------------ backend config


def test_load_backend_config_scripted(toy):
    config = load_backend_config(toy.backend_config_path)
    assert config.kind == "scripted"
    backend = build_backend(config, base_dir=toy.backend_config_path.parent)
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
    config = load_backend_config(path)
    backend = build_backend(config)
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
    ],
)
def test_load_backend_config_rejects_bad_configs(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BackendConfigError):
        load_backend_config(path)


def test_load_backend_config_unreadable(tmp_path):
    with pytest.raises(BackendConfigError):
        load_backend_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(BackendConfigError):
        load_backend_config(broken)


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


@pytest.mark.parametrize("corrupt", ['{"text": "r', "", "[1]", '{"text": 3}', b"\xff\xfe"])
def test_corrupt_cache_entry_is_a_miss_and_is_rewritten(tmp_path, corrupt):
    backend = ScriptedBackend([{"match": {"contains": "q"}, "reply": "r"}])
    calls = []
    original = backend.complete
    backend.complete = lambda req: (calls.append(1), original(req))[1]

    def complete(request):
        # A fresh gateway each time stands for a new process: the reply memo
        # of one gateway would otherwise answer before the cache is read.
        return ModelGateway(backend, cache=ResponseCache(tmp_path / "c")).complete(request)

    complete(_request("q1"))
    (entry,) = (tmp_path / "c").glob("*.json")
    if isinstance(corrupt, bytes):
        entry.write_bytes(corrupt)
    else:
        entry.write_text(corrupt)
    assert complete(_request("q1")) == "r"
    assert len(calls) == 2
    assert json.loads(entry.read_text()) == {"text": "r"}
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


def test_gateway_rejects_empty_reply():
    gateway = ModelGateway(ScriptedBackend([{"match": {"contains": "q"}, "reply": "  \n"}]))
    with pytest.raises(MalformedReplyError, match="empty"):
        gateway.complete(_request("q"))


def test_gateway_chat_uses_configured_sampling():
    backend, _ = _http([FakeResponse()])
    gateway = ModelGateway(backend, model_id="vlm-2", temperature=0.5, max_tokens=77)
    gateway.chat([Message("user", "hi")], seed_hint=3)
    body = backend.session.calls[0]["json"]
    assert body["model"] == "vlm-2"
    assert body["temperature"] == 0.5
    assert body["max_tokens"] == 77
    assert body["seed"] == 3


def test_gateway_logs_never_contain_image_bytes(tmp_path, caplog):
    gateway = ModelGateway(
        ScriptedBackend([{"match": {"contains": "look"}, "reply": "seen"}]),
        cache=ResponseCache(tmp_path / "c"),
    )
    request = _request("look", images=[ImageRef.from_bytes(PNG)])
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

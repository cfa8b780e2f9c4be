"""The http backend against a chat-completions server on a loopback socket.

The server is a stdlib `ThreadingHTTPServer` on 127.0.0.1 that answers with
the toy fixture replies. The toy `ablate` run through `kind: "http"` against
it must write what the scripted run writes, and the wire must carry the API
key, each body's length and the server's cookies, over no more connections
than workers.
"""

from __future__ import annotations

import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import pytest
import requests

from schemaground import cli
from schemaground.errors import BackendUnavailableError, MalformedReplyError
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import HttpBackend, Message, ModelRequest, ScriptedBackend
from schemaground.toydata import toy_fixture_rules

from helpers import checkout_env


class _Seen(NamedTuple):
    command: str
    path: str
    headers: dict[str, str]
    body: bytes


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps a connection open across requests, as a live API does.
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            number = len(self.server.seen)
            self.server.seen.append(_Seen(self.command, self.path, dict(self.headers), body))
        status = self.server.statuses[number] if number < len(self.server.statuses) else 200
        if status == 200:
            payload = self.server.payload(body)
        else:
            payload = {"error": {"message": "scripted failure"}}
        content = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            "Content-Type: application/json",
            f"Content-Length: {len(content)}",
        ]
        if number == 0 or status != 200:
            head.append(f"Set-Cookie: loopback={number}; Path=/")
        # Headers and body in one write: a second small write waits on the
        # client's delayed ACK (Nagle): 44 ms per request on a Linux loopback.
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + content)

    def log_message(self, format, *args):
        pass


class _Server(ThreadingHTTPServer):
    """Answers the n-th request with `statuses[n]`, 200 past their end, and
    a 200 with `reply(body)` as the completion's content, or with the JSON
    that `payload(body)` gives. The first reply and each failure set the
    cookie `loopback=<n>`. Records every request and counts connections."""

    def __init__(self, reply, statuses=(), payload=None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.payload = payload or (
            lambda body: {"choices": [{"message": {"content": reply(body)}}]}
        )
        self.statuses = list(statuses)
        self.lock = threading.Lock()
        self.seen: list[_Seen] = []
        self.connections = 0
        self.url = f"http://127.0.0.1:{self.server_port}/v1"


@pytest.fixture()
def serve(monkeypatch):
    """Starts loopback servers, with no proxy between them and the client."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    started = []

    def start(reply, statuses=(), payload=None):
        server = _Server(reply, statuses, payload)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _fixture_reply(scripted: ScriptedBackend):
    def reply(body: bytes) -> str:
        content = json.loads(body)["messages"][-1]["content"]
        if not isinstance(content, str):
            content = "".join(part["text"] for part in content if part["type"] == "text")
        return scripted.complete(ModelRequest("m", (Message("user", content),)))

    return reply


def test_toy_ablate_over_a_loopback_socket_writes_what_the_scripted_run_writes(
    toy, tmp_path, serve, capsys
):
    scripted_out = tmp_path / "scripted"
    assert cli.main([
        "ablate",
        "--manifest", str(toy.manifest_path),
        "--backend-config", str(toy.backend_config_path),
        "--out", str(scripted_out),
    ]) == 0
    server = serve(_fixture_reply(ScriptedBackend(toy_fixture_rules())))
    config = tmp_path / "backend.json"
    config.write_text(json.dumps({
        "backend_id": "scripted-toy",
        "kind": "http",
        "model_id": "scripted-vlm",
        "base_url": server.url,
        "api_key_env": "LOOPBACK_API_KEY",
    }))
    env = checkout_env()
    env["LOOPBACK_API_KEY"] = "sk-loopback"
    http_out = tmp_path / "http"
    result = subprocess.run(
        [
            sys.executable, "-m", "schemaground.cli", "ablate",
            "--manifest", str(toy.manifest_path),
            "--backend-config", str(config),
            "--concurrency", "4",
            "--out", str(http_out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr

    names = sorted(path.name for path in scripted_out.iterdir())
    assert len(names) == 11
    assert sorted(path.name for path in http_out.iterdir()) == names
    for name in names:
        assert (http_out / name).read_bytes() == (scripted_out / name).read_bytes(), name

    assert len(server.seen) == 72
    for seen in server.seen:
        assert (seen.command, seen.path) == ("POST", "/v1/chat/completions")
        assert seen.headers["Authorization"] == "Bearer sk-loopback"
        assert seen.headers["Content-Type"] == "application/json"
        assert int(seen.headers["Content-Length"]) == len(seen.body)
        json.loads(seen.body)
    assert 1 <= server.connections <= 4
    # The first reply set a cookie: the first request could not carry it,
    # and the last one, sent long after that reply, does.
    assert "Cookie" not in server.seen[0].headers
    assert server.seen[-1].headers["Cookie"] == "loopback=0"


def test_an_api_key_that_cannot_be_a_header_value_exits_20_and_sends_nothing(
    toy, tmp_path, serve
):
    server = serve(lambda body: "unused")
    config = tmp_path / "backend.json"
    config.write_text(json.dumps({
        "backend_id": "loopback",
        "kind": "http",
        "model_id": "m",
        "base_url": server.url,
        "api_key_env": "LOOPBACK_API_KEY",
    }))
    schema = tmp_path / "maze.schema"
    schema.write_text(load_canonical_schema("maze").text, encoding="utf-8")
    env = checkout_env()
    env["LOOPBACK_API_KEY"] = "sk-\u2014pasted"
    result = subprocess.run(
        [
            sys.executable, "-m", "schemaground.cli", "ground",
            "--schema", str(schema),
            "--image", str(toy.image_paths["maze"]),
            "--backend-config", str(config),
            "--out", str(tmp_path / "resolved.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 20, result.stderr
    assert "LOOPBACK_API_KEY" in result.stderr and "pasted" not in result.stderr
    assert "Traceback" not in result.stderr
    assert server.seen == [] and server.connections == 0
    assert not (tmp_path / "resolved.json").exists()


def test_each_request_goes_out_as_session_post_sends_it_cookies_included(serve):
    """The first reply sets a cookie, and a failed attempt sets another: the
    next attempt carries the cookie as it stands, with the same headers and
    body that `Session.post` sends."""
    request = ModelRequest("m", (Message("user", "hello"),))
    backend_server = serve(lambda body: "ok", statuses=[200, 503])
    backend = HttpBackend(backend_server.url, sleep=lambda seconds: None)
    try:
        for _ in range(3):
            assert backend.complete(request) == "ok"
    finally:
        backend.session.close()

    post_server = serve(lambda body: "ok", statuses=[200, 503])
    with requests.Session() as session:
        for _ in range(4):
            session.post(
                f"{post_server.url}/chat/completions",
                data=backend._body(request),
                headers={"Content-Type": "application/json"},
                timeout=60.0,
            )

    cookies = [seen.headers.get("Cookie") for seen in backend_server.seen]
    assert cookies == [None, "loopback=0", "loopback=1", "loopback=1"]

    def wire(seen: _Seen):
        headers = dict(seen.headers)
        headers.pop("Host")  # each server listens on its own port
        return seen.command, seen.path, sorted(headers.items()), seen.body

    assert [wire(seen) for seen in backend_server.seen] == [
        wire(seen) for seen in post_server.seen
    ]


# The connection pool keeps one connection per worker: none that a worker
# hands back is closed because the pool is full.
@pytest.mark.parametrize("concurrency", [10, 16])
def test_a_loopback_ablate_opens_at_most_one_connection_per_worker(
    toy, tmp_path, serve, caplog, concurrency
):
    scripted = _fixture_reply(ScriptedBackend(toy_fixture_rules()))

    def reply(body: bytes) -> str:
        # Each reply takes a while, as a live one does, so every worker has a
        # request in flight at once.
        time.sleep(0.02)
        return scripted(body)

    server = serve(reply)
    config = tmp_path / "backend.json"
    config.write_text(json.dumps({
        "backend_id": "scripted-toy",
        "kind": "http",
        "model_id": "scripted-vlm",
        "base_url": server.url,
    }))
    with caplog.at_level(logging.WARNING, logger="urllib3"):
        assert cli.main([
            "ablate",
            "--manifest", str(toy.manifest_path),
            "--backend-config", str(config),
            "--concurrency", str(concurrency),
            "--out", str(tmp_path / "out"),
        ]) == 0
    assert len(server.seen) == 72
    assert 1 <= server.connections <= concurrency
    assert not [
        record for record in caplog.records if "Connection pool is full" in record.getMessage()
    ]


# The retry contract over a real socket: a 5xx is tried again with the same
# body, after a backoff, up to 3 attempts; a 4xx is terminal, and so is a 200
# whose payload holds no reply.
@pytest.mark.parametrize(
    ("statuses", "payload", "error", "sent"),
    [
        ([503, 503], None, None, 3),
        (
            [503, 503, 503],
            None,
            (BackendUnavailableError, "backend unreachable after 3 attempts (server error 503)"),
            3,
        ),
        ([400], None, (BackendUnavailableError, "request rejected with status 400"), 1),
        ([], {"choices": []}, (MalformedReplyError, "unparseable completion payload"), 1),
    ],
    ids=["503-503-200", "503-503-503", "400", "no-choices"],
)
def test_a_failed_request_over_a_loopback_socket(serve, statuses, payload, error, sent):
    server = serve(lambda body: "ok", statuses, None if payload is None else lambda body: payload)
    sleeps = []
    backend = HttpBackend(server.url, sleep=sleeps.append)
    request = ModelRequest("m", (Message("user", "hello"),))
    try:
        if error is None:
            assert backend.complete(request) == "ok"
        else:
            with pytest.raises(error[0], match=re.escape(error[1])):
                backend.complete(request)
    finally:
        backend.session.close()
    assert len(server.seen) == sent
    assert len({seen.body for seen in server.seen}) == 1
    assert sleeps == [1.0, 2.0][: sent - 1]


# A reply whose content is null is no reply: the gateway refuses it as empty
# (exit 22), with no retry.
def test_a_null_reply_over_a_loopback_socket_exits_22(toy, tmp_path, serve, capsys):
    server = serve(
        lambda body: "unused",
        payload=lambda body: {"choices": [{"message": {"content": None}}]},
    )
    config = tmp_path / "backend.json"
    config.write_text(json.dumps({
        "backend_id": "loopback",
        "kind": "http",
        "model_id": "m",
        "base_url": server.url,
    }))
    schema = tmp_path / "maze.schema"
    schema.write_text(load_canonical_schema("maze").text, encoding="utf-8")
    assert cli.main([
        "ground",
        "--schema", str(schema),
        "--image", str(toy.image_paths["maze"]),
        "--backend-config", str(config),
        "--out", str(tmp_path / "resolved.json"),
    ]) == 22
    assert "MalformedReplyError: while grounding component 'layout': backend returned an " \
        "empty reply" in capsys.readouterr().err
    assert len(server.seen) == 1
    assert not (tmp_path / "resolved.json").exists()

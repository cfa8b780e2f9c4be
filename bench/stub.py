"""An in-process chat-completions server, mounted as a `requests` transport adapter.

The adapter opens no socket and starts no thread: `send` runs on the caller's
thread, checks the request, sleeps the injected latency and returns a canned
completion chosen by the toy fixture rules. The latency is a pure function of
(seed, request-body digest), so thread ordering cannot change it.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import re
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import requests
from requests.adapters import BaseAdapter

# The discard port on the loopback address: if the adapter were not mounted,
# a request would be refused locally instead of leaving the machine.
STUB_URL = "http://127.0.0.1:9/v1"

_NORMAL = statistics.NormalDist()


@dataclass(frozen=True)
class Latency:
    """Log-normal latency with the given median; median 0 means none."""

    median_ms: float = 0.0
    sigma: float = 0.0

    def seconds(self, seed: int, body_digest: bytes) -> float:
        if self.median_ms <= 0:
            return 0.0
        draw = hashlib.sha256(f"{seed}:".encode() + body_digest).digest()
        u = (int.from_bytes(draw[:8], "big") + 0.5) / 2**64
        return self.median_ms * math.exp(self.sigma * _NORMAL.inv_cdf(u)) / 1000


class FixtureReplies:
    """First-match fixture rules (equals / contains / regex) on the text of
    the last user message, as `ScriptedBackend` applies them."""

    def __init__(self, rules: list[dict]):
        self._rules = []
        for rule in rules:
            ((kind, needle),) = rule["match"].items()
            if kind == "regex":
                needle = re.compile(needle)
            self._rules.append((kind, needle, rule["reply"]))

    def reply(self, text: str) -> str | None:
        for kind, needle, reply in self._rules:
            if (
                (kind == "equals" and text == needle)
                or (kind == "contains" and needle in text)
                or (kind == "regex" and needle.search(text))
            ):
                return reply
        return None


def data_url(path: Path) -> str:
    return "data:image/png;base64," + base64.b64encode(Path(path).read_bytes()).decode()


def _url_digest(url: str) -> bytes:
    return hashlib.sha256(url.encode("ascii")).digest()


class StubAdapter(BaseAdapter):
    """Answers POST {STUB_URL}/chat/completions; counts calls and the in-flight maximum.

    A request whose image is not one of `image_files`, or that no fixture rule
    matches, gets status 400 and is recorded in `problems`.
    """

    def __init__(self, rules: list[dict], image_files, latency: Latency, seed: int):
        super().__init__()
        self._replies = FixtureReplies(rules)
        self._images = {_url_digest(data_url(path)) for path in image_files}
        self._latency = latency
        self._seed = seed
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.failures = 0
        self.inflight = 0
        self.inflight_max = 0
        self.latency_s = 0.0
        self.cpu_s = 0.0
        self.busy_s = 0.0
        self.request_bytes = 0
        self.problems: list[str] = []

    def _handle(self, body: bytes) -> tuple[int, str, float]:
        """(status, reply or problem, injected latency) for one request body."""
        try:
            messages = json.loads(body)["messages"]
        except (ValueError, KeyError, TypeError) as err:
            return 400, f"unreadable request body: {err}", 0.0
        text = None
        for message in messages:
            content = message.get("content")
            parts = content if isinstance(content, list) else [{"type": "text", "text": content}]
            for part in parts:
                if part.get("type") == "image_url":
                    if _url_digest(part["image_url"]["url"]) not in self._images:
                        return 400, "image data URL matches no generated image file", 0.0
                elif message.get("role") == "user":
                    text = part.get("text")
        reply = self._replies.reply(text) if isinstance(text, str) else None
        if reply is None:
            return 400, f"no fixture rule matches {str(text)[:80]!r}", 0.0
        delay = self._latency.seconds(self._seed, hashlib.sha256(body).digest())
        return 200, reply, delay

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        start = time.perf_counter()
        cpu_start = time.thread_time()
        with self._lock:
            self.calls += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        body = request.body or b""
        if isinstance(body, str):
            body = body.encode("utf-8")
        if request.method != "POST" or not request.url.endswith("/chat/completions"):
            status, text, delay = 404, f"unexpected {request.method} {request.url}", 0.0
        else:
            status, text, delay = self._handle(body)
        if delay:
            time.sleep(delay)
        if status == 200:
            payload = {
                "choices": [
                    {"message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
                ]
            }
        else:
            payload = {"error": {"message": text}}
        response = requests.Response()
        response.status_code = status
        response._content = json.dumps(payload).encode("utf-8")
        response.headers["Content-Type"] = "application/json"
        response.encoding = "utf-8"
        response.url = request.url
        response.request = request
        # CPU of this whole call; the sleep takes none.
        cpu = time.thread_time() - cpu_start
        with self._lock:
            self.inflight -= 1
            self.latency_s += delay
            self.cpu_s += cpu
            self.busy_s += time.perf_counter() - start
            self.request_bytes += len(body)
            if status != 200:
                self.failures += 1
                self.problems.append(f"stub: {text}")
        return response

    def close(self) -> None:
        pass


@contextlib.contextmanager
def mounted(adapter: StubAdapter):
    """Route STUB_URL to the adapter in every `requests.Session` created inside
    the block, which includes the session `HttpBackend` builds."""
    original = requests.Session

    class StubbedSession(original):
        def __init__(self):
            super().__init__()
            self.mount(STUB_URL, adapter)

    requests.Session = StubbedSession
    try:
        yield adapter
    finally:
        requests.Session = original

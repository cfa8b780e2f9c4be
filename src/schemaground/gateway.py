"""Backend-agnostic chat/vision model access with deterministic caching.

Two backends share one request/response shape: an HTTP backend speaking the
chat-completions wire format (base64 inline images), and a scripted backend
that replays fixture rules for offline, fully deterministic runs. Responses
are cached on disk in a content-addressed, write-once store keyed by a hash
of the request; raw image bytes never enter keys or logs, only their digests.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import (
    BackendConfigError,
    BackendUnavailableError,
    FixtureMissError,
    MalformedReplyError,
)

log = logging.getLogger(__name__)

ALLOWED_MEDIA_TYPES = ("image/png", "image/jpeg", "image/webp")

_EXTENSION_MEDIA_TYPES = {
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".webp": "image/webp",
}

ROLES = ("user", "assistant")


@dataclass(frozen=True)
class ImageRef:
    """An image carried by a message, as a file path or inline bytes.

    The media type must be one of ALLOWED_MEDIA_TYPES even where `from_file`
    is not used: the http backend writes it into the request body without a
    JSON escape, so a `"` in it would break the body.
    """

    media_type: str
    path: Path | None = None
    data: bytes | None = None

    def __post_init__(self):
        if self.media_type not in ALLOWED_MEDIA_TYPES:
            raise ValueError(f"unsupported media type {self.media_type!r}")
        if (self.path is None) == (self.data is None):
            raise ValueError("exactly one of path or data must be set")

    @classmethod
    def from_file(cls, path: str | Path) -> ImageRef:
        path = Path(path)
        media_type = _EXTENSION_MEDIA_TYPES.get(path.suffix.lower())
        if media_type is None:
            raise ValueError(f"cannot infer media type from {path.name!r}")
        return cls(media_type=media_type, path=path)

    def load_bytes(self) -> bytes:
        if self.data is not None:
            return self.data
        return Path(self.path).read_bytes()

    def digest(self) -> str:
        """SHA-256 of the image content; the only form that enters cache keys.

        Computed on first use and kept on the instance, outside the dataclass
        fields, so equality and hashing are unchanged. A file is hashed as it
        is read, 64 KiB at a time, so threads hashing at once never hold whole
        images; neither the bytes nor the blocks are kept. Two threads racing
        on the first call compute the same value.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            if self.data is not None:
                digest = hashlib.sha256(self.data).hexdigest()
            else:
                sha = hashlib.sha256()
                fd = os.open(self.path, os.O_RDONLY)
                try:
                    while block := os.read(fd, 1 << 16):
                        sha.update(block)
                finally:
                    os.close(fd)
                digest = sha.hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True)
class Message:
    role: str
    text: str
    images: tuple[ImageRef, ...] = ()

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"invalid role {self.role!r}")
        if self.role == "assistant" and self.images:
            raise ValueError("assistant messages carry no images")
        if not self.text and not self.images:
            raise ValueError("text may be empty only if images are present")


@dataclass(frozen=True)
class ModelRequest:
    model_id: str
    messages: tuple[Message, ...]
    temperature: float = 0.0
    max_tokens: int = 512
    seed_hint: int | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if not 0 <= self.temperature < float("inf"):  # NaN fails too
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        for index, message in enumerate(self.messages):
            expected = "user" if index % 2 == 0 else "assistant"
            if message.role != expected:
                raise ValueError(
                    f"roles must alternate user/assistant from a user message; "
                    f"message {index} is {message.role!r}"
                )


def cache_key_material(backend_id: str, request: ModelRequest) -> str:
    """Canonical serialization hashed into the cache key.

    Image bytes contribute only through their content digest.
    """
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
                "images": [
                    {"media_type": image.media_type, "sha256": image.digest()}
                    for image in message.images
                ],
            }
            for message in request.messages
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(backend_id: str, request: ModelRequest) -> str:
    """SHA-256 hex digest of the request's canonical serialization."""
    material = cache_key_material(backend_id, request)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _finite_float(text: str) -> float:
    value = float(text)
    if not abs(value) < float("inf"):  # NaN fails too
        raise ValueError(f"{text} is not a finite number")
    return value


# `json.loads` with its default settings, except that NaN, infinity and a
# number too large for a float, which JSON cannot hold (RFC 8259, section 6),
# raise rather than come in.
_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def read_json(path: str | Path):
    """The JSON value in the UTF-8 file at `path`. A file that does not hold
    JSON, or nests too deeply to decode, raises ValueError; one that cannot
    be read raises OSError."""
    # Plain os calls, four for a small file: each system call is a point
    # where another thread can take the GIL, and `Path.read_text` makes
    # about ten.
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    try:
        return _DECODER.decode(b"".join(chunks).decode("utf-8"))
    except RecursionError as err:
        raise ValueError("JSON nested too deeply to decode") from err


def json_text(value) -> str:
    """`value` as the text of a JSON file the package writes: two-space
    indent, sorted keys, non-ASCII characters as they are and a final
    newline. NaN and infinity raise ValueError, so `read_json` reads back
    whatever this writes."""
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


class ResponseCache:
    """Content-addressed on-disk store: one JSON file per key, write-once.

    An entry that cannot be read, does not hold JSON with a string "text",
    or whose text is blank reads as a miss, and the next put replaces it; a
    readable entry is never overwritten. A put creates its entry in place,
    one file create and one write; where the path already holds an entry
    that reads as a miss (blank, corrupt, or cut short by a crash), it
    removes that entry and creates it once more. A reader that meets an
    entry still being written, or none, reads a miss, never a torn reply. A
    put that cannot write its entry (the path is a directory, or the root is
    gone, say) logs a warning and leaves the cache as it was.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> str | None:
        try:
            payload = read_json(self._path(key))
        except (OSError, ValueError):
            return None
        text = payload.get("text") if isinstance(payload, dict) else None
        # A blank reply is no reply: the backend path rejects one too.
        return text if isinstance(text, str) and text.strip() else None

    def put(self, key: str, text: str) -> None:
        path = self._path(key)
        payload = json.dumps({"text": text}, ensure_ascii=False).encode("utf-8")
        create = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            try:
                fd = os.open(path, create, 0o600)
            except FileExistsError:
                if self.get(key) is not None:
                    return
                path.unlink(missing_ok=True)
                fd = os.open(path, create, 0o600)
            try:
                view = memoryview(payload)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
        except OSError as err:
            # The caller has the reply; only a later command pays for it.
            log.warning("cache entry %s not written: %s", path, err)


class ScriptedBackend:
    """Deterministic fixture-driven backend for offline tests.

    Rules are matched in order against the text of the request's last user
    message; the first matching rule's reply is returned.
    """

    def __init__(self, rules: list[dict], backend_id: str = "scripted"):
        self.backend_id = backend_id
        self._rules = [self._compile_rule(rule, index) for index, rule in enumerate(rules)]

    @staticmethod
    def _compile_rule(rule: dict, index: int):
        if not isinstance(rule, dict):
            raise BackendConfigError(
                f"fixture rule {index}: must be a JSON object, got {type(rule).__name__}"
            )
        match = rule.get("match")
        if not isinstance(match, dict) or len(match) != 1:
            raise BackendConfigError(
                f"fixture rule {index}: 'match' must hold exactly one of equals/contains/regex"
            )
        (kind, needle), = match.items()
        if kind not in ("equals", "contains", "regex"):
            raise BackendConfigError(f"fixture rule {index}: unknown matcher {kind!r}")
        if not isinstance(needle, str):
            raise BackendConfigError(
                f"fixture rule {index}: {kind} needle must be a string, "
                f"got {type(needle).__name__}"
            )
        if "reply" not in rule or not isinstance(rule["reply"], str):
            raise BackendConfigError(f"fixture rule {index}: missing string 'reply'")
        if kind == "regex":
            try:
                needle = re.compile(needle)
            except re.error as err:
                raise BackendConfigError(f"fixture rule {index}: bad regex: {err}") from err
        return kind, needle, rule["reply"]

    @classmethod
    def from_file(cls, path: str | Path, backend_id: str = "scripted") -> ScriptedBackend:
        try:
            rules = read_json(path)
        except (OSError, ValueError) as err:
            raise BackendConfigError(f"cannot read fixture file {path}: {err}") from err
        if not isinstance(rules, list):
            raise BackendConfigError(f"fixture file {path} must hold a JSON list of rules")
        return cls(rules, backend_id=backend_id)

    def complete(self, request: ModelRequest) -> str:
        target = ""
        for message in reversed(request.messages):
            if message.role == "user":
                target = message.text
                break
        for kind, needle, reply in self._rules:
            if kind == "equals" and target == needle:
                return reply
            if kind == "contains" and needle in target:
                return reply
            if kind == "regex" and needle.search(target):
                return reply
        raise FixtureMissError(
            f"no fixture rule matches the request (last user message starts "
            f"{target[:80]!r})"
        )


# `json.dumps` with its default settings, except that NaN and infinity, which
# are not JSON, raise rather than go out.
_ENCODER = json.JSONEncoder(allow_nan=False)


def _json(value) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


class HttpBackend:
    """Chat-completions HTTP backend with bounded retries.

    Retries (3 attempts, exponential backoff from 1s) apply only to transport
    errors and 5xx responses; auth and other 4xx failures are terminal.
    `requests` is imported only here, so offline runs never load it. The
    backend builds its own session, which reads the proxy, CA-bundle and
    .netrc environment once, when the backend is built; a configured API key
    always wins over a .netrc login.

    The POST to `<base_url>/chat/completions` is also prepared once, when the
    backend is built, so a `base_url` that `requests` cannot send to raises
    BackendConfigError there, before any request. A request then costs one
    copy of that POST, given its API key, body and the session's cookies, and
    one `session.send` per attempt, not the per-call set-up of
    `Session.post`. Cookies that the server sets go back as with
    `Session.post`, a failed attempt's included.
    """

    def __init__(
        self,
        base_url: str,
        backend_id: str = "http",
        api_key_env: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_s: float = 1.0,
        sleep=time.sleep,
    ):
        self.backend_id = backend_id
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        url = f"{self.base_url}/chat/completions"
        import requests

        session = requests.Session()
        try:
            # Resolve once what `trust_env` would look up on every post: the
            # proxies (after NO_PROXY), the CA bundle and, unless an API key
            # is configured, the .netrc login.
            settings = session.merge_environment_settings(url, {}, None, None, None)
            session.proxies = settings["proxies"]
            session.verify = settings["verify"]
            if not api_key_env:
                session.auth = requests.utils.get_netrc_auth(url)
            session.trust_env = False
            # What `Session.post` builds on every call: the parsed URL, the
            # session's headers and the login, with a JSON content type.
            self._post = session.prepare_request(
                requests.Request("POST", url, headers={"Content-Type": "application/json"})
            )
            session.get_adapter(self._post.url)
        except (ValueError, requests.RequestException) as err:
            raise BackendConfigError(f"bad base_url {base_url!r}: {err}") from err
        self.session = session
        self._sleep = sleep
        # Per thread, the last image encoded and its base64: a worker sends
        # one task's image in several requests before it moves to the next.
        self._last_image = threading.local()

    def _headers(self) -> dict[str, str]:
        """The headers read at each request: the API key, when configured."""
        if not self.api_key_env:
            return {}
        key = os.environ.get(self.api_key_env)
        if not key:
            raise BackendUnavailableError(f"environment variable {self.api_key_env!r} is not set")
        return {"Authorization": f"Bearer {key}"}

    def _base64(self, image: ImageRef) -> bytes:
        last = self._last_image
        if getattr(last, "image", None) is not image:
            last.encoded = base64.b64encode(image.load_bytes())
            last.image = image
        return last.encoded

    def _wire_message(self, message: Message) -> Iterator[bytes]:
        if not message.images:
            yield _json({"role": message.role, "content": message.text})
            return
        yield b'{"role": %s, "content": [' % _json(message.role)
        if message.text:
            yield _json({"type": "text", "text": message.text})
        for index, image in enumerate(message.images):
            if index or message.text:
                yield b", "
            # Base64 and the allowed media types need no JSON escape, so the
            # data URL goes into the body as it is encoded.
            yield b'{"type": "image_url", "image_url": {"url": "data:%s;base64,' % (
                image.media_type.encode("ascii")
            )
            yield self._base64(image)
            yield b'"}}'
        yield b"]}"

    def _body(self, request: ModelRequest) -> bytes:
        """The request body, byte for byte what `json.dumps` writes for the
        chat-completions payload, joined once from its pieces. No image goes
        through the JSON encoder, whose escaping of a data URL costs about
        twice its base64."""
        chunks = [b'{"model": %s, "messages": [' % _json(request.model_id)]
        for index, message in enumerate(request.messages):
            if index:
                chunks.append(b", ")
            chunks.extend(self._wire_message(message))
        chunks.append(
            b'], "temperature": %s, "max_tokens": %s'
            % (_json(request.temperature), _json(request.max_tokens))
        )
        if request.seed_hint is not None:
            chunks.append(b', "seed": %s' % _json(request.seed_hint))
        chunks.append(b"}")
        return b"".join(chunks)

    def complete(self, request: ModelRequest) -> str:
        import requests

        post = self._post.copy()
        post.prepare_body(self._body(request), None)
        post.headers.update(self._headers())
        last_error = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self.backoff_s * 2 ** (attempt - 1))
            # The session's cookies as they stand now, a failed attempt's too.
            post.headers.pop("Cookie", None)
            post.prepare_cookies(self.session.cookies)
            try:
                response = self.session.send(post, timeout=self.timeout)
            except requests.RequestException as err:
                last_error = f"transport error: {err}"
                log.warning("attempt %d/%d failed: %s", attempt + 1, self.max_attempts, last_error)
                continue
            if response.status_code >= 500:
                last_error = f"server error {response.status_code}"
                log.warning("attempt %d/%d failed: %s", attempt + 1, self.max_attempts, last_error)
                continue
            if response.status_code >= 400:
                raise BackendUnavailableError(
                    f"request rejected with status {response.status_code}"
                )
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise MalformedReplyError(f"unparseable completion payload: {err}") from err
            if content is None:
                return ""
            if not isinstance(content, str):
                raise MalformedReplyError(
                    f"completion content is not a string but a {type(content).__name__}"
                )
            return content
        raise BackendUnavailableError(
            f"backend unreachable after {self.max_attempts} attempts ({last_error})"
        )


class ModelGateway:
    """Front door for model calls: caching and reply validation.

    Safe for concurrent use: backends are read-only after construction, the
    cache is write-once per key, and the reply memo is single-flight.

    The gateway also owns a turn, which callers that share it take to run
    their local work one at a time. A caller holding the turn lets it go
    where it must wait: just before a call to a backend that waits on I/O
    and just before waiting on another caller's request in flight. It does
    not take the turn back, so a waiting caller never blocks the others. A
    scripted backend computes its reply in-process, so a call to it keeps
    the turn; on a warm cache or a scripted backend nothing waits, and one
    thread does all the work.
    """

    def __init__(
        self,
        backend,
        cache: ResponseCache | None = None,
        model_id: str = "default",
        temperature: float = 0.0,
        max_tokens: int = 512,
    ):
        self.backend = backend
        self.cache = cache
        self.model_id = model_id
        self.temperature = temperature
        self.max_tokens = max_tokens
        # Every reply this gateway returned, by cache key, so each distinct
        # request reaches the backend at most once. Single-flight: the first
        # caller of a key puts a Future there and later callers wait on it. On
        # success the reply string replaces the Future; a failure removes it,
        # so a later call sends the request again.
        self._lock = threading.Lock()
        self._replies: dict[str, str | Future] = {}
        self._turn = threading.Lock()
        self._holds_turn = threading.local()

    @classmethod
    def from_config(
        cls,
        config_path: str | Path,
        cache_dir: str | Path | None = None,
        temperature: float = 0.0,
        max_tokens: int = 512,
    ) -> ModelGateway:
        """The gateway to the backend that the JSON object in `config_path`
        describes: "http" at its base_url, or "scripted" replaying its
        fixture_path, which is relative to the file."""
        config_path = Path(config_path)
        bad = f"bad backend config {config_path}"
        try:
            config = read_json(config_path)
        except (OSError, ValueError) as err:
            raise BackendConfigError(f"cannot read backend config {config_path}: {err}") from err
        if not isinstance(config, dict):
            raise BackendConfigError(f"{bad}: expected an object, got {type(config).__name__}")
        # Every field holds a string. An optional one may be null and defaults
        # to it, so a name in only one of these sets is unknown or missing.
        optional = ("base_url", "api_key_env", "fixture_path")
        fields = dict.fromkeys(optional) | config
        strays = sorted(fields.keys() ^ {"backend_id", "kind", "model_id", *optional})
        if strays:
            problem = "unknown" if strays[0] in config else "missing"
            raise BackendConfigError(f"{bad}: {problem} field {strays[0]!r}")
        for name, value in fields.items():
            if not isinstance(value, str) and not (value is None and name in optional):
                raise BackendConfigError(
                    f"{bad}: {name!r} must be a string, got {type(value).__name__}"
                )
        kind, backend_id = fields["kind"], fields["backend_id"]
        if kind == "http":
            if not fields["base_url"]:
                raise BackendConfigError("http backend requires base_url")
            backend = HttpBackend(
                fields["base_url"], backend_id=backend_id, api_key_env=fields["api_key_env"]
            )
        elif kind == "scripted":
            if not fields["fixture_path"]:
                raise BackendConfigError("scripted backend requires fixture_path")
            fixture = config_path.parent / fields["fixture_path"]
            backend = ScriptedBackend.from_file(fixture, backend_id=backend_id)
        else:
            raise BackendConfigError(f"unknown backend kind {kind!r}")
        cache = ResponseCache(cache_dir) if cache_dir is not None else None
        return cls(
            backend,
            cache=cache,
            model_id=fields["model_id"],
            temperature=temperature,
            max_tokens=max_tokens,
        )

    def take_turn(self) -> None:
        """Wait for the turn, unless this thread holds it."""
        if not getattr(self._holds_turn, "held", False):
            self._turn.acquire()
            self._holds_turn.held = True

    def give_turn(self) -> None:
        """Let the turn go, if this thread holds it."""
        if getattr(self._holds_turn, "held", False):
            self._holds_turn.held = False
            self._turn.release()

    def complete(self, request: ModelRequest) -> str:
        """The reply text: from this gateway's earlier or in-flight replies,
        else from the cache when present, else from the backend."""
        key = cache_key(self.backend.backend_id, request)
        with self._lock:
            entry = self._replies.get(key)
            if entry is None:
                flight = self._replies[key] = Future()
        if entry is not None:
            if isinstance(entry, str):
                return entry
            # Its fetcher never waits on another flight or on the turn, so
            # this wait ends.
            self.give_turn()
            return entry.result()
        try:
            text = self.cache.get(key) if self.cache is not None else None
            if text is not None:
                log.debug("cache hit %s model=%s", key[:12], request.model_id)
            else:
                if not isinstance(self.backend, ScriptedBackend):
                    self.give_turn()
                text = self.backend.complete(request)
                if not text.strip():
                    raise MalformedReplyError("backend returned an empty reply")
                if self.cache is not None:
                    self.cache.put(key, text)
                log.debug("completed %s model=%s", key[:12], request.model_id)
        except BaseException as err:
            with self._lock:
                del self._replies[key]
            flight.set_exception(err)
            raise
        with self._lock:
            self._replies[key] = text
        flight.set_result(text)
        return text

    def chat(
        self,
        messages: list[Message] | tuple[Message, ...],
        seed_hint: int | None = None,
    ) -> str:
        request = ModelRequest(
            model_id=self.model_id,
            messages=tuple(messages),
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            seed_hint=seed_hint,
        )
        return self.complete(request)

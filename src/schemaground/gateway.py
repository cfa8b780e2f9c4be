"""Backend-agnostic chat/vision model access with deterministic caching.

Two backends share one request/response shape: an HTTP backend speaking the
chat-completions wire format (base64 inline images), and a scripted backend
that replays fixture rules for offline, fully deterministic runs. Every
request carries an integer seed, 0 unless its caller gives another, in its
key and in its HTTP body. A gateway holds its replies, loaded or fetched, in
one map keyed by a hash of the request, and with a cache directory also on
disk, write-once, in append-only logs; raw image bytes never enter keys or
logs, only their digests, which the cache's logs also keep, by file
identity, for a later command.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import (
    BackendConfigError,
    BackendUnavailableError,
    FixtureMissError,
    MalformedReplyError,
    MissingImageError,
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
        try:
            return Path(self.path).read_bytes()
        except OSError as err:
            raise MissingImageError(f"cannot read image {self.path}: {err.strerror}") from err

    def digest(self) -> str:
        """SHA-256 of the image content; the only form that enters cache keys.

        Computed on first use and kept on the instance, outside the dataclass
        fields, so equality and hashing are unchanged; `ResponseCache`'s
        image-digest memo may set it first, from a record of the file's stat
        as it stands. A command hashes its images one at a time, on
        its calling thread, so a file is read whole; its bytes are not kept.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = hashlib.sha256(self.load_bytes()).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True)
class Message:
    """One turn: non-empty text and, in a user message, at most one image."""

    role: str
    text: str
    image: ImageRef | None = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"invalid role {self.role!r}")
        if not isinstance(self.text, str):
            raise ValueError(f"text must be a string, got {type(self.text).__name__}")
        if not self.text:
            raise ValueError("text must be non-empty")
        if self.role == "assistant" and self.image is not None:
            raise ValueError("assistant messages carry no image")


def _is_number(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelRequest:
    model_id: str
    messages: tuple[Message, ...]
    temperature: float = 0.0
    max_tokens: int = 512
    seed_hint: int = 0

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise ValueError(f"model_id must be a string, got {type(self.model_id).__name__}")
        # A bool is an int to Python but `true` to JSON, and a number in a
        # string is a string: either would enter the key and the body as the
        # wrong JSON type.
        if not _is_number(self.temperature, (int, float)):
            raise ValueError(f"temperature must be a number, got {self.temperature!r}")
        if not 0 <= self.temperature < float("inf"):  # NaN fails too
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not _is_number(self.max_tokens, int) or self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be a positive integer, got {self.max_tokens!r}")
        if not _is_number(self.seed_hint, int):
            raise ValueError(f"seed_hint must be an integer, got {self.seed_hint!r}")
        for index, message in enumerate(self.messages):
            expected = "user" if index % 2 == 0 else "assistant"
            if message.role != expected:
                raise ValueError(
                    f"roles must alternate user/assistant from a user message; "
                    f"message {index} is {message.role!r}"
                )
        if not self.messages or self.messages[-1].role != "user":
            raise ValueError("messages must be non-empty and end on a user message")


def _json_number(value: int | float) -> str:
    """What `json.dumps(value, allow_nan=False)` writes for an int or float
    that is not a bool: NaN and infinity raise ValueError."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return int.__repr__(value)


def cache_key(backend_id: str, request: ModelRequest) -> str:
    """SHA-256 hex digest of the request's canonical serialization.

    Image bytes contribute only through their content digest. The hashed
    text is what `json.dumps(payload, sort_keys=True, separators=(",", ":"))`
    writes for the request's payload, built from its pieces in that sorted key
    order: `json.dumps` sets up a new encoder for every call, which costs
    more than the escaping itself. Roles and media types come from fixed
    sets and digests are hex, so none of them needs an escape.
    """
    messages = ",".join([
        '{"images":[%s],"role":"%s","text":%s}'
        % (
            ""
            if message.image is None
            else '{"media_type":"%s","sha256":"%s"}'
            % (message.image.media_type, message.image.digest()),
            message.role,
            encode_basestring_ascii(message.text),
        )
        for message in request.messages
    ])
    material = (
        '{"backend_id":%s,"max_tokens":%s,"messages":[%s],"model_id":%s,'
        '"seed_hint":%s,"temperature":%s}'
        % (
            encode_basestring_ascii(backend_id),
            _json_number(request.max_tokens),
            messages,
            encode_basestring_ascii(request.model_id),
            _json_number(request.seed_hint),
            _json_number(request.temperature),
        )
    )
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
    try:
        return _DECODER.decode(Path(path).read_bytes().decode("utf-8"))
    except RecursionError as err:
        raise ValueError("JSON nested too deeply to decode") from err


# Any surrogate code point in a str stands alone: JSON can carry one as an
# escape ("\ud800"), but UTF-8 cannot encode it.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _is_unicode(text: str) -> bool:
    """Whether UTF-8 can encode `text`, so that it can be cached and written."""
    return text.isascii() or _SURROGATE_RE.search(text) is None


def json_text(value) -> str:
    """`value` as the text of a JSON file the package writes: two-space
    indent, sorted keys, non-ASCII characters as they are and a final
    newline. NaN and infinity raise ValueError, so `read_json` reads back
    whatever this writes."""
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def _stat_identity(path) -> tuple[int, ...]:
    """What the image-digest memo knows a file by: its device, inode, size,
    and mtime and ctime in nanoseconds."""
    try:
        stat = os.stat(path)
    except OSError as err:
        raise MissingImageError(f"cannot read image {path}: {err.strerror}") from err
    return (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)


# A file's digest is recorded only once its ctime is this many seconds old:
# any later change to the file then moves its ctime, even on a file system
# that keeps whole seconds, so the memo never holds a digest for a file
# changed within a timestamp tick of its recording (git's "racy" rule).
_SETTLED_S = 2.0
# The wall clock that the rule reads.
_clock = time.time

_HEX_DIGEST = re.compile("[0-9a-f]{64}")
_CREATE_LOG = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND


class ResponseCache:
    """Write-once store of replies and image digests in append-only logs.

    Its reply map also holds the gateway's requests in flight, under its
    lock. With no `root`, a cache reads and appends no log, and keeps no
    image digest.

    A cache creates one JSON-lines log in `root` on its first write, named
    `<creation time in ns>-<pid>.jsonl` so that names sort by creation, and
    appends each record to it as one line, with one write under a lock:
    `{"key": <cache key>, "text": <reply>}`, or for the image-digest memo
    `{"stat": <_stat_identity, space-separated>, "sha256": <digest>}`. It
    reads every log when opened, so `get` and the memo lookup touch no file
    and another command's records are seen only at the next open. The first
    valid record for a key in log-name order wins; a put of a held key
    writes nothing. A torn record (a log's cut-short last line), or one not
    JSON, of the wrong types, a blank reply, one with a lone surrogate
    escape or a digest not 64 lowercase hex, reads as a miss. A failed write
    logs a warning and ends the log; the next write starts another, and the
    record it failed to write is still held for this command. The older
    one-file-per-entry layout is not read; one warning counts it.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = None if root is None else Path(root)
        self._replies: dict[str, str | _Flight] = {}
        self._digests: dict[str, str] = {}
        self._lock = threading.Lock()
        self._fd: int | None = None  # this cache's log, once it writes
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        names = sorted(os.listdir(self.root))
        if old := sum(1 for name in names if re.fullmatch(r"[0-9a-f]{64}\.json", name)):
            log.warning("cache directory %s: %d entries of the old layout ignored", self.root, old)
        for name in names:
            if name.endswith(".jsonl"):
                self._load(self.root / name)

    def _load(self, path: Path) -> None:
        try:
            lines = path.read_bytes().split(b"\n")
        except OSError as err:
            log.warning("cache log %s not read: %s", path, err)
            return
        for line in lines[:-1]:  # the last is empty, or a record cut short
            try:
                record = _DECODER.decode(line.decode("utf-8"))
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict):
                continue
            key, text, stat, sha = map(record.get, ("key", "text", "stat", "sha256"))
            if isinstance(key, str) and isinstance(text, str):
                if text.strip() and _is_unicode(text):
                    self._replies.setdefault(key, text)
            elif isinstance(stat, str) and isinstance(sha, str) and _HEX_DIGEST.fullmatch(sha):
                self._digests.setdefault(stat, sha)

    def _write(self, store: dict, key: str, value: str, record: str) -> None:
        """Unless `store` holds a string at `key`, set `store[key]` to `value`
        and, with a root, append `record` to this cache's log, created on the
        first write and closed when the cache is collected."""
        with self._lock:
            if isinstance(store.get(key), str):
                return
            store[key] = value
            if self.root is None:
                return
            try:
                if self._fd is None:
                    name = "%020d-%d.jsonl" % (time.time_ns(), os.getpid())
                    self._fd = os.open(self.root / name, _CREATE_LOG, 0o600)
                    self._close = weakref.finalize(self, os.close, self._fd)
                view = memoryview(record.encode("utf-8"))
                while view:
                    view = view[os.write(self._fd, view):]
            except OSError as err:
                log.warning("cache record not written in %s: %s", self.root, err)
                if self._fd is not None:  # a record cut short must tear no other
                    self._close()
                    self._fd = None

    def get(self, key: str) -> str | _Flight | None:
        return self._replies.get(key)

    def put(self, key: str, text: str) -> None:
        record = json.dumps({"key": key, "text": text}, ensure_ascii=False) + "\n"
        self._write(self._replies, key, text, record)

    def image_digest(self, image: ImageRef) -> str:
        """`image.digest()`. With a root, for a file not hashed yet, the memo's
        record for the file as it stands gives it without a read; on a miss the
        file is hashed, and its digest recorded when its stat did not move while
        it was read and its ctime is at least _SETTLED_S seconds old."""
        if self.root is None or image.path is None or "_digest" in image.__dict__:
            return image.digest()
        identity = _stat_identity(image.path)
        stat = "%d %d %d %d %d" % identity
        digest = self._digests.get(stat)
        if digest is not None:
            object.__setattr__(image, "_digest", digest)
            return digest
        digest = image.digest()
        if _stat_identity(image.path) == identity and _clock() - identity[-1] / 1e9 >= _SETTLED_S:
            record = '{"stat": "%s", "sha256": "%s"}\n' % (stat, digest)
            self._write(self._digests, stat, digest, record)
        return digest


class ScriptedBackend:
    """Deterministic fixture-driven backend for offline tests.

    Rules are matched in order against the text of the request's last
    message, a user message; the first matching rule's reply is returned.
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
        target = request.messages[-1].text
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


def _json(value: str | int | float) -> bytes:
    """What `json.dumps` writes for a string or a number, with its default
    settings, except that NaN and infinity, which are not JSON, raise
    ValueError rather than go out."""
    text = encode_basestring_ascii(value) if isinstance(value, str) else _json_number(value)
    return text.encode("ascii")


# What an HTTP header value may hold (RFC 9110, field-value).
_HEADER_VALUE_RE = re.compile(r"[\t\x20-\x7e\x80-\xff]*\Z")


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
    BackendConfigError there, before any request. A request then costs a new
    `PreparedRequest` with that POST's method, URL, hooks and a copy of its
    headers, given its body, API key and the session's cookies, and one
    `session.send` per attempt, not the per-call set-up of `Session.post`.
    Cookies that the server sets go back as with `Session.post`, a failed
    attempt's included; the Cookie header is built only while the session's
    jar holds a cookie. The session's pool keeps up to `concurrency`
    connections per host, one for each worker that sends at once (10 by
    default, as `requests` keeps).
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
        concurrency: int = 10,
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
        # A pool that keeps a connection per worker: one that keeps fewer
        # closes each connection returned past its size. An adapter mounted
        # on a longer prefix still serves its URLs.
        for scheme in ("http://", "https://"):
            session.mount(scheme, requests.adapters.HTTPAdapter(pool_maxsize=concurrency))
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

    def _api_key(self) -> str | None:
        """The API key, read at each request, when one is configured. It must be
        a header value: tabs, spaces, visible ASCII and bytes 0x80-0xFF."""
        if not self.api_key_env:
            return None
        key = os.environ.get(self.api_key_env)
        if not key:
            raise BackendUnavailableError(f"environment variable {self.api_key_env!r} is not set")
        if not _HEADER_VALUE_RE.match(key):
            raise BackendUnavailableError(
                f"environment variable {self.api_key_env!r} holds a key that cannot be sent "
                "in an HTTP header"
            )
        return key

    def _base64(self, image: ImageRef) -> bytes:
        last = self._last_image
        if getattr(last, "image", None) is not image:
            last.encoded = base64.b64encode(image.load_bytes())
            last.image = image
        return last.encoded

    def _body(self, request: ModelRequest) -> bytes:
        """The request body, byte for byte what `json.dumps` writes for the
        chat-completions payload, joined once from its pieces. No JSON encoder
        is set up: each string goes through the escape that `json.dumps`
        applies, and no image goes through any, since escaping a data URL
        would cost about twice its base64."""
        chunks = [b'{"model": %s, "messages": [' % _json(request.model_id)]
        for message in request.messages:
            # Roles, the allowed media types and base64 need no JSON escape,
            # so the data URL goes into the body as it is encoded.
            role, text, image = message.role.encode("ascii"), _json(message.text), message.image
            if image is None:
                chunks.append(b'{"role": "%s", "content": %s}, ' % (role, text))
            else:
                chunks += (
                    b'{"role": "%s", "content": [{"type": "text", "text": %s}, {"type": '
                    b'"image_url", "image_url": {"url": "data:%s;base64,'
                    % (role, text, image.media_type.encode("ascii")),
                    self._base64(image),
                    b'"}}]}, ',
                )
        # The last message ends the list, so its ", " is cut.
        chunks[-1] = chunks[-1][:-2] + b'], "temperature": %s, "max_tokens": %s, "seed": %s}' % (
            _json(request.temperature),
            _json(request.max_tokens),
            _json(request.seed_hint),
        )
        return b"".join(chunks)

    def complete(self, request: ModelRequest) -> str:
        import requests

        # What `PreparedRequest.copy` gives, but for the copy of the cookie jar
        # that the first attempt replaces, and with the body that
        # `prepare_body` sets for bytes.
        template = self._post
        post = requests.PreparedRequest()
        post.method, post.url, post.hooks = template.method, template.url, template.hooks
        post.headers = headers = template.headers.copy()
        post.body = self._body(request)
        headers["Content-Length"] = str(len(post.body))
        key = self._api_key()
        if key is not None:
            headers["Authorization"] = f"Bearer {key}"
        cookies = self.session.cookies
        last_error = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self.backoff_s * 2 ** (attempt - 1))
                headers.pop("Cookie", None)
            # The session's cookies as they stand now, a failed attempt's too.
            # The jar's own dict of domains is read, not the jar iterated:
            # another worker's response may be adding to it, and
            # `CookieJar.__len__` iterates without taking the jar's lock.
            post._cookies = cookies
            if cookies._cookies:
                post.prepare_cookies(cookies)
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


class _Flight:
    """A request in flight: its outcome, and a lock held until the outcome is
    set, which a waiter takes and lets go before it reads the outcome."""

    __slots__ = ("lock", "text", "error")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.text: str | None = None
        self.error: BaseException | None = None


class ModelGateway:
    """Front door for model calls: caching and reply validation.

    Safe for concurrent use: backends are read-only after construction, and
    the cache's reply map is single-flight: the first caller of a key puts a
    _Flight there and later callers wait on its lock; the reply replaces it,
    and a failure removes it. A gateway built without a cache gets one with
    no root.

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
        self.cache = cache or ResponseCache()
        self.model_id = model_id
        self.temperature = temperature
        self.max_tokens = max_tokens
        self._turn = threading.Lock()
        self._holds_turn = threading.local()

    @classmethod
    def from_config(
        cls,
        config_path: str | Path,
        cache_dir: str | Path | None = None,
        temperature: float = 0.0,
        max_tokens: int = 512,
        concurrency: int = 10,
    ) -> ModelGateway:
        """The gateway to the backend that the JSON object in `config_path`
        describes: "http" at its base_url, keeping a connection for each of
        `concurrency` workers, or "scripted" replaying its fixture_path,
        which is relative to the file."""
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
                fields["base_url"],
                backend_id=backend_id,
                api_key_env=fields["api_key_env"],
                concurrency=concurrency,
            )
        elif kind == "scripted":
            if not fields["fixture_path"]:
                raise BackendConfigError("scripted backend requires fixture_path")
            fixture = config_path.parent / fields["fixture_path"]
            backend = ScriptedBackend.from_file(fixture, backend_id=backend_id)
        else:
            raise BackendConfigError(f"unknown backend kind {kind!r}")
        return cls(
            backend,
            cache=ResponseCache(cache_dir),
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
        """The reply text: from the cache's map, loaded or fetched, or from
        a request in flight, else from the backend."""
        key = cache_key(self.backend.backend_id, request)
        cache = self.cache
        with cache._lock:
            entry = cache.get(key)
            if entry is None:
                flight = cache._replies[key] = _Flight()
        if isinstance(entry, str):
            return entry
        if entry is not None:
            # Its fetcher never waits on another flight or on the turn, so
            # this wait ends.
            self.give_turn()
            with entry.lock:
                pass
            if entry.error is not None:
                raise entry.error
            return entry.text
        try:
            if not isinstance(self.backend, ScriptedBackend):
                self.give_turn()
            text = self.backend.complete(request)
            if not text.strip():
                raise MalformedReplyError("backend returned an empty reply")
            if not _is_unicode(text):
                raise MalformedReplyError(
                    "backend returned a reply that is not valid Unicode text "
                    "(a lone surrogate)"
                )
            cache.put(key, text)
            log.debug("completed %s model=%s", key[:12], request.model_id)
        except BaseException as err:
            with cache._lock:
                del cache._replies[key]
            flight.error = err
            flight.lock.release()
            raise
        flight.text = text
        flight.lock.release()
        return text

    def chat(
        self,
        messages: list[Message] | tuple[Message, ...],
        seed_hint: int = 0,
    ) -> str:
        request = ModelRequest(
            model_id=self.model_id,
            messages=tuple(messages),
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            seed_hint=seed_hint,
        )
        return self.complete(request)

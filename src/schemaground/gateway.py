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
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BackendConfigError,
    BackendUnavailableError,
    FixtureMissError,
    MalformedReplyError,
)

if TYPE_CHECKING:
    import requests

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
    """An image carried by a message, as a file path or inline bytes."""

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

    @classmethod
    def from_bytes(cls, data: bytes, media_type: str = "image/png") -> ImageRef:
        return cls(media_type=media_type, data=data)

    def load_bytes(self) -> bytes:
        if self.data is not None:
            return self.data
        return Path(self.path).read_bytes()

    def digest(self) -> str:
        """SHA-256 of the image content; the only form that enters cache keys.

        Computed on first use and kept on the instance, outside the dataclass
        fields, so equality and hashing are unchanged. The bytes are not kept.
        Two threads racing on the first call compute the same value.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = hashlib.sha256(self.load_bytes()).hexdigest()
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
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
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


class ResponseCache:
    """Content-addressed on-disk store: one JSON file per key, write-once.

    A file that does not hold JSON with a string "text" reads as a miss, and
    the next put replaces it; a readable entry is never overwritten. Writes
    land through an atomic rename, so concurrent writers of one key never
    leave a torn file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> str | None:
        # Plain os calls, four per hit: each system call is a point where
        # another thread can take the GIL, and `Path.read_text` makes about
        # ten.
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        try:
            payload = json.loads(b"".join(chunks).decode("utf-8"))
        except ValueError:
            return None
        text = payload.get("text") if isinstance(payload, dict) else None
        return text if isinstance(text, str) else None

    def put(self, key: str, text: str) -> None:
        if self.get(key) is not None:
            return
        path = self._path(key)
        payload = json.dumps({"text": text}, ensure_ascii=False)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


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
        match = rule.get("match")
        if not isinstance(match, dict) or len(match) != 1:
            raise BackendConfigError(
                f"fixture rule {index}: 'match' must hold exactly one of equals/contains/regex"
            )
        (kind, needle), = match.items()
        if kind not in ("equals", "contains", "regex"):
            raise BackendConfigError(f"fixture rule {index}: unknown matcher {kind!r}")
        if "reply" not in rule or not isinstance(rule["reply"], str):
            raise BackendConfigError(f"fixture rule {index}: missing string 'reply'")
        if kind == "regex":
            needle = re.compile(needle)
        return kind, needle, rule["reply"]

    @classmethod
    def from_file(cls, path: str | Path, backend_id: str = "scripted") -> ScriptedBackend:
        try:
            rules = json.loads(Path(path).read_text(encoding="utf-8"))
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


class HttpBackend:
    """Chat-completions HTTP backend with bounded retries.

    Retries (3 attempts, exponential backoff from 1s) apply only to transport
    errors and 5xx responses; auth and other 4xx failures are terminal.
    `requests` is imported only here, so offline runs never load it.
    """

    def __init__(
        self,
        base_url: str,
        backend_id: str = "http",
        api_key_env: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_s: float = 1.0,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ):
        self.backend_id = backend_id
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise BackendUnavailableError(
                    f"environment variable {self.api_key_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    @staticmethod
    def _wire_message(message: Message) -> dict:
        if not message.images:
            return {"role": message.role, "content": message.text}
        parts: list[dict] = []
        if message.text:
            parts.append({"type": "text", "text": message.text})
        for image in message.images:
            encoded = base64.b64encode(image.load_bytes()).decode("ascii")
            parts.append(
                {
                    "type": "image_url",
                    "image_url": {"url": f"data:{image.media_type};base64,{encoded}"},
                }
            )
        return {"role": message.role, "content": parts}

    def complete(self, request: ModelRequest) -> str:
        import requests

        payload = {
            "model": request.model_id,
            "messages": [self._wire_message(m) for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed_hint is not None:
            payload["seed"] = request.seed_hint
        headers = self._headers()
        url = f"{self.base_url}/chat/completions"
        last_error = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self.backoff_s * 2 ** (attempt - 1))
            try:
                response = self.session.post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
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
                return response.json()["choices"][0]["message"]["content"] or ""
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise MalformedReplyError(f"unparseable completion payload: {err}") from err
        raise BackendUnavailableError(
            f"backend unreachable after {self.max_attempts} attempts ({last_error})"
        )


@dataclass(frozen=True)
class BackendConfig:
    backend_id: str
    kind: str  # "http" | "scripted"
    model_id: str
    base_url: str | None = None
    api_key_env: str | None = None
    fixture_path: str | None = None


def load_backend_config(path: str | Path) -> BackendConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BackendConfigError(f"cannot read backend config {path}: {err}") from err
    try:
        config = BackendConfig(**raw)
    except TypeError as err:
        raise BackendConfigError(f"bad backend config {path}: {err}") from err
    if config.kind not in ("http", "scripted"):
        raise BackendConfigError(f"unknown backend kind {config.kind!r}")
    if config.kind == "http" and not config.base_url:
        raise BackendConfigError("http backend requires base_url")
    if config.kind == "scripted" and not config.fixture_path:
        raise BackendConfigError("scripted backend requires fixture_path")
    return config


def build_backend(config: BackendConfig, base_dir: str | Path = "."):
    if config.kind == "scripted":
        fixture = Path(base_dir) / config.fixture_path
        return ScriptedBackend.from_file(fixture, backend_id=config.backend_id)
    return HttpBackend(
        base_url=config.base_url,
        backend_id=config.backend_id,
        api_key_env=config.api_key_env,
    )


class ModelGateway:
    """Front door for model calls: caching and reply validation.

    Safe for concurrent use: backends are read-only after construction, the
    cache is write-once per key, and the reply memo only ever gains entries.
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
        # request reaches the backend at most once; a failure is not kept, so
        # a later call retries. A plain dict, not single-flight: `ablate` runs
        # the modes one after another, and within a mode the runner's keys are
        # distinct (runs carry different seeds, grounding is grouped by concept
        # and image), so no caller needs to wait on a request in flight. A
        # concurrent duplicate would only be sent twice, as without the memo.
        self._replies: dict[str, str] = {}

    @classmethod
    def from_config(
        cls,
        config_path: str | Path,
        cache_dir: str | Path | None = None,
        temperature: float = 0.0,
        max_tokens: int = 512,
    ) -> ModelGateway:
        config_path = Path(config_path)
        config = load_backend_config(config_path)
        backend = build_backend(config, base_dir=config_path.parent)
        cache = ResponseCache(cache_dir) if cache_dir is not None else None
        return cls(
            backend,
            cache=cache,
            model_id=config.model_id,
            temperature=temperature,
            max_tokens=max_tokens,
        )

    def complete(self, request: ModelRequest) -> str:
        """The reply text: from this gateway's earlier replies or the cache
        when present, else from the backend."""
        key = cache_key(self.backend.backend_id, request)
        text = self._replies.get(key)
        if text is None and self.cache is not None:
            text = self.cache.get(key)
        if text is not None:
            log.debug("cache hit %s model=%s", key[:12], request.model_id)
        else:
            text = self.backend.complete(request)
            if not text.strip():
                raise MalformedReplyError("backend returned an empty reply")
            if self.cache is not None:
                self.cache.put(key, text)
            log.debug("completed %s model=%s", key[:12], request.model_id)
        self._replies[key] = text
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

"""Model backends: live HTTP access and scripted offline stand-ins.

Every model call flows through a :class:`Backend` so the agent loop never
cares whether text comes from a real API, a test script, or a recorded
trace. Requests carry a :class:`Purpose` tag naming the role of the call
(actor step, planner, judge, memory summarizer, query expansion), which
scripted backends use for matching and ledgers use for attribution.
"""

from __future__ import annotations

import abc
import hashlib
import math
import os
import struct
import threading
import time
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from operator import mul
from pathlib import Path
from typing import Any, Callable, Sequence, get_type_hints

from .config import InputError, jsonl_objects, read_fields, refused, typed_value

BYTES_PER_TOKEN_ESTIMATE = 4


class Purpose(Enum):
    ACTOR = "actor"
    PLANNER = "planner"
    PRM = "prm"
    MEMORY = "memory"
    QUERY_EXPANSION = "query_expansion"


@dataclass(frozen=True)
class Message:
    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass(frozen=True)
class TokenUsage:
    """Token counts for one call. ``estimated`` marks byte-length fallbacks."""

    prompt_tokens: int
    completion_tokens: int
    estimated: bool = False

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")


@dataclass(frozen=True)
class ModelRequest:
    model_id: str
    messages: tuple[Message, ...]
    purpose: Purpose
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a request needs at least one message")
        if self.messages[0].role not in ("system", "user"):
            raise ValueError("conversations open with a system or user message")


@dataclass(frozen=True)
class ModelResponse:
    text: str
    usage: TokenUsage
    model_id: str


def estimate_tokens(text: str) -> int:
    """Byte-length fallback when a provider reports no usage: ceil(bytes/4)."""
    return math.ceil(len(text.encode("utf-8")) / BYTES_PER_TOKEN_ESTIMATE)


def estimate_prompt_tokens(messages: tuple[Message, ...]) -> int:
    return sum(estimate_tokens(m.content) for m in messages)


def reply_usage(request: ModelRequest, text: str, prompt_tokens: int | None = None,
                completion_tokens: int | None = None) -> TokenUsage:
    """The token counts of reply ``text`` to ``request``: the one usage rule
    of every backend. A count given is kept; a missing one is estimated, and
    ``estimated`` marks a reply with either count estimated."""
    return TokenUsage(
        estimate_prompt_tokens(request.messages) if prompt_tokens is None else prompt_tokens,
        estimate_tokens(text) if completion_tokens is None else completion_tokens,
        estimated=prompt_tokens is None or completion_tokens is None,
    )


class BackendError(RuntimeError):
    pass


class RunTimeoutError(RuntimeError):
    """Raised cooperatively when the wall-clock budget is exhausted."""


class Backend(abc.ABC):
    """Where every effect of a run comes from: chat completions, tool
    results and embeddings, each the answer to a request the run records."""

    def start_run(self, run_id: str) -> None:
        """Reset any per-run state. Live backends have none."""

    @abc.abstractmethod
    def complete(self, request: ModelRequest) -> ModelResponse:
        raise NotImplementedError

    def run_tool(self, tool: str, args: dict, thunk: Callable[[], Any]) -> Any:
        """The result of one tool effect; a live backend runs the thunk."""
        return thunk()

    def embed(self, text: str) -> tuple[float, ...]:
        """A deterministic pseudo-embedding: the sha256 of ``agentmeter:text``
        read as 16 big-endian signed 16-bit components, unit-normalized. Each
        step is exact or correctly rounded, so equal texts map to the same unit
        vector, bit for bit, on every platform and Python version."""
        digest = hashlib.sha256(f"agentmeter:{text}".encode("utf-8")).digest()
        components = struct.unpack(">16h", digest)
        norm = math.sqrt(sum(c * c for c in components))
        return tuple(c / norm for c in components)


# the norm of every vector a run embeds or a trace records is 1 within this
UNIT_NORM_TOL = 1e-6


def vector_norm(v: Sequence[float]) -> float:
    """The Euclidean norm, from an exactly rounded sum of squares."""
    return math.sqrt(math.fsum(map(mul, v, v)))


def unit_vector_dim(vector: Sequence[float], dim: int | None = None) -> int:
    """The length of ``vector``, a unit vector of ``dim`` components (of any
    number when ``dim`` is None); any other vector raises ``ValueError``."""
    try:
        norm = vector_norm(vector)
    except OverflowError:  # an integer too large for a float
        norm = math.inf
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # NaN included
        raise ValueError(f"vector has norm {norm!r}, not 1 within {UNIT_NORM_TOL}")
    if dim is not None and len(vector) != dim:
        raise ValueError(f"vector has {len(vector)} components, not {dim}")
    return len(vector)


# -- scripted backend --------------------------------------------------------


@dataclass
class ScriptEntry:
    """One canned response.

    Matches a request when the purpose tag agrees and, if ``match`` is
    set, the substring occurs in the last message. ``times`` caps how
    often the entry fires per run; 0 means unlimited.
    """

    purpose: Purpose
    response: str
    match: str | None = None
    times: int = 1
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def __post_init__(self) -> None:
        if min(self.prompt_tokens or 0, self.completion_tokens or 0) < 0:
            raise ValueError("token counts must be non-negative")
        if self.times < 0:
            raise ValueError(f"times must be >= 0 (0 means unlimited), got {self.times}")

    def matches(self, request: ModelRequest) -> bool:
        if request.purpose is not self.purpose:
            return False
        if self.match is None:
            return True
        return bool(request.messages) and self.match in request.messages[-1].content


_ENTRY_TYPES = get_type_hints(ScriptEntry)
_ENTRY_DEFAULTS = {f.name for f in fields(ScriptEntry) if f.default is not MISSING}


class ScriptFileError(InputError, ValueError):
    """A ``--script`` file that is not UTF-8 JSONL of script entries."""


class ScriptExhaustedError(BackendError):
    def __init__(self, request: ModelRequest):
        tail = request.messages[-1].content[-120:] if request.messages else ""
        super().__init__(
            f"no scripted response left for purpose={request.purpose.value!r}; "
            f"last message tail: {tail!r}"
        )
        self.request = request


class ScriptedBackend(Backend):
    """Replays canned responses for offline runs and tests.

    Entries are consulted in order; the first live match wins. Consumption
    counters reset on :meth:`start_run` and live in thread-local storage,
    so concurrent runs (one run per worker thread) do not share them.
    """

    def __init__(self, entries: list[ScriptEntry]):
        self._entries = list(entries)
        self._state = threading.local()
        self._lock = threading.Lock()
        self.calls: list[ModelRequest] = []

    def _fresh_counts(self) -> list[int]:
        # -1 marks unlimited entries (times == 0)
        return [e.times if e.times > 0 else -1 for e in self._entries]

    @property
    def _remaining(self) -> list[int]:
        counts = getattr(self._state, "remaining", None)
        if counts is None:
            counts = self._fresh_counts()
            self._state.remaining = counts
        return counts

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        """One entry per line, each field of its ScriptEntry type; a line
        that is not one raises ``ScriptFileError`` citing ``file:line``."""
        entries = []
        for lineno, raw in jsonl_objects(path, ScriptFileError, "a script entry"):
            values = read_fields(raw, _ENTRY_TYPES, ScriptFileError, f"{path}:{lineno}: field ",
                                 optional=_ENTRY_DEFAULTS)
            entries.append(refused(ScriptFileError, f"{path}:{lineno}: ", ScriptEntry, **values))
        return cls(entries)

    def start_run(self, run_id: str) -> None:
        self._state.remaining = self._fresh_counts()

    def complete(self, request: ModelRequest) -> ModelResponse:
        with self._lock:
            self.calls.append(request)
        remaining = self._remaining
        for i, entry in enumerate(self._entries):
            if remaining[i] == 0:
                continue
            if not entry.matches(request):
                continue
            if remaining[i] > 0:
                remaining[i] -= 1
            usage = reply_usage(request, entry.response, entry.prompt_tokens,
                                entry.completion_tokens)
            return ModelResponse(text=entry.response, usage=usage, model_id=request.model_id)
        raise ScriptExhaustedError(request)


# -- live backend ------------------------------------------------------------

API_BASE_ENV = "AGENTMETER_API_BASE"
API_KEY_ENV = "AGENTMETER_API_KEY"
DEFAULT_API_BASE = "https://api.openai.com/v1"
COMPLETION_TIMEOUT_S = 120.0
COMPLETION_RETRIES = 3


class OpenAIBackend(Backend):
    """Chat-completions client for OpenAI-compatible HTTP APIs.

    Credentials come from the environment only (config files hold no
    secrets): ``AGENTMETER_API_KEY`` falling back to ``OPENAI_API_KEY``,
    and ``AGENTMETER_API_BASE`` for non-default gateways.
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None):
        self.base_url = (base_url or os.environ.get(API_BASE_ENV, DEFAULT_API_BASE)).rstrip("/")
        self.api_key = api_key or os.environ.get(API_KEY_ENV) or os.environ.get("OPENAI_API_KEY")

    def complete(self, request: ModelRequest) -> ModelResponse:
        import requests

        payload: dict = {
            "model": request.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: Exception | None = None
        for attempt in range(COMPLETION_RETRIES + 1):
            if attempt:
                time.sleep(min(2**attempt, 30))
            try:
                resp = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=COMPLETION_TIMEOUT_S,
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = BackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                continue
            if resp.status_code != 200:
                raise BackendError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            try:
                body = resp.json()
            except (ValueError, RecursionError):  # not JSON, or nested too deep
                raise BackendError(f"completion body is not JSON: {resp.text[:200]!r}") from None
            return self._parse(request, body)
        # the message names the last failure: a run records str() of the error alone
        raise BackendError(
            f"model call failed after {COMPLETION_RETRIES + 1} attempts: {last_error}"
        ) from last_error

    def _parse(self, request: ModelRequest, body: dict) -> ModelResponse:
        try:
            text = typed_value(str | None, body["choices"][0]["message"]["content"]) or ""
            model_id = typed_value(str, body.get("model", request.model_id))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion payload: {body!r:.300}") from exc
        try:
            raw_usage = typed_value(dict | None, body.get("usage")) or {}
            counts = {name: typed_value(int, raw_usage[name])
                      for name in ("prompt_tokens", "completion_tokens") if name in raw_usage}
            usage = reply_usage(request, text, **counts)
        except ValueError as exc:
            raise BackendError(f"bad usage in completion payload: {exc}") from None
        return ModelResponse(text=text, usage=usage, model_id=model_id)

"""Run traces: deterministic capture of every external effect, plus replay.

A trace is a gzip-compressed JSONL file holding one header line followed
by one event per model call, tool call, and embedding, and a final result
line; a failed model or tool call is an event with an ``error`` key in
place of its response. Writing is fully deterministic (sorted keys,
compact separators, gzip mtime pinned to zero) so identical runs produce
byte-identical files. A recorded trace contains everything needed to
re-run the task offline and reproduce the run event for event.

Each trace is compressed once, when it closes, at gzip level 1: the
fastest level, which costs a few percent of file size. Traces written
by earlier versions at level 9 hold the same lines, so they replay to
the same outcome; re-recording one gives the same decompressed lines in
different compressed bytes.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import re
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backend import (
    Backend,
    BackendError,
    Embedder,
    ModelRequest,
    ModelResponse,
    RunTimeoutError,
    TokenUsage,
)
from .tools import ToolError

TRACE_VERSION = 1
TRACE_SUFFIX = ".trace"
# compression is most of the cost of writing a trace; levels 6 and 9 take
# about four times as long as level 1 for files about a tenth smaller
GZIP_LEVEL = 1

_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]")


def trace_filename(task_id: str, config_hash: str) -> str:
    safe_task = _UNSAFE_FILENAME.sub("_", task_id)
    return f"{safe_task}.{config_hash}{TRACE_SUFFIX}"


def _dump_line(event: dict) -> bytes:
    return (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TraceWriter:
    """Accumulates events and writes one deterministic trace file on close."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._events: list[dict] = []
        self._closed = False

    def header(
        self,
        run_id: str,
        task_id: str,
        config: dict,
        config_hash: str,
        pricing: dict,
        task: dict | None = None,
    ) -> None:
        # task metadata makes the file self-contained for offline replay
        self._events.append(
            {
                "type": "header",
                "version": TRACE_VERSION,
                "run_id": run_id,
                "task_id": task_id,
                "config": config,
                "config_hash": config_hash,
                "pricing": pricing,
                "task": task or {},
            }
        )

    def model_call(
        self, request: ModelRequest, response: ModelResponse | None = None, error: str | None = None
    ) -> None:
        event = {
            "type": "model_call",
            "purpose": request.purpose.value,
            "temperature": request.temperature,
        }
        if response is None:
            event.update(model_id=request.model_id, error=error)
        else:
            event.update(
                model_id=response.model_id,
                response=response.text,
                prompt_tokens=response.usage.prompt_tokens,
                completion_tokens=response.usage.completion_tokens,
                estimated=response.usage.estimated,
            )
        self._events.append(event)

    def tool_call(self, tool: str, args: dict, result=None, error: str | None = None) -> None:
        outcome = {"result": result} if error is None else {"error": error}
        self._events.append({"type": "tool_call", "tool": tool, "args": args, **outcome})

    def embed(self, text: str, vector: np.ndarray) -> None:
        self._events.append(
            {
                "type": "embed",
                "text_sha256": text_digest(text),
                "vector": [float(x) for x in vector],
            }
        )

    def result(self, payload: dict) -> None:
        self._events.append({"type": "result", **payload})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = b"".join(map(_dump_line, self._events))
        with open(self.path, "wb") as f:
            # mtime=0 keeps the gzip container byte-stable across runs; GzipFile
            # rather than gzip.compress, whose header varies with the Python version
            with gzip.GzipFile(
                filename="", mode="wb", fileobj=f, compresslevel=GZIP_LEVEL, mtime=0
            ) as gz:
                gz.write(data)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass(frozen=True)
class TraceData:
    header: dict
    events: tuple[dict, ...]

    @property
    def result(self) -> dict | None:
        for event in reversed(self.events):
            if event["type"] == "result":
                return event
        return None


class TraceFormatError(ValueError):
    pass


def read_trace(path: str | Path) -> TraceData:
    try:
        raw = gzip.decompress(Path(path).read_bytes())
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceFormatError(f"{path}: not a complete gzip trace ({exc})") from None
    lines = []
    # line by line from one buffer: a list of every line at once costs
    # memory and step time in the replay that follows
    for lineno, line in enumerate(io.BytesIO(raw), 1):
        if line.isspace():
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise TraceFormatError(f"{path}: line {lineno} is not JSON ({exc})") from None
        if not isinstance(event, dict):
            raise TraceFormatError(f"{path}: line {lineno} is not a JSON object")
        lines.append(event)
    if not lines or lines[0].get("type") != "header":
        raise TraceFormatError(f"{path}: missing header line")
    header = lines[0]
    if header.get("version") != TRACE_VERSION:
        raise TraceFormatError(f"{path}: unsupported trace version {header.get('version')!r}")
    return TraceData(header=header, events=tuple(lines[1:]))


class ReplayMismatchError(RuntimeError):
    """The live call sequence diverged from the recorded one."""


# what each kind of effect is called in errors, and the field that must match
_EFFECTS = {
    "model_call": ("model call", "purpose"),
    "tool_call": ("tool call", "tool"),
    "embed": ("embedding", "text_sha256"),
}


class ReplaySource(Backend, Embedder):
    """A recorded trace served back as a run's backend and embedder.

    Each call takes the next recorded effect, which must match it in kind
    and purpose, tool or text. Recorded failures are raised again, and a
    run that timed out times out again where its recording ends.
    """

    def __init__(self, data: TraceData):
        self.header = data.header
        self._effects = deque(e for e in data.events if e["type"] in _EFFECTS)
        self._timed_out = (data.result or {}).get("terminated_by") == "timeout"

    def _next(self, kind: str, value: str) -> dict:
        name, key = _EFFECTS[kind]
        asked = f"{name} {key}={value!r}"
        if not self._effects:
            if self._timed_out:
                raise RunTimeoutError(f"the recorded run ran out of time before {asked}")
            raise ReplayMismatchError(f"replay ran out of recorded effects at {asked}")
        event = self._effects.popleft()
        recorded_name, recorded_key = _EFFECTS[event["type"]]
        recorded = f"{recorded_name} {recorded_key}={event[recorded_key]!r}"
        if recorded != asked:
            raise ReplayMismatchError(f"replay expected {recorded}, got {asked}")
        return event

    def complete(self, request: ModelRequest) -> ModelResponse:
        event = self._next("model_call", request.purpose.value)
        if "error" in event:
            raise BackendError(event["error"])
        usage = TokenUsage(event["prompt_tokens"], event["completion_tokens"], event["estimated"])
        return ModelResponse(text=event["response"], usage=usage, model_id=event["model_id"])

    def run_tool(self, tool: str, args: dict, thunk) -> tuple[dict, object]:
        """The recorded ``(args, result)``; the thunk never runs.

        The recorded args come back too because a replaying session lacks
        the live collaborators (e.g. provider names) to rebuild them, and
        a re-recorded trace must match the original byte for byte.
        """
        event = self._next("tool_call", tool)
        if "error" in event:
            raise ToolError(event["error"])
        return event["args"], event["result"]

    def embed(self, text: str) -> np.ndarray:
        event = self._next("embed", text_digest(text))
        return np.asarray(event["vector"], dtype=float)

    def exhausted(self) -> bool:
        return not self._effects


__all__ = [
    "ReplayMismatchError",
    "ReplaySource",
    "TraceData",
    "TraceFormatError",
    "TraceWriter",
    "read_trace",
    "text_digest",
    "trace_filename",
]

"""Run traces: deterministic capture of every external effect, plus replay.

A trace is a gzip-compressed JSONL file holding one header line followed
by one event per model call, tool call, and embedding, and a final result
line. Writing is fully deterministic (sorted keys, compact separators,
gzip mtime pinned to zero) so identical runs produce byte-identical
files. A recorded trace contains everything needed to re-run the task
offline and reproduce the run event for event.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backend import Message, ModelRequest, ModelResponse, TokenUsage

TRACE_VERSION = 1
TRACE_SUFFIX = ".trace"

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

    def model_call(self, request: ModelRequest, response: ModelResponse) -> None:
        self._events.append(
            {
                "type": "model_call",
                "purpose": request.purpose.value,
                "model_id": response.model_id,
                "temperature": request.temperature,
                "response": response.text,
                "prompt_tokens": response.usage.prompt_tokens,
                "completion_tokens": response.usage.completion_tokens,
                "estimated": response.usage.estimated,
            }
        )

    def tool_call(self, tool: str, args: dict, result) -> None:
        self._events.append({"type": "tool_call", "tool": tool, "args": args, "result": result})

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
        with open(self.path, "wb") as f:
            # mtime=0 keeps the gzip container byte-stable across runs
            with gzip.GzipFile(filename="", mode="wb", fileobj=f, mtime=0) as gz:
                for event in self._events:
                    gz.write(_dump_line(event))

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
    with gzip.open(path, "rt", encoding="utf-8") as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines or lines[0].get("type") != "header":
        raise TraceFormatError(f"{path}: missing header line")
    header = lines[0]
    if header.get("version") != TRACE_VERSION:
        raise TraceFormatError(f"{path}: unsupported trace version {header.get('version')!r}")
    return TraceData(header=header, events=tuple(lines[1:]))


class ReplayMismatchError(RuntimeError):
    """The live call sequence diverged from the recorded one."""


class ReplaySource:
    """Typed FIFO queues over a recorded trace's external effects."""

    def __init__(self, data: TraceData):
        self.header = data.header
        self._responses = deque(e for e in data.events if e["type"] == "model_call")
        self._tools = deque(e for e in data.events if e["type"] == "tool_call")
        self._embeds = deque(e for e in data.events if e["type"] == "embed")

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplaySource":
        return cls(read_trace(path))

    def next_response(self, request: ModelRequest) -> ModelResponse:
        if not self._responses:
            raise ReplayMismatchError(
                f"replay ran out of model responses at purpose={request.purpose.value!r}"
            )
        event = self._responses.popleft()
        if event["purpose"] != request.purpose.value:
            raise ReplayMismatchError(
                f"replay expected purpose {event['purpose']!r}, got {request.purpose.value!r}"
            )
        return ModelResponse(
            text=event["response"],
            usage=TokenUsage(
                prompt_tokens=event["prompt_tokens"],
                completion_tokens=event["completion_tokens"],
                estimated=event["estimated"],
            ),
            model_id=event["model_id"],
        )

    def next_tool(self, tool: str) -> tuple[dict, object]:
        """Recorded (args, result) for the next tool call.

        The recorded args come back too because a replaying session lacks
        the live collaborators (e.g. provider names) to rebuild them, and
        a re-recorded trace must match the original byte for byte.
        """
        if not self._tools:
            raise ReplayMismatchError(f"replay ran out of tool results at tool={tool!r}")
        event = self._tools.popleft()
        if event["tool"] != tool:
            raise ReplayMismatchError(f"replay expected tool {event['tool']!r}, got {tool!r}")
        return event["args"], event["result"]

    def next_embed(self, text: str) -> np.ndarray:
        if not self._embeds:
            raise ReplayMismatchError("replay ran out of embeddings")
        event = self._embeds.popleft()
        if event["text_sha256"] != text_digest(text):
            raise ReplayMismatchError("replay embedding text diverged from recording")
        return np.asarray(event["vector"], dtype=float)

    def exhausted(self) -> bool:
        return not (self._responses or self._tools or self._embeds)


__all__ = [
    "Message",
    "ReplayMismatchError",
    "ReplaySource",
    "TraceData",
    "TraceFormatError",
    "TraceWriter",
    "read_trace",
    "text_digest",
    "trace_filename",
]

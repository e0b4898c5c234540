"""Run traces: deterministic capture of every external effect, plus replay.

A trace is a gzip-compressed JSONL file holding one header line, one
effect line per model call, tool call and embedding, with the fields
``_EFFECTS`` lists (a failed call has ``error`` in place of its outcome),
and a final result line. Writing is fully deterministic (sorted keys,
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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .backend import (
    Backend,
    BackendError,
    ModelRequest,
    ModelResponse,
    Purpose,
    RunTimeoutError,
    TokenUsage,
)
from .config import InputError, read_fields, typed_value
from .tools import SearchResult, ToolError

TRACE_VERSION = 1
TRACE_SUFFIX = ".trace"
# compression is most of the cost of writing a trace; levels 6 and 9 take
# about four times as long as level 1 for files about a tenth smaller
GZIP_LEVEL = 1

_PLAIN_ID = re.compile(r"[a-z0-9._-]+")
_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]")


def trace_filename(task_id: str, config_hash: str) -> str:
    """``<task_id>.<config_hash>.trace`` for a task id of only ``[a-z0-9._-]``.
    Any other id is sanitized and followed by ``~`` and a digest of the id, so
    distinct ids give names that differ even where file names ignore case."""
    name = _UNSAFE_FILENAME.sub("_", task_id)
    if not _PLAIN_ID.fullmatch(task_id):
        name += "~" + text_digest(task_id)[:16]
    return f"{name}.{config_hash}{TRACE_SUFFIX}"


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

    def header(self, fields: dict) -> None:
        """The first line: ``fields`` with the line type and trace version."""
        self._events.append({"type": "header", "version": TRACE_VERSION, **fields})

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
            event.update(model_id=response.model_id, response=response.text, **vars(response.usage))
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


@dataclass(frozen=True)
class TraceData:
    path: str | Path
    header: dict
    events: tuple[dict, ...]  # the checked effect records, in order, each with its type
    result: dict | None  # None when the recording ended early


class TraceFormatError(InputError, ValueError):
    pass


_USAGE = get_type_hints(TokenUsage)  # a model call's token counts
_EMBED = {"text_sha256": str, "vector": list}
# each effect line kind: name in errors, field a replay matches, fields,
# fields if it failed, and the error a replay raises again for a failure
_EFFECTS = {
    "model_call": ("model call", "purpose", {"purpose": Purpose, "response": str, "model_id": str,
                   **_USAGE}, {"purpose": Purpose, "error": str}, BackendError),
    "tool_call": ("tool call", "tool", {"tool": str, "args": dict, "result": list | dict},
                  {"tool": str, "error": str}, ToolError),
    "embed": ("embedding", "text_sha256", _EMBED, _EMBED, None),
}
_PAGE = {"text": str, "truncated": bool}
# what each tool returns: a page, or a list of search result rows
_RESULTS = {"fetch_page": dict, "read_attachment": dict, "search": list}
_ROW = get_type_hints(SearchResult)
_row_values, _ROW_TYPES = itemgetter(*_ROW), list(_ROW.values())
_NUMBERS = {float, int}  # what typed_value reads as a float


def _invalid(where: str, name: str, value) -> TraceFormatError:
    """A refusal in ``read_fields``' wording, for a value it does not read."""
    return TraceFormatError(f"{where}{name} is missing or invalid: {value!r}")


def _check_tool_call(record: dict, where: str) -> None:
    """Refuse a tool call of a tool not in ``_RESULTS``, or whose result is
    not what that tool returns."""
    tool = record["tool"]
    if tool not in _RESULTS:
        raise _invalid(where, "tool", tool)
    if "error" in record:
        return
    result = record["result"]
    if type(result) is not _RESULTS[tool]:
        raise _invalid(where, "result", result)
    if type(result) is dict:
        read_fields(result, _PAGE, TraceFormatError, f"{where}result.")
        return
    try:  # exact types, as typed_value's fast path: a replay reads thousands of rows
        types = list(map(type, chain.from_iterable(map(_row_values, result))))
        if types == _ROW_TYPES * len(result):
            return
    except (KeyError, TypeError):  # a field missing, or a row that is not an object
        pass
    for i, row in enumerate(result):
        if type(row) is not dict:
            raise _invalid(where, f"result[{i}]", row)
        read_fields(row, _ROW, TraceFormatError, f"{where}result[{i}].")


def read_trace(path: str | Path) -> TraceData:
    """The header, effect records and result line of trace ``path``; a line
    out of place or unlike ``_EFFECTS`` raises ``TraceFormatError``."""
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
        lines.append((lineno, event))
    first = lines[0][1] if lines else {}
    if first.get("type") != "header":
        raise TraceFormatError(f"{path}: missing header line")
    try:
        version = typed_value(int, first.get("version"))
    except ValueError as exc:
        raise TraceFormatError(f"{path}: trace version: {exc}") from None
    if version != TRACE_VERSION:
        raise TraceFormatError(f"{path}: unsupported trace version {version!r}")
    effects = lines[1:]
    result = effects.pop()[1] if effects and effects[-1][1].get("type") == "result" else None
    counts = dict.fromkeys(_EFFECTS, 0)
    records = []
    for lineno, event in effects:
        kind = event.get("type")
        if kind not in _EFFECTS:
            raise TraceFormatError(f"{path}: line {lineno} has type {kind!r}; after the header "
                                   "come effect lines, then one result line")
        name, _, fields, failed, _ = _EFFECTS[kind]
        n = counts[kind] = counts[kind] + 1
        where = f"{path}: {name} {n} field "
        record = read_fields(event, failed if "error" in event else fields, TraceFormatError, where)
        record["type"] = kind
        records.append(record)
        if kind == "tool_call":
            _check_tool_call(record, where)
        elif kind == "embed":
            vector = record["vector"]
            if not _NUMBERS.issuperset(map(type, vector)):
                i, x = next((i, x) for i, x in enumerate(vector) if type(x) not in _NUMBERS)
                raise _invalid(where, f"vector[{i}]", x)
        elif "error" not in record:
            try:
                record["usage"] = TokenUsage(*map(record.pop, _USAGE))
            except ValueError:
                raise TraceFormatError(f"{path}: {name} {n} has a negative token count") from None
    return TraceData(path, first, tuple(records), result)


class ReplayMismatchError(InputError, RuntimeError):
    """The live call sequence diverged from the recorded one."""


class ReplaySource(Backend):
    """A recorded trace served back as a run's backend.

    Each call takes the next recorded effect, which must match it in kind
    and purpose, tool or text. Recorded failures are raised again, and a
    run that ``timed_out`` times out again where its recording ends.
    """

    def __init__(self, data: TraceData, timed_out: bool = False):
        self._path = data.path
        self._effects = deque(data.events)
        self._timed_out = timed_out

    def _next(self, kind: str, value) -> dict:
        record = self._effects.popleft() if self._effects else {"type": None}
        recorded = record["type"]
        name, key, _, _, error = _EFFECTS[kind]
        if recorded == kind and record[key] == value:
            if "error" in record:
                raise error(record["error"])
            return record
        asked = f"{name} {key}={getattr(value, 'value', value)!r}"  # a Purpose by its value
        if recorded is None:
            if self._timed_out:
                raise RunTimeoutError(f"the recorded run ran out of time before {asked}")
            raise ReplayMismatchError(f"{self._path}: replay ran out of recorded effects at {asked}")
        name, key, *_ = _EFFECTS[recorded]
        recorded = f"{name} {key}={getattr(record[key], 'value', record[key])!r}"
        raise ReplayMismatchError(f"{self._path}: replay expected {recorded}, got {asked}")

    def complete(self, request: ModelRequest) -> ModelResponse:
        record = self._next("model_call", request.purpose)
        return ModelResponse(record["response"], record["usage"], record["model_id"])

    def run_tool(self, tool: str, args: dict, thunk) -> tuple[dict, object]:
        """The recorded ``(args, result)``; the thunk never runs.

        The recorded args come back too because a replaying session lacks
        the live collaborators (e.g. provider names) to rebuild them, and
        a re-recorded trace must match the original byte for byte.
        """
        record = self._next("tool_call", tool)
        return record["args"], record["result"]

    def embed(self, text: str) -> np.ndarray:
        return np.asarray(self._next("embed", text_digest(text))["vector"], dtype=float)

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

"""Run traces: deterministic capture of every external effect, plus replay.

A trace is a JSONL file in a gzip container, holding one header line, one
effect line per model call, tool call and embedding, with the fields
``_EFFECTS`` lists (a failed call has ``error`` in place of its outcome),
and a final result line. Writing is fully deterministic (sorted keys,
compact separators, gzip mtime pinned to zero) so identical runs produce
byte-identical files. A recorded trace contains everything needed to
re-run the task offline and reproduce the run event for event.

Version 2 writes a page that the trace already holds as ``{"same_as": n}``,
a reference to tool call n, and has a line for a failed embedding.
Traces are written in ``TRACE_VERSION`` alone: version 1 traces still
read, and a replay of one re-records it in the current version.

Each trace is written once, when it closes, as one gzip member at level
0: stored deflate blocks, not compressed, since compression was the
largest cost of closing a trace. A trace is about four times the size it
would be at level 1, but the gzip CRC-32 and length still refuse a cut
or damaged trace, and ``zcat`` still reads it. The reader takes a trace
at any gzip level: traces written by earlier versions at levels 9 and 1
hold the same records, so they replay to the same outcome, and
re-recording one gives the same records in level-0 bytes.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import re
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Sequence, get_type_hints

from .backend import (
    Backend,
    BackendError,
    ModelRequest,
    ModelResponse,
    Purpose,
    RunTimeoutError,
    TokenUsage,
    unit_vector_dim,
)
from .config import InputError, json_value, read_fields, refused, typed_value
from .tools import PAGE_TEXTS, SearchResult, ToolError

TRACE_VERSION = 2
TRACE_SUFFIX = ".trace"
# stored, not compressed: level 1 took nearly half a close's time for files
# a quarter the size; the container keeps its CRC, so damage is still refused
GZIP_LEVEL = 0
# one encoder for every line: json.dumps with these options builds a new one a call
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_PLAIN_ID = re.compile(r"[a-z0-9._-]+")
_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]")
FILENAME_MAX_BYTES = 255  # the longest file name common file systems take


def trace_filename(task_id: str, config_hash: str) -> str:
    """``<task_id>.<config_hash>.trace`` for a task id of only ``[a-z0-9._-]``
    whose name fits in ``FILENAME_MAX_BYTES``. Any other id is sanitized, cut
    to what fits, and followed by ``~`` and a digest of the id, so distinct
    ids give names that differ even where file names ignore case."""
    name = _UNSAFE_FILENAME.sub("_", task_id)  # ASCII, so a byte a character
    tail = f".{config_hash}{TRACE_SUFFIX}"
    if _PLAIN_ID.fullmatch(task_id) and len(name) + len(tail) <= FILENAME_MAX_BYTES:
        return name + tail
    digest = "~" + text_digest(task_id)[:16]
    return name[: FILENAME_MAX_BYTES - len(tail) - len(digest)] + digest + tail


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TraceWriter:
    """Accumulates events and writes one deterministic trace file on close."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._events: list[dict | tuple[dict, str]] = []  # a page event with its text's JSON
        self._tool_calls = 0
        self._pages: dict[tuple[str, bool], int] = {}  # the first tool call to return each page
        self._closed = False
        # made now, so a directory that cannot be made stops a run before its first call
        self.path.parent.mkdir(parents=True, exist_ok=True)

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
        self._tool_calls += 1
        event = {"type": "tool_call", "tool": tool, "args": args}
        text_json = None
        if error is not None:
            event["error"] = error
        elif tool != "fetch_page":
            event["result"] = result
        else:
            # a live page text is the str PAGE_TEXTS holds, so its hash is computed once
            first = self._pages.setdefault((result["text"], result["truncated"]), self._tool_calls)
            if first != self._tool_calls:
                event["result"] = {"same_as": first}
            else:
                event["result"] = result
                # a held page's text is encoded once per process, and close splices it in
                text_json = PAGE_TEXTS.text_json(result["text"], _LINE_ENCODER.encode)
        self._events.append(event if text_json is None else (event, text_json))

    def embed(
        self, text: str, vector: Sequence[float] | None = None, error: str | None = None
    ) -> None:
        outcome = {"vector": [float(x) for x in vector]} if error is None else {"error": error}
        self._events.append({"type": "embed", "text_sha256": text_digest(text), **outcome})

    def result(self, payload: dict) -> None:
        self._events.append({"type": "result", **payload})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        data = "".join([
            (_LINE_ENCODER.encode(e) if type(e) is dict else _page_line(*e)) + "\n"
            for e in self._events
        ]).encode()
        # written under a name that is not a trace's, then renamed onto the
        # path, so a trace file is whole or absent even if the writer dies
        part = self.path.with_name(f".{os.getpid()}-{threading.get_ident()}.part")
        try:
            # mtime=0 keeps the gzip container byte-stable across runs; GzipFile
            # rather than gzip.compress, whose header varies with the Python version
            with open(part, "wb") as f, gzip.GzipFile(
                filename="", mode="wb", fileobj=f, compresslevel=GZIP_LEVEL, mtime=0
            ) as gz:
                gz.write(data)
            # a rename over an existing file makes ext4 start writing the new
            # one out at once, a fifth of a close's time; so the old goes first
            self.path.unlink(missing_ok=True)
            os.replace(part, self.path)
        except BaseException:
            part.unlink(missing_ok=True)
            raise


def _page_line(event: dict, text_json: str) -> str:
    """``_LINE_ENCODER.encode(event)`` for a ``fetch_page`` call whose page
    text encodes to ``text_json``. The line is encoded with an empty text,
    whose ``"text":""`` is the last in it: keys are sorted, and after the
    result come only the tool's name and the line type."""
    page = {**event["result"], "text": ""}
    head, tail = _LINE_ENCODER.encode({**event, "result": page}).rsplit('"text":""', 1)
    return f'{head}"text":{text_json}{tail}'


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
_EFFECTS_V1 = {
    "model_call": ("model call", "purpose", {"purpose": Purpose, "response": str, "model_id": str,
                   **_USAGE}, {"purpose": Purpose, "error": str}, BackendError),
    "tool_call": ("tool call", "tool", {"tool": str, "args": dict, "result": list | dict},
                  {"tool": str, "args": dict, "error": str}, ToolError),
    "embed": ("embedding", "text_sha256", _EMBED, _EMBED, None),
}
# v2 records an embedding the session refused, and a replay refuses it again
_EFFECTS = {**_EFFECTS_V1, "embed": ("embedding", "text_sha256", _EMBED,
                                     {"text_sha256": str, "error": str}, ValueError)}
_PAGE = {"text": str, "truncated": bool}
_SAME_AS = {"same_as": int}  # the number of the tool call that returned the page
# what each tool returns: a page, or a list of search result rows; in v2 a
# fetched page may also be a reference to an earlier fetch_page call's page
_RESULTS_V1 = {"fetch_page": (_PAGE,), "read_attachment": (_PAGE,), "search": list}
_RESULTS = {**_RESULTS_V1, "fetch_page": (_PAGE, _SAME_AS)}
_TABLES = {1: (_EFFECTS_V1, _RESULTS_V1), 2: (_EFFECTS, _RESULTS)}  # by trace version
_ROW = get_type_hints(SearchResult)
_row_values, _ROW_TYPES = itemgetter(*_ROW), list(_ROW.values())
_NUMBERS = {float, int}  # what typed_value reads as a float


def _invalid(where: str, name: str, value) -> TraceFormatError:
    """A refusal in ``read_fields``' wording, for a value it does not read."""
    return TraceFormatError(f"{where}{name} is missing or invalid: {value!r}")


def _check_tool_call(record: dict, where: str, results: dict, earlier: list[dict]) -> None:
    """Refuse a tool call of a tool not in ``results``, or whose result is
    not what that tool returns. A reference to a page is replaced by that
    page, which must be the result of one of the ``earlier`` tool calls."""
    tool = record["tool"]
    if tool not in results:
        raise _invalid(where, "tool", tool)
    if "error" in record:
        return
    result, shapes = record["result"], results[tool]
    if type(result) is not (list if shapes is list else dict):
        raise _invalid(where, "result", result)
    if shapes is not list:
        if "same_as" in result and _SAME_AS in shapes:
            n = read_fields(result, _SAME_AS, TraceFormatError, f"{where}result.")["same_as"]
            first = earlier[n - 1] if 0 < n <= len(earlier) else {"tool": None}
            if first["tool"] != "fetch_page" or "error" in first:
                raise _invalid(where, "result.same_as", n)
            record["result"] = first["result"]
        else:
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
        event = json_value(line, TraceFormatError, f"{path}: line {lineno} is not JSON: ")
        if not isinstance(event, dict):
            raise TraceFormatError(f"{path}: line {lineno} is not a JSON object")
        lines.append((lineno, event))
    first = lines[0][1] if lines else {}
    if first.get("type") != "header":
        raise TraceFormatError(f"{path}: missing header line")
    version = refused(TraceFormatError, f"{path}: trace version: ", typed_value, int,
                      first.get("version"))
    if version not in _TABLES:
        raise TraceFormatError(f"{path}: unsupported trace version {version!r}")
    kinds, results = _TABLES[version]
    effects = lines[1:]
    result = effects.pop()[1] if effects and effects[-1][1].get("type") == "result" else None
    counts = dict.fromkeys(kinds, 0)
    records = []
    tool_calls = []
    dim = None  # the length of the first vector
    for lineno, event in effects:
        kind = event.get("type")
        if kind not in kinds:
            raise TraceFormatError(f"{path}: line {lineno} has type {kind!r}; after the header "
                                   "come effect lines, then one result line")
        name, _, fields, failed, _ = kinds[kind]
        n = counts[kind] = counts[kind] + 1
        where = f"{path}: {name} {n} field "
        record = read_fields(event, failed if "error" in event else fields, TraceFormatError, where)
        record["type"] = kind
        records.append(record)
        if kind == "tool_call":
            _check_tool_call(record, where, results, tool_calls)
            tool_calls.append(record)
        elif "error" in record:  # a failure holds no outcome to check
            pass
        elif kind == "embed":
            vector = record["vector"]
            if not _NUMBERS.issuperset(map(type, vector)):
                i, x = next((i, x) for i, x in enumerate(vector) if type(x) not in _NUMBERS)
                raise _invalid(where, f"vector[{i}]", x)
            # what a run's session would not have recorded
            dim = refused(TraceFormatError, where, unit_vector_dim, vector, dim)
        else:
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
    and purpose, tool or text, and a tool call in its args too. Recorded
    failures are raised again, and a run that ``timed_out`` times out
    again where its recording ends. A tool call gets only its recorded
    result back; the thunk never runs.
    """

    def __init__(self, data: TraceData, timed_out: bool = False):
        self._path = data.path
        self._effects = deque(data.events)
        self._timed_out = timed_out

    def _next(self, kind: str, value, args: dict | None = None) -> dict:
        record = self._effects.popleft() if self._effects else {"type": None}
        recorded = record["type"]
        name, key, _, _, error = _EFFECTS[kind]
        if recorded == kind and record[key] == value:
            if args is not None and record["args"] != args:
                raise ReplayMismatchError(f"{self._path}: replay expected {name} {key}={value!r} "
                                          f"with args {record['args']!r}, got args {args!r}")
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

    def run_tool(self, tool: str, args: dict, thunk) -> object:
        return self._next("tool_call", tool, args)["result"]

    def embed(self, text: str) -> tuple[float, ...]:
        return tuple(map(float, self._next("embed", text_digest(text))["vector"]))

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

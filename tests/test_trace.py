import gzip
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentmeter.backend import (
    BackendError,
    Message,
    ModelRequest,
    ModelResponse,
    Purpose,
    RunTimeoutError,
    TokenUsage,
)
from agentmeter.tools import ToolError
from agentmeter.trace import (
    ReplayMismatchError,
    ReplaySource,
    TraceFormatError,
    TraceWriter,
    read_trace,
    text_digest,
    trace_filename,
)

from conftest import trace_lines, write_trace_lines


def sample_request(purpose=Purpose.ACTOR):
    return ModelRequest(
        model_id="gpt-4.1",
        messages=(Message("user", "q"),),
        purpose=purpose,
        temperature=0.7,
    )


def sample_response(text="out"):
    return ModelResponse(text=text, usage=TokenUsage(10, 2), model_id="gpt-4.1", latency_ms=123)


# one search result row, as a live search records it
ROW = {"title": "X", "url": "https://x", "snippet": "about x", "provider": "google", "rank": 1}


def write_sample(path):
    w = TraceWriter(path)
    w.header(
        {
            "run_id": "r",
            "task_id": "t",
            "config": {"max_steps": 3},
            "config_hash": "abcd1234",
            "pricing": {"models": {}},
            "task": {"level": 1},
        }
    )
    w.model_call(sample_request(), sample_response())
    w.tool_call("search", {"queries": ["a"]}, [ROW])
    w.embed("hello", np.array([0.6, 0.8]))
    w.result({"solved": True})
    w.close()
    return path


def test_trace_filename_sanitizes():
    digest = text_digest("task/1:X")[:16]
    assert trace_filename("task/1:X", "deadbeef") == f"task_1_X~{digest}.deadbeef.trace"
    assert trace_filename("ok-id_2.a", "ff") == "ok-id_2.a.ff.trace"


def test_a_trace_name_too_long_for_a_file_name_is_cut_before_its_digest():
    for task_id in ("e" * 300, "E/" * 150, "x" * 241):
        name = trace_filename(task_id, "deadbeef")
        assert len(name) == 255
        assert name.endswith(f"~{text_digest(task_id)[:16]}.deadbeef.trace")
    assert trace_filename("x" * 240, "deadbeef") == "x" * 240 + ".deadbeef.trace"  # fits


@st.composite
def task_id_pairs(draw):
    """Two task ids, the second often the first in another case or sanitized."""
    ids = st.text(st.sampled_from("aAz0._-/:~ é"), max_size=6) | st.text()
    a = draw(ids)
    variants = [a.swapcase(), a.lower(), a.upper(), re.sub(r"[^A-Za-z0-9._-]", "_", a)]
    return a, draw(st.sampled_from(variants) | ids)


@given(task_id_pairs())
def test_distinct_task_ids_give_trace_names_distinct_ignoring_case(pair):
    a, b = pair
    names = [trace_filename(task_id, "deadbeef") for task_id in pair]
    assert (names[0].lower() == names[1].lower()) == (a == b)
    for task_id, name in zip((a, b), names):
        if re.fullmatch(r"[a-z0-9._-]+", task_id):  # a plain id keeps its name
            assert name == f"{task_id}.deadbeef.trace"


def test_round_trip(tmp_path):
    path = write_sample(tmp_path / "t.trace")
    data = read_trace(path)
    assert data.header["run_id"] == "r"
    assert data.header["task"] == {"level": 1}
    kinds = [e["type"] for e in data.events]
    assert kinds == ["model_call", "tool_call", "embed"]
    assert data.result["solved"] is True


def test_writes_are_byte_identical(tmp_path):
    a = write_sample(tmp_path / "a.trace").read_bytes()
    b = write_sample(tmp_path / "b.trace").read_bytes()
    assert a == b


def test_lines_are_compact_sorted_json(tmp_path):
    path = write_sample(tmp_path / "t.trace")
    with gzip.open(path, "rt", encoding="utf-8") as f:
        first = f.readline().rstrip("\n")
    assert first == json.dumps(json.loads(first), sort_keys=True, separators=(",", ":"))


def test_latency_is_not_recorded(tmp_path):
    # wall-clock noise would break byte-identical replay
    line = trace_lines(write_sample(tmp_path / "t.trace"))[1]
    assert line["type"] == "model_call" and "latency" not in json.dumps(line)


def test_a_trace_whose_write_fails_leaves_no_file(tmp_path, monkeypatch):
    # a trace is written under another name and renamed onto its path, so a
    # write cut short leaves neither a partial trace nor the file it was in
    write_sample(tmp_path / "good.trace")

    def fail(self, data):
        raise OSError("no space left")

    monkeypatch.setattr(gzip.GzipFile, "write", fail)
    w = TraceWriter(tmp_path / "cut.trace")
    w.header({"run_id": "r"})
    with pytest.raises(OSError, match="no space left"):
        w.close()
    assert [p.name for p in tmp_path.iterdir()] == ["good.trace"]


def test_close_is_idempotent(tmp_path):
    w = TraceWriter(tmp_path / "t.trace")
    w.header({"run_id": "r"})
    w.close()
    w.close()
    assert read_trace(tmp_path / "t.trace").events == ()


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.trace"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write('{"type":"model_call"}\n')
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(path)


def test_read_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.trace"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write('{"type":"header","version":99}\n')
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(path)


@pytest.mark.parametrize("version", [0, 3])
def test_read_accepts_versions_1_and_2_only(tmp_path, version):
    path = tmp_path / "bad.trace"
    path.write_bytes(gzip.compress(b'{"type":"header","version":%d}\n' % version))
    with pytest.raises(TraceFormatError, match=f"unsupported trace version {version}$"):
        read_trace(path)


def test_v2_records_a_repeated_page_as_a_reference_to_its_first_copy(tmp_path):
    # one page's text opened under several URLs, and read as an attachment
    page, cut = {"text": "p", "truncated": False}, {"text": "p", "truncated": True}
    calls = [("fetch_page", {"url": "a"}, page), ("read_attachment", {"name": "n"}, page),
             ("fetch_page", {"url": "b"}, None), ("fetch_page", {"url": "c"}, cut),
             ("fetch_page", {"url": "d"}, page), ("fetch_page", {"url": "c"}, cut)]
    w = TraceWriter(tmp_path / "v2.trace")
    w.header({"run_id": "r"})
    for tool, args, result in calls:
        w.tool_call(tool, args, result, error="gone" if result is None else None)
    w.close()
    v2 = trace_lines(w.path)
    assert v2[0]["version"] == 2
    assert [line.get("result") for line in v2[1:]] == [
        page, page, None, cut, {"same_as": 1}, {"same_as": 4},
    ]
    # the same calls as v1 wrote them, each page in full
    v1 = [{**v2[0], "version": 1}] + [
        {"type": "tool_call", "tool": tool, "args": args,
         **({"error": "gone"} if result is None else {"result": result})}
        for tool, args, result in calls
    ]
    write_trace_lines(tmp_path / "v1.trace", v1)
    # the reader gives the page each reference names, so a replay serves the same
    assert read_trace(w.path).events == read_trace(tmp_path / "v1.trace").events


def gzip_at(level, data):
    """``data`` gzipped through TraceWriter's container at ``level``."""
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, compresslevel=level, mtime=0) as gz:
        gz.write(data)
    return buf.getvalue()


def test_trace_is_compressed_at_level_1(tmp_path):
    raw = write_sample(tmp_path / "t.trace").read_bytes()
    assert raw[8] == 4  # gzip XFL byte: 4 = fastest, 2 = best (level 9)
    assert raw == gzip_at(1, gzip.decompress(raw))
    assert raw != gzip_at(9, gzip.decompress(raw))


def test_read_rejects_truncated_trace(tmp_path):
    path = write_sample(tmp_path / "t.trace")
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(TraceFormatError, match="t.trace: not a complete gzip trace"):
        read_trace(path)


def test_read_rejects_file_that_is_not_gzip(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text('{"type":"header","version":1}\n', encoding="utf-8")
    with pytest.raises(TraceFormatError, match="t.trace: not a complete gzip trace"):
        read_trace(path)


@pytest.mark.parametrize("line", [
    b"{not json", b"\xff\xfe{}", b"[1, 2]",
    # past the recursion limit, and past int's 4,300-digit limit
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested_too_deep"),
    pytest.param(b'{"n": ' + b"1" * 5_000 + b"}", id="integer_too_long"),
])
def test_read_rejects_line_that_is_not_a_json_object(tmp_path, line):
    path = tmp_path / "t.trace"
    path.write_bytes(gzip.compress(b'{"type":"header","version":1}\n' + line + b"\n"))
    with pytest.raises(TraceFormatError, match="t.trace: line 2 is not"):
        read_trace(path)


LAYOUT = "after the header come effect lines, then one result line"
# edits of the sample trace's lines that a replay could not serve, and what the error says
BAD_LINES = {
    "result_mid_trace": (
        lambda lines: lines.insert(2, lines[-1]), f"line 3 has type 'result'; {LAYOUT}",
    ),
    "line_without_type": (lambda lines: lines[2].pop("type"), f"line 3 has type None; {LAYOUT}"),
    "embedding_vector_text": (
        lambda lines: lines[3].update(vector="0.6,0.8"),
        "embedding 1 field vector is missing or invalid: '0.6,0.8'",
    ),
    # vectors no Backend.embed returns: a replay would fail on them mid-run
    "embedding_vector_not_unit": (
        lambda lines: lines[3].update(vector=[1.2, 1.6]),
        "embedding 1 field vector has norm 2.0, not 1 within 1e-06",
    ),
    "embedding_vector_zero": (
        lambda lines: lines[3].update(vector=[0, 0.0]),
        "embedding 1 field vector has norm 0.0, not 1 within 1e-06",
    ),
    "embedding_vector_empty": (
        lambda lines: lines[3].update(vector=[]),
        "embedding 1 field vector has norm 0.0, not 1 within 1e-06",
    ),
    "embedding_vector_nan": (
        lambda lines: lines[3].update(vector=[float("nan"), 1.0]),
        "embedding 1 field vector has norm nan, not 1 within 1e-06",
    ),
    "embedding_vector_integer_too_large_for_a_float": (
        lambda lines: lines[3].update(vector=[10**400]),
        "embedding 1 field vector has norm inf, not 1 within 1e-06",
    ),
    "embedding_vector_of_another_dimension": (
        lambda lines: lines.insert(4, {**lines[3], "vector": [0.0, 0.6, 0.8]}),
        "embedding 2 field vector has 3 components, not 2",
    ),
    "failed_call_error_null": (
        lambda lines: lines[1].update(error=None),
        "model call 1 field error is missing or invalid: None",
    ),
    "failed_embedding_error_null": (
        lambda lines: lines[3].update(vector=None, error=None),
        "embedding 1 field error is missing or invalid: None",
    ),
    # version 1 has no failed embedding line: a vector is required
    "failed_embedding_in_v1": (
        lambda lines: lines[3].update(vector=None, error="vector has norm 2.0")
        or lines[0].update(version=1),
        "embedding 1 field vector is missing or invalid: None",
    ),
    # a replay checks a failed call's args as it does a succeeding one's
    "failed_tool_call_without_args": (
        lambda lines: lines[2].update(error="no page", args=None),
        "tool call 1 field args is missing or invalid: None",
    ),
}


@pytest.mark.parametrize("case", list(BAD_LINES))
def test_read_refuses_a_line_a_replay_cannot_serve(tmp_path, case):
    edit, message = BAD_LINES[case]
    path = write_sample(tmp_path / "t.trace")
    lines = trace_lines(path)
    edit(lines)
    write_trace_lines(path, lines)
    with pytest.raises(TraceFormatError) as info:
        read_trace(path)
    assert str(info.value) == f"{path}: {message}"


# -- replay ------------------------------------------------------------------


def test_replay_serves_in_order(tmp_path):
    source = ReplaySource(read_trace(write_sample(tmp_path / "t.trace")))
    resp = source.complete(sample_request())
    assert resp.text == "out"
    assert resp.usage.prompt_tokens == 10
    assert source.run_tool("search", {"queries": ["a"]}, None) == [ROW]
    vec = source.embed("hello")
    assert list(vec) == [0.6, 0.8]
    assert source.exhausted()


def test_replay_purpose_mismatch(tmp_path):
    source = ReplaySource(read_trace(write_sample(tmp_path / "t.trace")))
    with pytest.raises(ReplayMismatchError, match="purpose"):
        source.complete(sample_request(purpose=Purpose.PLANNER))


def test_replay_tool_mismatch(tmp_path):
    source = ReplaySource(read_trace(write_sample(tmp_path / "t.trace")))
    source.complete(sample_request())
    with pytest.raises(ReplayMismatchError, match="tool"):
        source.run_tool("fetch_page", {}, None)


def test_replay_embed_text_mismatch(tmp_path):
    source = ReplaySource(read_trace(write_sample(tmp_path / "t.trace")))
    source.complete(sample_request())
    source.run_tool("search", {"queries": ["a"]}, None)
    with pytest.raises(ReplayMismatchError, match="embedding"):
        source.embed("different text")


def test_replay_exhaustion(tmp_path):
    source = ReplaySource(read_trace(write_sample(tmp_path / "t.trace")))
    source.complete(sample_request())
    source.run_tool("search", {"queries": ["a"]}, None)
    source.embed("hello")
    with pytest.raises(ReplayMismatchError, match="ran out"):
        source.complete(sample_request())


def test_replay_out_of_order_effect_fails(tmp_path):
    # one queue: the recorded model call comes before the tool call
    source = ReplaySource(read_trace(write_sample(tmp_path / "t.trace")))
    with pytest.raises(ReplayMismatchError, match="expected model call"):
        source.run_tool("search", {}, None)


def test_replay_raises_recorded_failures_then_times_out(tmp_path):
    w = TraceWriter(tmp_path / "t.trace")
    w.header({"run_id": "r"})
    w.model_call(sample_request(), error="HTTP 503")
    w.tool_call("fetch_page", {"url": "https://x"}, error="no page")
    w.result({"terminated_by": "timeout"})
    w.close()
    source = ReplaySource(read_trace(tmp_path / "t.trace"), timed_out=True)
    with pytest.raises(BackendError, match="HTTP 503"):
        source.complete(sample_request())
    with pytest.raises(ToolError, match="no page"):
        source.run_tool("fetch_page", {"url": "https://x"}, None)
    with pytest.raises(RunTimeoutError):
        source.complete(sample_request())


def test_text_digest_is_sha256():
    import hashlib

    assert text_digest("abc") == hashlib.sha256(b"abc").hexdigest()

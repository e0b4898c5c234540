import numpy as np
import pytest

from agentmeter.backend import BackendError, Message, Purpose, ScriptEntry, ScriptedBackend
from agentmeter.session import RunSession, RunTimeoutError
from agentmeter.trace import ReplaySource, TraceWriter, read_trace

from conftest import make_session


def actor_backend(text="ok"):
    return ScriptedBackend(
        [ScriptEntry(Purpose.ACTOR, text, times=0, prompt_tokens=100, completion_tokens=10)]
    )


MSGS = (Message("user", "hi"),)


def test_call_model_records_cost_and_step(pricing):
    session = make_session(actor_backend(), pricing)
    session.set_step(4)
    out = session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    assert out.text == "ok"
    entry = session.ledger.entries[0]
    assert entry.step_index == 4
    assert entry.purpose is Purpose.ACTOR
    assert entry.cost_pico > 0


def test_backend_failure_lands_in_ledger_then_raises(pricing):
    session = make_session(ScriptedBackend([]), pricing)  # empty script always fails
    with pytest.raises(BackendError):
        session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    entry = session.ledger.entries[0]
    assert entry.error is not None
    assert entry.cost_pico == 0


def test_ledger_attributes_requested_model(pricing):
    session = make_session(actor_backend(), pricing)
    session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    assert session.ledger.entries[0].model_id == "gpt-4.1"


def test_call_tool_executes_thunk(pricing):
    session = make_session(actor_backend(), pricing)
    assert session.call_tool("search", {"q": 1}, lambda: ["row"]) == ["row"]


def test_embed_requires_embedder(pricing):
    session = RunSession(
        run_id="r", backend=actor_backend(), embedder=None, pricing=pricing
    )
    with pytest.raises(ValueError, match="embedder"):
        session.embed("text")


def test_timeout_raises_before_external_calls(pricing):
    session = make_session(actor_backend(), pricing, timeout_s=-1.0)
    with pytest.raises(RunTimeoutError):
        session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    with pytest.raises(RunTimeoutError):
        session.call_tool("search", {}, lambda: None)


def test_no_timeout_by_default(pricing):
    session = make_session(actor_backend(), pricing)
    session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)  # should not raise


def test_trace_captures_all_effects(tmp_path, pricing):
    writer = TraceWriter(tmp_path / "t.trace")
    writer.header(run_id="r", task_id="t", config={}, config_hash="x", pricing={})
    session = make_session(actor_backend(), pricing, trace=writer)
    session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    session.call_tool("search", {"q": "x"}, lambda: [])
    session.embed("memory text")
    writer.close()
    kinds = [e["type"] for e in read_trace(tmp_path / "t.trace").events]
    assert kinds == ["model_call", "tool_call", "embed"]


def test_replay_session_needs_no_backend(tmp_path, pricing):
    writer = TraceWriter(tmp_path / "t.trace")
    writer.header(run_id="r", task_id="t", config={}, config_hash="x", pricing={})
    live = make_session(actor_backend(), pricing, trace=writer)
    live.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    live.call_tool("search", {"q": "x"}, lambda: ["live-result"])
    vec_live = live.embed("note")
    writer.close()

    source = ReplaySource(read_trace(tmp_path / "t.trace"))
    replay = RunSession(run_id="r", backend=source, embedder=source, pricing=pricing)
    out = replay.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    assert out.text == "ok"

    def boom():
        raise AssertionError("replay must not execute tool thunks")

    assert replay.call_tool("search", {"q": "x"}, boom) == ["live-result"]
    assert np.allclose(replay.embed("note"), vec_live)
    # replayed costs equal live costs
    assert replay.ledger.total_cost_pico == live.ledger.total_cost_pico

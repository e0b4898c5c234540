import numpy as np
import pytest

from agentmeter.backend import BackendError, Message, Purpose, ScriptEntry, ScriptedBackend
from agentmeter.session import RunSession, RunTimeoutError
from agentmeter.trace import ReplaySource, TraceWriter, read_trace, text_digest

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
    writer.header({"run_id": "r"})
    session = make_session(actor_backend(), pricing, trace=writer)
    session.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    session.call_tool("search", {"q": "x"}, lambda: [])
    session.embed("memory text")
    writer.close()
    kinds = [e["type"] for e in read_trace(tmp_path / "t.trace").events]
    assert kinds == ["model_call", "tool_call", "embed"]


class FixedEmbedder(ScriptedBackend):
    """The vector ``vectors`` gives a text, and the usual one for any other."""

    def __init__(self, vectors):
        super().__init__([])
        self.vectors = vectors

    def embed(self, text):
        return self.vectors.get(text) or super().embed(text)


@pytest.mark.parametrize("vector,message", [
    ((0.0,) * 16, "has norm 0.0, not 1 within"),
    ((1.0,) + (0.0,) * 16, "has 17 components, not 16"),
])
def test_a_vector_a_trace_would_refuse_fails_the_run_before_it_is_recorded(
    tmp_path, pricing, vector, message
):
    writer = TraceWriter(tmp_path / "t.trace")
    writer.header({"run_id": "r"})
    session = make_session(FixedEmbedder({"bad": vector}), pricing, trace=writer)
    session.embed("good")
    with pytest.raises(ValueError, match=message):
        session.embed("bad")
    writer.close()
    # the vector is not recorded; the failure is, and a replay raises it again
    good, bad = read_trace(tmp_path / "t.trace").events
    assert bad == {"type": "embed", "text_sha256": text_digest("bad"), "error": bad["error"]}
    assert message in bad["error"]
    replay = make_session(ReplaySource(read_trace(tmp_path / "t.trace")), pricing)
    assert list(replay.embed("good")) == good["vector"]
    with pytest.raises(ValueError, match=message):
        replay.embed("bad")


def test_replay_session_needs_no_backend(tmp_path, pricing):
    writer = TraceWriter(tmp_path / "t.trace")
    writer.header({"run_id": "r"})
    live = make_session(actor_backend(), pricing, trace=writer)
    live.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    row = {"title": "T", "url": "https://t", "snippet": "s", "provider": "google", "rank": 1}
    live.call_tool("search", {"q": "x"}, lambda: [row])
    vec_live = live.embed("note")
    writer.close()

    source = ReplaySource(read_trace(tmp_path / "t.trace"))
    replay = RunSession(run_id="r", backend=source, pricing=pricing)
    out = replay.call_model(Purpose.ACTOR, "gpt-4.1", MSGS)
    assert out.text == "ok"

    def boom():
        raise AssertionError("replay must not execute tool thunks")

    assert replay.call_tool("search", {"q": "x"}, boom) == [row]
    assert np.allclose(replay.embed("note"), vec_live)
    # replayed costs equal live costs
    assert replay.ledger.total_cost_pico == live.ledger.total_cost_pico

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmeter.actions import Action, ActionName
from agentmeter.agent import Step
from agentmeter.backend import Purpose, ScriptEntry, ScriptedBackend, TokenUsage
from agentmeter.config import MemoryMode, default_config
from agentmeter.memory import (
    LongTermNote,
    RunMemory,
    SummaryEntry,
    VectorStore,
    full_block,
    note_block,
    retrieve_top_k,
    simple_block,
    summary_block,
    summarize_step,
    update_long_term_note,
)

from conftest import make_session


def unit(values):
    v = np.asarray(values, dtype=float)
    return v / np.linalg.norm(v)


def entry(i, vec, text="s"):
    return SummaryEntry(step_index=i, summary_text=text, embedding=unit(vec))


def step(i=0, model_output="I reason about REASONING_SENTINEL here", observation="obs"):
    return Step(
        index=i,
        model_output=model_output,
        action=Action(ActionName.SEARCH, {"query": "q"}),
        observation=observation,
        usage=TokenUsage(1, 1),
    )


# -- retrieval ---------------------------------------------------------------


def test_retrieve_ranks_by_similarity():
    store = VectorStore()
    store.add(entry(0, [1, 0]))
    store.add(entry(1, [0, 1]))
    store.add(entry(2, [1, 1]))
    out = retrieve_top_k(store, unit([1, 0.1]), k=2)
    assert [e.step_index for e in out] == [0, 2]


def test_retrieve_breaks_ties_by_step_index():
    store = VectorStore()
    store.add(entry(3, [0, 1]))
    store.add(entry(1, [0, 1]))
    store.add(entry(2, [0, 1]))
    out = retrieve_top_k(store, unit([0, 1]), k=3)
    assert [e.step_index for e in out] == [1, 2, 3]


def test_retrieve_edge_cases():
    store = VectorStore()
    assert retrieve_top_k(store, unit([1, 0]), k=3) == []
    store.add(entry(0, [1, 0]))
    assert len(retrieve_top_k(store, unit([1, 0]), k=10)) == 1
    with pytest.raises(ValueError):
        retrieve_top_k(store, unit([1, 0]), k=0)


@settings(max_examples=50)
@given(st.data())
def test_retrieve_matches_exhaustive_scan(data):
    dim = 4
    n = data.draw(st.integers(min_value=1, max_value=12))
    k = data.draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    store = VectorStore()
    vecs = []
    for i in range(n):
        v = rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        vecs.append(v)
        store.add(SummaryEntry(step_index=i, summary_text=f"s{i}", embedding=v))
    q = rng.standard_normal(dim)
    q = q / np.linalg.norm(q)

    expected = sorted(
        range(n), key=lambda i: (-float(np.dot(vecs[i], q) / 1.0), i)
    )[:k]
    got = [e.step_index for e in retrieve_top_k(store, q, k)]
    assert got == expected


# -- note --------------------------------------------------------------------


def test_note_validation_and_fitting():
    with pytest.raises(ValueError):
        LongTermNote("toolong", max_chars=3)
    with pytest.raises(ValueError):
        LongTermNote("", max_chars=0)
    fitted = LongTermNote.fitted("abcdef", max_chars=4)
    assert fitted.text == "abcd"


# -- rendering ---------------------------------------------------------------


def test_simple_block_hides_model_output():
    s = step()
    assert "REASONING_SENTINEL" not in simple_block(s)
    assert "search(query=q)" in simple_block(s)
    assert "REASONING_SENTINEL" in full_block(s)


def rendering_memory(mode, pricing, bon_n=1, answer="text"):
    """A RunMemory whose memory calls answer ``answer`` and whose embeddings are all
    one vector, so every summary ties and k=1 retrieves the earliest."""
    session = make_session(memory_backend(answer), pricing)
    session.embed = lambda text: unit([1, 0])
    return run_memory(mode, session, k=1, bon_n=bon_n)


def observed(mem, steps):
    for s in steps:
        mem.observe_step(s)
    return mem


def history(mem):
    return "\n\n".join(mem.context_blocks("q"))


def test_context_blocks_simple_vs_no_extra(pricing):
    steps = [step(0), step(1)]
    simple = history(observed(rendering_memory(MemoryMode.SIMPLE, pricing), steps))
    full = history(observed(rendering_memory(MemoryMode.NO_EXTRA, pricing), steps))
    assert simple == "\n\n".join(map(simple_block, steps))
    assert full == "\n\n".join(map(full_block, steps))
    assert "Model output" not in simple and full.count("Model output") == 2


def distinct_steps(count):
    return [step(i, model_output=f"thought {i}", observation=f"obs {i}") for i in range(count)]


@pytest.mark.parametrize("mode", list(MemoryMode), ids=lambda m: m.value)
def test_history_built_step_by_step_equals_the_join_from_scratch(mode, pricing):
    for bon_n in (1, 3):
        mem = rendering_memory(mode, pricing, bon_n=bon_n)
        render = mem.layout.step_block
        steps = distinct_steps(6)
        for n in range(len(steps) + 1):
            seen = steps[:n]
            shown = [render(s) for s in seen] if render else []
            shown += [summary_block(e) for e in mem.store.entries[:1]]
            shown += [note_block(mem.note)] if mem.note.text else []
            assert history(mem) == "\n\n".join(shown)
            if bon_n > 1:
                assert mem.full_history() == "\n\n".join(map(full_block, seen))
            if n < len(steps):
                mem.observe_step(steps[n])


class ModelOutputReads:
    """A step that counts how often its model output is read: once per full block."""

    def __init__(self, step):
        self._step = step
        self.reads = 0

    def __getattr__(self, name):
        return getattr(self._step, name)

    @property
    def model_output(self):
        self.reads += 1
        return self._step.model_output


@pytest.mark.parametrize(
    "mode, reads_by_bon_n",
    [
        (MemoryMode.SIMPLE, {1: 0, 3: 1}),
        (MemoryMode.SUMMARIZED, {1: 1, 3: 2}),  # the summarizer's prompt is one full block
        (MemoryMode.NO_EXTRA, {1: 1, 3: 1}),  # the actor and the judge share one text
    ],
    ids=["simple", "summarized", "no_extra"],
)
def test_only_the_histories_the_run_reads_are_rendered(mode, reads_by_bon_n, pricing):
    for bon_n, reads in reads_by_bon_n.items():
        mem = rendering_memory(mode, pricing, bon_n=bon_n)
        steps = distinct_steps(3)
        for s in steps:
            counted = ModelOutputReads(s)
            mem.observe_step(counted)
            assert counted.reads == reads
        if bon_n > 1:
            assert mem.full_history() == "\n\n".join(map(full_block, steps))


def test_summarized_mode_replaces_history(pricing):
    mem = observed(rendering_memory(MemoryMode.SUMMARIZED, pricing, answer="did a thing"), [step(0)])
    assert mem.context_blocks("q") == ["Summary of step 0:\ndid a thing"]


def test_extra_modes_append_summaries_and_note(pricing):
    mem = observed(rendering_memory(MemoryMode.EXTRA_HYBRID, pricing), [step(1)])
    mem.store.add(entry(0, [1, 0], text="past step"))  # ties with step 1's: retrieved first
    mem.note = LongTermNote("remember the date", max_chars=100)
    blocks = mem.context_blocks("q")
    assert any(b.startswith("Step 1:") for b in blocks)
    assert any("past step" in b for b in blocks)
    assert blocks[-1] == "Long-term memory:\nremember the date"


def test_empty_note_is_omitted(pricing):
    mem = observed(rendering_memory(MemoryMode.EXTRA_FIXED, pricing, answer=""), [step(0)])
    blocks = mem.context_blocks("q")
    assert blocks and not any("Long-term" in b for b in blocks)


# -- model-backed updates ----------------------------------------------------


def memory_backend(text):
    return ScriptedBackend(
        [ScriptEntry(Purpose.MEMORY, text, times=0, prompt_tokens=50, completion_tokens=10)]
    )


def test_summarize_step_uses_model(pricing):
    session = make_session(memory_backend("searched for q; found obs"), pricing)
    assert summarize_step(step(), session, "gpt-4.1") == "searched for q; found obs"
    assert session.ledger.entries[0].purpose is Purpose.MEMORY


def test_summarize_step_fallback_on_empty(pricing):
    session = make_session(memory_backend("   "), pricing)
    out = summarize_step(step(index := 4), session, "gpt-4.1")
    assert out == f"Step {index}: ran search(query=q) (no summary produced)"


def test_note_update_truncates(pricing):
    session = make_session(memory_backend("x" * 300), pricing)
    note = LongTermNote("", max_chars=100)
    updated = update_long_term_note(note, step(), session, "gpt-4.1")
    assert len(updated.text) == 100


def test_note_update_empty_response_keeps_note(pricing):
    session = make_session(memory_backend(""), pricing)
    note = LongTermNote("keep me", max_chars=100)
    assert update_long_term_note(note, step(), session, "gpt-4.1") is note


# -- RunMemory ---------------------------------------------------------------


def run_memory(mode, session, k=3, note_chars=2000, bon_n=1):
    config = replace(default_config(), memory_mode=mode, retrieval_k=k,
                     note_max_chars=note_chars, bon_n=bon_n)
    return RunMemory(config, session)


@pytest.mark.parametrize("mode", [MemoryMode.SIMPLE, MemoryMode.NO_EXTRA])
def test_cheap_modes_never_touch_model_or_embedder(mode, pricing):
    session = make_session(ScriptedBackend([]), pricing)  # any call would raise
    mem = run_memory(mode, session)
    mem.observe_step(step(0))
    blocks = mem.context_blocks("query")
    assert blocks
    assert len(session.ledger.entries) == 0
    assert len(mem.store) == 0


def test_summarized_mode_stores_and_embeds(pricing):
    session = make_session(memory_backend("summary"), pricing)
    mem = run_memory(MemoryMode.SUMMARIZED, session)
    mem.observe_step(step(0))
    assert len(mem.store) == 1
    assert session.ledger.entries_for(Purpose.MEMORY)


def test_fixed_mode_maintains_note_only(pricing):
    session = make_session(memory_backend("note text"), pricing)
    mem = run_memory(MemoryMode.EXTRA_FIXED, session)
    mem.observe_step(step(0))
    assert mem.note.text == "note text"
    assert len(mem.store) == 0


def test_hybrid_mode_does_both(pricing):
    session = make_session(memory_backend("text"), pricing)
    mem = run_memory(MemoryMode.EXTRA_HYBRID, session)
    mem.observe_step(step(0))
    assert len(mem.store) == 1
    assert mem.note.text == "text"
    # one summarize + one note rewrite
    assert len(session.ledger.entries_for(Purpose.MEMORY)) == 2


def test_query_embedded_only_when_store_nonempty(pricing):
    session = make_session(memory_backend("s"), pricing)
    mem = run_memory(MemoryMode.SUMMARIZED, session)
    embeds = []
    original = session.embed
    session.embed = lambda text: embeds.append(text) or original(text)

    mem.context_blocks("first query")  # empty store: no embed call
    assert embeds == []
    mem.observe_step(step(0))
    mem.context_blocks("second query")
    assert "second query" in embeds

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentmeter.agent import (
    CORRECTIVE_OBSERVATION,
    AgentState,
    Plan,
    PlanEmptyError,
    Step,
    TerminatedBy,
    _history_text,
    _judge_history,
    run_task,
    should_replan,
)
from agentmeter.actions import Action, ActionName
from agentmeter.backend import Purpose, ScriptEntry, ScriptedBackend, TokenUsage
from agentmeter.config import MemoryMode, PrmMode, default_config
from agentmeter.memory import RunMemory, full_block, note_block, summary_block

from conftest import actor_entry, make_session, make_toolbox, planner_entry

QUESTION = "What year did the Acme plant open?"


def run(pricing, entries, config=None, attachments=None, timeout_s=None):
    config = config or default_config()
    session = make_session(ScriptedBackend(entries), pricing, timeout_s=timeout_s)
    toolbox = make_toolbox(session, config=config, attachments=attachments)
    record = run_task("t1", QUESTION, config, session, toolbox)
    return record, session


def cfg(**overrides):
    return dataclasses.replace(default_config(), **overrides)


# -- replan schedule ---------------------------------------------------------


def test_should_replan_examples():
    assert should_replan(0, 1) and should_replan(0, 7)
    assert should_replan(3, 1)
    assert not should_replan(5, 4)
    assert should_replan(8, 4)


def test_should_replan_validation():
    with pytest.raises(ValueError):
        should_replan(-1, 1)
    with pytest.raises(ValueError):
        should_replan(0, 0)


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=40))
def test_replan_fires_iff_on_interval_boundary(index, interval):
    assert should_replan(index, interval) == (index % interval == 0)


# -- loop termination --------------------------------------------------------


def test_immediate_final_answer(pricing):
    record, session = run(pricing, [
        planner_entry(),
        actor_entry("I know this.\nACTION: final_answer(answer=1962)", match="Acme"),
    ])
    assert record.terminated_by is TerminatedBy.FINAL_ANSWER
    assert record.final_answer == "1962"
    assert len(record.steps) == 1
    assert record.steps[0].observation == ""  # terminal actions execute nothing
    assert len(record.plans) == 1
    assert len(session.ledger.entries) == 2  # one plan, one act


def test_plan_cadence_follows_interval(pricing):
    config = cfg(max_steps=6, plan_interval=2)
    entries = [
        planner_entry(),
        actor_entry("ACTION: page_down()", match="Acme", times=4),
        actor_entry("ACTION: final_answer(answer=done)", match="Acme"),
    ]
    record, _ = run(pricing, entries, config=config)
    assert [p.created_at_step for p in record.plans] == [0, 2, 4]
    assert len(record.steps) == 5


def test_unparsable_output_consumes_step_with_corrective_observation(pricing):
    record, _ = run(pricing, [
        planner_entry(),
        actor_entry("thinking out loud, no directive", match="Acme"),
        actor_entry("ACTION: final_answer(answer=ok)", match="Acme"),
    ])
    first, second = record.steps
    assert first.action is None
    assert first.observation == CORRECTIVE_OBSERVATION
    assert first.error and "invalid action format" in first.error
    assert second.action is not None
    assert record.final_answer == "ok"


def test_budget_exhaustion_triggers_forced_answer(pricing):
    config = cfg(max_steps=2, plan_interval=1)
    entries = [
        planner_entry(),
        actor_entry("ACTION: page_down()", match="Decide your next action", times=2),
        actor_entry("best guess: 1962", match="budget for this task is exhausted"),
    ]
    record, session = run(pricing, entries, config=config)
    assert record.terminated_by is TerminatedBy.STEP_BUDGET
    assert record.final_answer == "best guess: 1962"
    assert len(record.steps) == 2
    # 2 plans + 2 acts + 1 forced answer
    assert len(session.ledger.entries) == 5


def test_forced_answer_tolerates_directive_reply(pricing):
    config = cfg(max_steps=1)
    entries = [
        planner_entry(),
        actor_entry("ACTION: page_down()", match="Decide your next action"),
        actor_entry("ACTION: final_answer(answer=42)", match="exhausted"),
    ]
    record, _ = run(pricing, entries, config=config)
    assert record.final_answer == "42"


def test_backend_failure_ends_run_as_error(pricing):
    # planner responds once; the actor script has nothing, so step 0 aborts
    record, session = run(pricing, [planner_entry()])
    assert record.terminated_by is TerminatedBy.ERROR
    assert record.final_answer == ""
    assert record.steps == ()
    # the plan call still costs money; the failed call holds a zero-cost slot
    assert len(session.ledger.entries) == 2
    assert session.ledger.total_cost_pico == 600 * 10**6
    (failed,) = session.ledger.entries_for(Purpose.ACTOR)
    assert failed.error is not None and failed.cost_pico == 0


def test_timeout_ends_run_as_timeout(pricing):
    record, _ = run(
        pricing,
        [planner_entry(), actor_entry("ACTION: page_down()", match="Acme", times=0)],
        config=cfg(max_steps=50),
        timeout_s=1e-9,
    )
    assert record.terminated_by is TerminatedBy.TIMEOUT


# -- prompt assembly ---------------------------------------------------------


def test_actor_prompt_lists_attachments(tmp_path, pricing):
    doc = tmp_path / "data.csv"
    doc.write_text("a,b\n", encoding="utf-8")
    entries = [
        planner_entry(),
        actor_entry("ACTION: final_answer(answer=x)", match="Attached files"),
    ]
    record, _ = run(pricing, entries, attachments={"data.csv": str(doc)})
    # the scripted match only fires if the attachment line is present
    assert record.terminated_by is TerminatedBy.FINAL_ANSWER


def test_actor_system_message_comes_first(pricing):
    backend = ScriptedBackend([
        planner_entry(),
        actor_entry("ACTION: final_answer(answer=x)", match="Acme"),
    ])
    session = make_session(backend, pricing)
    toolbox = make_toolbox(session, config=default_config())
    run_task("t1", QUESTION, default_config(), session, toolbox)
    actor_calls = [c for c in backend.calls if c.purpose is Purpose.ACTOR]
    assert actor_calls[0].messages[0].role == "system"
    assert "ACTION:" in actor_calls[0].messages[0].content


def test_retrieval_query_prefers_plan_and_last_observation(pricing):
    session = make_session(ScriptedBackend([]), pricing)
    state = AgentState(
        question=QUESTION,
        config=default_config(),
        session=session,
        toolbox=make_toolbox(session),
        memory=None,
    )
    assert state.retrieval_query() == QUESTION  # nothing else yet
    state.plans.append(Plan(text="1. look it up", created_at_step=0))
    assert state.retrieval_query() == "1. look it up"


@pytest.mark.parametrize("mode", list(MemoryMode), ids=lambda m: m.value)
def test_step_histories_equal_the_join_from_scratch_at_every_step(mode, pricing):
    for bon_n in (1, 3):
        config = cfg(memory_mode=mode, bon_n=bon_n, retrieval_k=1)
        session = make_session(ScriptedBackend([ScriptEntry(
            Purpose.MEMORY, "kept in mind", times=0, prompt_tokens=50, completion_tokens=10)]), pricing)
        session.embed = lambda text: (1.0, 0.0)  # every summary ties: the earliest is retrieved
        memory = RunMemory(config, session)
        state = AgentState(question=QUESTION, config=config, session=session,
                           toolbox=make_toolbox(session), memory=memory)
        render = memory.layout.step_block
        for i in range(5):
            shown = [render(s) for s in state.steps] if render else []
            shown += [summary_block(e) for e in memory.store.entries[:1]]
            shown += [note_block(memory.note)] if memory.note.text else []
            assert _history_text(state) == "\n\n".join(shown)
            if bon_n > 1:
                judged = [f"TaskStep: {QUESTION}"]
                judged += [f"PlanningStep:\n{state.current_plan.text}"] if state.plans else []
                judged += [full_block(s) for s in state.steps]
                assert _judge_history(state) == "\n\n".join(judged)
            state.plans.append(Plan(text=f"{i}. look it up", created_at_step=i))
            step = Step(index=i, model_output=f"thought {i}",
                        action=Action(ActionName.SEARCH, {"query": f"q{i}"}),
                        observation=f"obs {i}", usage=TokenUsage(1, 1))
            state.steps.append(step)
            memory.observe_step(step)


def test_plan_validation():
    with pytest.raises(PlanEmptyError):
        Plan(text="   ", created_at_step=0)
    with pytest.raises(ValueError):
        Plan(text="ok", created_at_step=-1)


# -- best-of-N integration ---------------------------------------------------


def bon_entries(n):
    return [
        planner_entry(),
        actor_entry("ACTION: page_down()", match="Acme", times=n),
        ScriptEntry(Purpose.PRM, '{"analysis": "fine", "score": 5}', times=0,
                    prompt_tokens=400, completion_tokens=60),
        actor_entry("ACTION: final_answer(answer=done)", match="Acme", times=n),
    ]


def test_bon_score_mode_calls_judge_per_candidate(pricing):
    config = cfg(bon_n=3, max_steps=2, prm_mode=PrmMode.SCORE)
    backend = ScriptedBackend(bon_entries(3))
    session = make_session(backend, pricing)
    record = run_task("t1", QUESTION, config, session, make_toolbox(session, config=config))

    assert record.terminated_by is TerminatedBy.FINAL_ANSWER
    actor_calls = [c for c in backend.calls if c.purpose is Purpose.ACTOR]
    prm_calls = [c for c in backend.calls if c.purpose is Purpose.PRM]
    assert len(actor_calls) == 6  # 3 candidates per step, 2 steps
    assert len(prm_calls) == 6
    assert all(c.temperature == config.bon_temperature for c in actor_calls)


def test_bon_list_mode_calls_judge_once_per_step(pricing):
    config = cfg(bon_n=4, max_steps=1, prm_mode=PrmMode.LIST)
    entries = [
        planner_entry(),
        actor_entry("ACTION: final_answer(answer=done)", match="Acme", times=4),
        ScriptEntry(Purpose.PRM, '{"index": 2}', times=0,
                    prompt_tokens=400, completion_tokens=60),
    ]
    backend = ScriptedBackend(entries)
    session = make_session(backend, pricing)
    record = run_task("t1", QUESTION, config, session, make_toolbox(session, config=config))
    assert record.terminated_by is TerminatedBy.FINAL_ANSWER
    assert len([c for c in backend.calls if c.purpose is Purpose.PRM]) == 1


def test_single_sample_skips_judge_and_uses_base_temperature(pricing):
    backend = ScriptedBackend([
        planner_entry(),
        actor_entry("ACTION: final_answer(answer=x)", match="Acme"),
    ])
    session = make_session(backend, pricing)
    run_task("t1", QUESTION, default_config(), session, make_toolbox(session))
    assert not [c for c in backend.calls if c.purpose is Purpose.PRM]
    actor_calls = [c for c in backend.calls if c.purpose is Purpose.ACTOR]
    assert actor_calls[0].temperature == 0.0


# -- memory integration ------------------------------------------------------


def test_summarized_mode_summarizes_each_nonterminal_step(pricing):
    config = cfg(memory_mode=MemoryMode.SUMMARIZED, max_steps=3)
    entries = [
        planner_entry(),
        actor_entry("ACTION: page_down()", match="Acme", times=2),
        actor_entry("ACTION: final_answer(answer=x)", match="Acme"),
        ScriptEntry(Purpose.MEMORY, "did a step", times=0,
                    prompt_tokens=50, completion_tokens=10),
    ]
    record, session = run(pricing, entries, config=config)
    assert record.terminated_by is TerminatedBy.FINAL_ANSWER
    # the terminal step is never summarized
    assert len(session.ledger.entries_for(Purpose.MEMORY)) == 2


def test_simple_mode_makes_no_memory_calls(pricing):
    config = cfg(max_steps=2)
    entries = [
        planner_entry(),
        actor_entry("ACTION: page_down()", match="Acme"),
        actor_entry("ACTION: final_answer(answer=x)", match="Acme"),
    ]
    _, session = run(pricing, entries, config=config)
    assert not session.ledger.entries_for(Purpose.MEMORY)

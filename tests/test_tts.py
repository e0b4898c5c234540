import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmeter.actions import ActionName
from agentmeter.backend import (
    Message,
    Purpose,
    ScriptEntry,
    ScriptedBackend,
    ScriptExhaustedError,
    TokenUsage,
)
from agentmeter.config import PrmMode
from agentmeter.tts import (
    Candidate,
    PrmVerdict,
    choose,
    extract_json_object,
    judge_list,
    judge_score,
    sample_candidates,
    select_best,
)

from conftest import make_session

MESSAGES = (Message("user", "What next?"),)


def actor(response, times=1):
    return ScriptEntry(Purpose.ACTOR, response, times=times,
                       prompt_tokens=300, completion_tokens=30)


def prm(response, times=1):
    return ScriptEntry(Purpose.PRM, response, times=times,
                       prompt_tokens=400, completion_tokens=60)


def candidate(index, score_hint="x"):
    return Candidate(index=index, model_output=f"out {score_hint}",
                     action=None, usage=TokenUsage(1, 1))


# -- json extraction ---------------------------------------------------------


def test_extract_json_variants():
    assert extract_json_object('{"score": 7}') == {"score": 7}
    assert extract_json_object('Sure!\n```json\n{"score": 3}\n```\ndone') == {"score": 3}
    assert extract_json_object('pre {"a": {"b": 1}} post') == {"a": {"b": 1}}
    assert extract_json_object('{"s": "has } brace"}') == {"s": "has } brace"}
    assert extract_json_object("[1, 2]") is None
    assert extract_json_object("no json here") is None
    assert extract_json_object("{broken") is None


def test_extract_json_skips_invalid_then_finds_valid():
    assert extract_json_object('{bad} then {"ok": 1}') == {"ok": 1}
    # a value nested past the recursion limit is skipped like any other
    assert extract_json_object('{"a": ' + "[" * 100_000 + ' then {"ok": 1}') == {"ok": 1}


def test_extract_json_integer_past_digit_limit_is_unparsable():
    # int() refuses more than 4,300 digits; such a reply counts as no JSON
    assert extract_json_object('{"score": ' + "1" * 5000 + "}") is None


def brace_scanner_reference(text):
    """The balanced-brace scanner extract_json_object once used, kept as the oracle."""
    try:
        value = json.loads(text)
        if isinstance(value, dict):
            return value
    except json.JSONDecodeError:
        pass
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        value = json.loads(text[start : i + 1])
                        if isinstance(value, dict):
                            return value
                    except json.JSONDecodeError:
                        pass
                    break
        start = text.find("{", start + 1)
    return None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# fragments that open, close, quote and escape, so most texts are near-JSON
fragments = st.sampled_from(
    ["{", "}", "[", "]", '"', "\\", '\\"', ":", ",", " ", "\n", "1", "-", "a",
     "true", '"k"', '"s": 2', "{}", '{"a": 1}', '{"b": {"c": "}"}}', "\\u00e9"]
)
reply_texts = (
    st.lists(fragments, max_size=24).map("".join)
    | st.tuples(st.text(max_size=12), json_values.map(json.dumps), st.text(max_size=12)).map("".join)
    | st.text(max_size=40)
)


@settings(max_examples=500)
@given(reply_texts)
def test_extract_json_matches_brace_scanner(text):
    assert extract_json_object(text) == brace_scanner_reference(text)


# -- sampling ----------------------------------------------------------------


def test_sample_candidates_makes_n_calls_at_given_temperature(pricing):
    backend = ScriptedBackend([actor("ACTION: final_answer(answer=42)", times=3)])
    session = make_session(backend, pricing)
    out = sample_candidates(MESSAGES, 3, session, "gpt-4.1", temperature=0.7)
    assert [c.index for c in out] == [0, 1, 2]
    assert all(c.action and c.action.name is ActionName.FINAL_ANSWER for c in out)
    assert [req.temperature for req in backend.calls] == [0.7, 0.7, 0.7]
    assert len(session.ledger.entries) == 3


def test_sample_candidates_keeps_unparsable_output(pricing):
    backend = ScriptedBackend([actor("just rambling, no action")])
    session = make_session(backend, pricing)
    (cand,) = sample_candidates(MESSAGES, 1, session, "gpt-4.1", temperature=0.0)
    assert cand.action is None
    assert cand.model_output == "just rambling, no action"
    assert cand.error is None


def test_sample_candidates_records_failures_as_placeholders(pricing):
    # script has one matching entry; the second call finds nothing and errors
    backend = ScriptedBackend([actor("ACTION: search(query=x)", times=1)])
    session = make_session(backend, pricing)
    out = sample_candidates(MESSAGES, 2, session, "gpt-4.1", temperature=0.7)
    assert out[0].error is None
    assert out[1].error is not None
    assert out[1].usage == TokenUsage(0, 0)


def test_sample_candidates_raises_when_all_fail(pricing):
    session = make_session(ScriptedBackend([]), pricing)
    with pytest.raises(ScriptExhaustedError):
        sample_candidates(MESSAGES, 2, session, "gpt-4.1", temperature=0.7)
    with pytest.raises(ValueError):
        sample_candidates(MESSAGES, 0, session, "gpt-4.1", temperature=0.0)


# -- scoring judge -----------------------------------------------------------


def test_judge_score_parses_verdict(pricing):
    session = make_session(
        ScriptedBackend([prm('{"analysis": "solid step", "score": 8}')]), pricing
    )
    verdict = judge_score(candidate(0), "", 1, session, "gpt-4.1")
    assert verdict == PrmVerdict(analysis="solid step", score=8)
    assert len(session.ledger.entries) == 1


def test_judge_score_reasks_once_then_succeeds(pricing):
    session = make_session(
        ScriptedBackend([prm("not json"), prm('{"score": 5.0}')]), pricing
    )
    verdict = judge_score(candidate(0), "", 1, session, "gpt-4.1")
    assert verdict.score == 5  # integral float is accepted
    assert len(session.ledger.entries) == 2


@pytest.mark.parametrize("bad", [
    '{"score": 11}', '{"score": -1}', '{"score": true}',
    '{"score": "7"}', '{"score": 6.5}', '{"analysis": "no score"}', "prose",
    pytest.param('{"score": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested_too_deep"),
])
def test_judge_score_falls_back_to_zero_after_two_bad(pricing, bad):
    session = make_session(ScriptedBackend([prm(bad, times=2)]), pricing)
    verdict = judge_score(candidate(0), "", 1, session, "gpt-4.1")
    assert verdict.score == 0
    assert len(session.ledger.entries) == 2  # exactly one re-ask


def test_verdict_bounds():
    PrmVerdict(analysis="", score=0)
    PrmVerdict(analysis="", score=10)
    with pytest.raises(ValueError):
        PrmVerdict(analysis="", score=11)


# -- list judge --------------------------------------------------------------


def test_judge_list_returns_index(pricing):
    session = make_session(ScriptedBackend([prm('{"index": 1}')]), pricing)
    picked = judge_list([candidate(0), candidate(1)], "", session, "gpt-4.1")
    assert picked == 1


def test_judge_list_rejects_out_of_range_then_falls_back(pricing):
    session = make_session(ScriptedBackend([prm('{"index": 5}', times=2)]), pricing)
    assert judge_list([candidate(0), candidate(1)], "", session, "gpt-4.1") == 0
    assert len(session.ledger.entries) == 2


@pytest.mark.parametrize("bad", ['{"index": true}', '{"index": "1"}', '{"index": 0.5}'])
def test_judge_list_falls_back_to_zero_after_two_bad(pricing, bad):
    session = make_session(ScriptedBackend([prm(bad, times=2)]), pricing)
    assert judge_list([candidate(0), candidate(1)], "", session, "gpt-4.1") == 0
    assert len(session.ledger.entries) == 2  # exactly one re-ask


def test_judge_list_accepts_integral_float(pricing):
    session = make_session(ScriptedBackend([prm('{"index": 1.0}')]), pricing)
    assert judge_list([candidate(0), candidate(1)], "", session, "gpt-4.1") == 1
    assert len(session.ledger.entries) == 1


def test_judge_list_needs_two_candidates(pricing):
    session = make_session(ScriptedBackend([]), pricing)
    with pytest.raises(ValueError):
        judge_list([candidate(0)], "", session, "gpt-4.1")


def test_judge_list_prompt_contains_all_trajectories(pricing):
    backend = ScriptedBackend([prm('{"index": 0}')])
    session = make_session(backend, pricing)
    judge_list([candidate(0, "alpha"), candidate(1, "beta")], "earlier steps", session, "gpt-4.1")
    prompt = backend.calls[0].messages[-1].content
    assert "Trajectory 0" in prompt and "Trajectory 1" in prompt
    assert "out alpha" in prompt and "out beta" in prompt
    assert "earlier steps" in prompt


# -- selection ---------------------------------------------------------------


def test_choose_scores_a_failed_candidate_zero_without_a_judge_call(pricing):
    session = make_session(ScriptedBackend([prm('{"score": 2}', times=0)]), pricing)
    failed = Candidate(index=0, model_output="", action=None, usage=TokenUsage(0, 0),
                       error="actor call failed")
    picked = choose([failed, candidate(1)], "", 1, PrmMode.SCORE, session, "gpt-4.1")
    assert picked.index == 1
    assert len(session.ledger.entries) == 1  # the failed candidate was not judged


def test_select_best_argmax_with_low_index_ties():
    cands = [candidate(i) for i in range(4)]
    verdicts = [PrmVerdict("", s) for s in (3, 9, 9, 1)]
    assert select_best(cands, verdicts).index == 1

    even = [PrmVerdict("", 5) for _ in range(4)]
    assert select_best(cands, even).index == 0


def test_select_best_validates_alignment():
    with pytest.raises(ValueError):
        select_best([], [])
    with pytest.raises(ValueError):
        select_best([candidate(0)], [])

"""Best-of-N action selection with an LLM judge.

With bon_n > 1 the loop samples N candidate actor outputs at the
sampling temperature, has a judge rate them, and keeps the winner. Score
mode rates each candidate independently on a 0-10 scale; list mode shows
the judge every candidate trajectory at once and asks for the best
index. bon_n = 1 short-circuits all of it: one deterministic actor call,
no judge, no judge cost.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .actions import Action, UnparsableActionError, parse_action
from .backend import BackendError, Message, Purpose, TokenUsage
from .config import PrmMode
from . import prompts

if TYPE_CHECKING:
    from .session import RunSession

log = logging.getLogger("agentmeter.tts")

SCORE_MIN = 0
SCORE_MAX = 10
_SCORES = range(SCORE_MIN, SCORE_MAX + 1)


@dataclass(frozen=True)
class Candidate:
    index: int
    model_output: str
    action: Action | None
    usage: TokenUsage
    error: str | None = None


@dataclass(frozen=True)
class PrmVerdict:
    analysis: str
    score: int

    def __post_init__(self) -> None:
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise ValueError(f"score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}]")


_DECODER = json.JSONDecoder()


def extract_json_object(text: str) -> dict | None:
    """The first JSON object in the text that parses, scanning each "{" in turn."""
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except (ValueError, RecursionError):  # not JSON, too long an int, nested too deep
            start = text.find("{", start + 1)
    return None


def sample_candidates(
    messages: tuple[Message, ...],
    n: int,
    session: "RunSession",
    model_id: str,
    temperature: float,
) -> list[Candidate]:
    """n actor calls with one shared prompt; keeps going past single failures."""
    if n < 1:
        raise ValueError("n must be >= 1")
    candidates: list[Candidate] = []
    last_error: BackendError | None = None
    successes = 0
    for index in range(n):
        try:
            response = session.call_model(
                Purpose.ACTOR, model_id, messages, temperature=temperature
            )
        except BackendError as exc:
            last_error = exc
            candidates.append(
                Candidate(
                    index=index,
                    model_output="",
                    action=None,
                    usage=TokenUsage(0, 0),
                    error=str(exc),
                )
            )
            continue
        successes += 1
        try:
            action = parse_action(response.text)
        except UnparsableActionError:
            action = None
        candidates.append(
            Candidate(
                index=index,
                model_output=response.text,
                action=action,
                usage=response.usage,
            )
        )
    if successes == 0:
        assert last_error is not None
        raise last_error
    return candidates


def _candidate_fields(candidate: Candidate, step_number: int, history: str) -> dict:
    return {
        "step_number": step_number,
        "observations": "None (action not executed yet)",
        "action_output": candidate.action.render() if candidate.action else "None",
        "model_output": candidate.model_output,
        "error": candidate.error or "None",
        "score": "None",
        "previous_steps": history or "(no previous steps)",
    }


def _int_field(obj: dict, key: str, valid: range) -> int | None:
    """obj[key] if it is an integer in ``valid``; an integral float counts, a bool does not."""
    value = obj.get(key)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value not in valid:
        return None
    return value


def _ask_judge(
    prompt: str, key: str, valid: range, session: "RunSession", judge_model_id: str
) -> tuple[dict, int] | None:
    """Ask the judge for an integer ``key`` in ``valid``; re-ask once, then give up.

    Returns the reply's JSON object and the field's value.
    """
    for _ in range(2):
        response = session.call_model(
            Purpose.PRM, judge_model_id, (Message("user", prompt),)
        )
        obj = extract_json_object(response.text)
        value = _int_field(obj, key, valid) if obj is not None else None
        if value is not None:
            return obj, value
    return None


def judge_score(
    candidate: Candidate,
    history: str,
    step_number: int,
    session: "RunSession",
    judge_model_id: str,
) -> PrmVerdict:
    """One judge call per candidate; malformed output gets one re-ask, then 0."""
    prompt = prompts.render(
        prompts.PRM_SCORE, **_candidate_fields(candidate, step_number, history)
    )
    found = _ask_judge(prompt, "score", _SCORES, session, judge_model_id)
    if found is None:
        log.warning("judge verdict unparsable twice; scoring candidate %d as 0", candidate.index)
        return PrmVerdict(analysis="unparsable", score=0)
    obj, score = found
    return PrmVerdict(analysis=str(obj.get("analysis", "")), score=score)


def render_trajectories(candidates: Sequence[Candidate], history: str) -> str:
    blocks = []
    for candidate in candidates:
        fields = _candidate_fields(candidate, 0, history)
        blocks.append(
            f"Trajectory {candidate.index}:\n"
            f"- previous_steps: {fields['previous_steps']}\n"
            f"- model_output: {candidate.model_output}\n"
            f"- action_output: {fields['action_output']}\n"
            f"- error: {fields['error']}"
        )
    return "\n\n".join(blocks)


def judge_list(
    candidates: Sequence[Candidate],
    history: str,
    session: "RunSession",
    judge_model_id: str,
) -> int:
    """One judge call over all trajectories; bad index gets one re-ask, then 0."""
    if len(candidates) < 2:
        raise ValueError("list judging needs at least 2 trajectories")
    prompt = prompts.render(
        prompts.PRM_LIST,
        count=len(candidates),
        trajectories=render_trajectories(candidates, history),
    )
    found = _ask_judge(prompt, "index", range(len(candidates)), session, judge_model_id)
    if found is None:
        log.warning("list judge gave no valid index twice; falling back to candidate 0")
        return 0
    return found[1]


def select_best(
    candidates: Sequence[Candidate], verdicts: Sequence[PrmVerdict]
) -> Candidate:
    """Highest score wins; equal scores go to the earlier candidate."""
    if not candidates or len(candidates) != len(verdicts):
        raise ValueError("candidates and verdicts must align and be non-empty")
    best = None
    best_key: tuple[int, int] | None = None
    for candidate, verdict in zip(candidates, verdicts):
        key = (verdict.score, -candidate.index)
        if best_key is None or key > best_key:
            best, best_key = candidate, key
    assert best is not None
    return best


def choose(
    candidates: Sequence[Candidate],
    history: str,
    step_number: int,
    mode: PrmMode,
    session: "RunSession",
    judge_model_id: str,
) -> Candidate:
    """The judged pick among best-of-N candidates.

    List mode makes one judge call over all of them. Score mode judges
    each candidate whose actor call succeeded and scores a failed one 0
    without a judge call.
    """
    if mode is PrmMode.LIST:
        return candidates[judge_list(candidates, history, session, judge_model_id)]
    verdicts = [
        judge_score(candidate, history, step_number, session, judge_model_id)
        if candidate.error is None
        else PrmVerdict(analysis="candidate call failed", score=0)
        for candidate in candidates
    ]
    return select_best(candidates, verdicts)

"""The plan-then-act loop.

A run alternates explicit planning with tool-using action steps: a fresh
plan is generated before step 0 and again whenever the step index hits
the plan interval, every step makes exactly one action choice (possibly
via best-of-N), and the step budget is hard. If the budget runs out
without a final_answer action, one forced-answer call extracts the best
guess so grading always has something to look at.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

from .actions import Action, ActionName, UnparsableActionError, parse_action
from .backend import BackendError, Message, Purpose, TokenUsage
from .config import AgentConfig, PrmMode
from .memory import RunMemory, full_block
from .session import RunSession, RunTimeoutError
from .tools import ToolBox
from .trace import ReplayMismatchError
from . import prompts, tts

log = logging.getLogger("agentmeter.agent")

CORRECTIVE_OBSERVATION = (
    "Invalid action format. End your reply with exactly one line of the form "
    "ACTION: <name>(<key>=<value>, ...)."
)


class TerminatedBy(Enum):
    FINAL_ANSWER = "final_answer"
    STEP_BUDGET = "step_budget"
    ERROR = "error"  # backend gave up mid-run; graded unsolved, cost kept
    TIMEOUT = "timeout"  # wall-clock budget hit; graded unsolved, cost kept


class PlanEmptyError(RuntimeError):
    pass


@dataclass(frozen=True)
class Plan:
    text: str
    created_at_step: int

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise PlanEmptyError("plan text is empty")
        if self.created_at_step < 0:
            raise ValueError("created_at_step must be >= 0")


@dataclass(frozen=True)
class Step:
    index: int
    model_output: str
    action: Action | None
    observation: str
    usage: TokenUsage
    error: str | None = None


@dataclass
class AgentState:
    """Everything the loop mutates while a run is in flight."""

    task_id: str
    question: str
    config: AgentConfig
    session: RunSession
    toolbox: ToolBox
    memory: RunMemory
    plans: list[Plan] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)

    @property
    def current_plan(self) -> Plan | None:
        return self.plans[-1] if self.plans else None

    def retrieval_query(self) -> str:
        plan_text = self.current_plan.text if self.current_plan else ""
        last_obs = self.steps[-1].observation if self.steps else ""
        return f"{plan_text}\n{last_obs}".strip() or self.question


@dataclass(frozen=True)
class TaskRunRecord:
    task_id: str
    config: AgentConfig
    plans: tuple[Plan, ...]
    steps: tuple[Step, ...]
    final_answer: str
    terminated_by: TerminatedBy
    ledger: object  # RunLedger; typed loosely to keep the record pickleable


def should_replan(step_index: int, plan_interval: int) -> bool:
    """A plan precedes steps 0, I, 2I, ..."""
    if step_index < 0:
        raise ValueError("step_index must be >= 0")
    if plan_interval < 1:
        raise ValueError("plan_interval must be >= 1")
    return step_index % plan_interval == 0


def _history_text(state: AgentState) -> str:
    blocks = state.memory.context_blocks(state.steps, state.retrieval_query())
    return "\n\n".join(blocks)


def _planner_context(state: AgentState) -> str:
    parts = []
    if state.current_plan is not None:
        parts.append(f"Previous plan:\n{state.current_plan.text}")
    history = _history_text(state)
    if history:
        parts.append(f"Progress so far:\n{history}")
    if not parts:
        return ""
    return "\n" + "\n\n".join(parts) + "\n"


def generate_plan(state: AgentState, step_index: int) -> Plan:
    prompt = prompts.render(
        prompts.PLANNER, question=state.question, context=_planner_context(state)
    )
    response = state.session.call_model(
        Purpose.PLANNER,
        state.config.backbone_id,
        (Message("user", prompt),),
        temperature=state.config.temperature,
    )
    text = response.text.strip()
    if not text:
        raise PlanEmptyError("planner returned an empty plan")
    return Plan(text=text, created_at_step=step_index)


def _actor_messages(state: AgentState) -> tuple[Message, ...]:
    system = prompts.render(prompts.SYSTEM)
    parts = [f"Task:\n{state.question}"]
    if state.toolbox.attachments:
        names = ", ".join(sorted(state.toolbox.attachments))
        parts.append(f"Attached files (use read_attachment): {names}")
    if state.current_plan is not None:
        parts.append(f"Current plan:\n{state.current_plan.text}")
    history = _history_text(state)
    if history:
        parts.append(f"History:\n{history}")
    parts.append("Decide your next action.")
    return (Message("system", system), Message("user", "\n\n".join(parts)))


def _judge_history(state: AgentState) -> str:
    parts = [f"TaskStep: {state.question}"]
    if state.current_plan is not None:
        parts.append(f"PlanningStep:\n{state.current_plan.text}")
    for step in state.steps:
        parts.append(full_block(step))
    return "\n\n".join(parts)


def _choose_output(state: AgentState) -> tts.Candidate:
    """One actor sample, or a judged best-of-N when configured."""
    cfg = state.config
    messages = _actor_messages(state)
    temperature = cfg.temperature if cfg.bon_n == 1 else cfg.bon_temperature
    candidates = tts.sample_candidates(
        messages, cfg.bon_n, state.session, cfg.backbone_id, temperature
    )
    if cfg.bon_n == 1:
        return candidates[0]

    history = _judge_history(state)
    step_number = len(state.steps)
    if cfg.prm_mode is PrmMode.LIST:
        index = tts.judge_list(candidates, history, state.session, cfg.judge_model_id)
        return candidates[index]
    verdicts = []
    for candidate in candidates:
        if candidate.error is not None:
            verdicts.append(tts.PrmVerdict(analysis="candidate call failed", score=0))
        else:
            verdicts.append(
                tts.judge_score(
                    candidate, history, step_number, state.session, cfg.judge_model_id
                )
            )
    return tts.select_best(candidates, verdicts)


def react_step(state: AgentState) -> Step:
    index = len(state.steps)
    chosen = _choose_output(state)

    if chosen.action is None:
        reason = chosen.error or "no parsable ACTION directive"
        return Step(
            index=index,
            model_output=chosen.model_output,
            action=None,
            observation=CORRECTIVE_OBSERVATION,
            usage=chosen.usage,
            error=f"invalid action format: {reason}",
        )

    action = chosen.action
    if action.is_terminal:
        return Step(
            index=index,
            model_output=chosen.model_output,
            action=action,
            observation="",
            usage=chosen.usage,
        )
    observation = state.toolbox.dispatch(action)
    return Step(
        index=index,
        model_output=chosen.model_output,
        action=action,
        observation=observation,
        usage=chosen.usage,
    )


def forced_answer(state: AgentState) -> str:
    """Budget exhausted: one last actor call to extract a best guess."""
    history = _history_text(state)
    context = f"\nGathered so far:\n{history}\n" if history else ""
    prompt = prompts.render(
        prompts.FORCED_ANSWER, question=state.question, context=context
    )
    response = state.session.call_model(
        Purpose.ACTOR,
        state.config.backbone_id,
        (Message("user", prompt),),
        temperature=state.config.temperature,
    )
    text = response.text.strip()
    # tolerate a model that answers with a final_answer directive anyway
    try:
        action = parse_action(text)
        if action.name is ActionName.FINAL_ANSWER:
            return action.arguments["answer"]
    except UnparsableActionError:
        pass
    return text


def run_task(
    task_id: str,
    question: str,
    config: AgentConfig,
    session: RunSession,
    toolbox: ToolBox,
) -> TaskRunRecord:
    state = AgentState(
        task_id=task_id,
        question=question,
        config=config,
        session=session,
        toolbox=toolbox,
        memory=RunMemory(
            config.memory_mode,
            session,
            config.backbone_id,
            config.retrieval_k,
            config.note_max_chars,
        ),
    )
    final_answer = ""
    terminated_by = TerminatedBy.STEP_BUDGET
    try:
        for step_index in range(config.max_steps):
            session.set_step(step_index)
            if should_replan(step_index, config.plan_interval):
                state.plans.append(generate_plan(state, step_index))
            step = react_step(state)
            state.steps.append(step)
            if step.action is not None and step.action.is_terminal:
                final_answer = step.action.arguments["answer"]
                terminated_by = TerminatedBy.FINAL_ANSWER
                break
            state.memory.observe_step(step)
        else:
            session.set_step(config.max_steps)
            final_answer = forced_answer(state)
            terminated_by = TerminatedBy.STEP_BUDGET
    except RunTimeoutError:
        log.warning("run %s hit its wall-clock limit", task_id)
        terminated_by = TerminatedBy.TIMEOUT
    except (BackendError, ReplayMismatchError, PlanEmptyError) as exc:
        log.warning("run %s aborted: %s", task_id, exc)
        terminated_by = TerminatedBy.ERROR

    return TaskRunRecord(
        task_id=task_id,
        config=config,
        plans=tuple(state.plans),
        steps=tuple(state.steps),
        final_answer=final_answer,
        terminated_by=terminated_by,
        ledger=session.ledger,
    )

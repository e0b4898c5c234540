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
from functools import cache

from .actions import Action, ActionName, UnparsableActionError, parse_action
from .backend import Message, Purpose, TokenUsage
from .config import AgentConfig, InputError
from .ledger import RunLedger
from .memory import RunMemory
from .session import RunSession, RunTimeoutError
from .tools import ToolBox
from . import prompts, tts

log = logging.getLogger("agentmeter.agent")

CORRECTIVE_OBSERVATION = (
    "Invalid action format. End your reply with exactly one line of the form "
    "ACTION: <name>(<key>=<value>, ...)."
)


class TerminatedBy(Enum):
    FINAL_ANSWER = "final_answer"
    STEP_BUDGET = "step_budget"
    ERROR = "error"  # the run raised mid-way; graded unsolved, cost kept
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
    plans: tuple[Plan, ...]
    steps: tuple[Step, ...]
    final_answer: str
    terminated_by: TerminatedBy
    ledger: RunLedger


def should_replan(step_index: int, plan_interval: int) -> bool:
    """A plan precedes steps 0, I, 2I, ..."""
    if step_index < 0:
        raise ValueError("step_index must be >= 0")
    if plan_interval < 1:
        raise ValueError("plan_interval must be >= 1")
    return step_index % plan_interval == 0


def _history_text(state: AgentState) -> str:
    memory = state.memory
    query = state.retrieval_query() if memory.layout.summaries else ""
    return "\n\n".join(memory.context_blocks(query))


def _planner_context(state: AgentState) -> str:
    # one join over the pieces, so the long history is copied once
    pieces = []
    if state.current_plan is not None:
        pieces += ("\nPrevious plan:\n", state.current_plan.text, "\n")
    history = _history_text(state)
    if history:
        pieces += ("\nProgress so far:\n", history, "\n")
    return "".join(pieces)


def generate_plan(state: AgentState, step_index: int) -> Plan | None:
    """A new plan; an empty reply is asked again once, then the current plan stands.

    Returns None to keep the current plan; a first plan empty twice raises
    PlanEmptyError.
    """
    prompt = prompts.render(
        prompts.PLANNER, question=state.question, context=_planner_context(state)
    )
    for _ in range(2):
        response = state.session.call_model(
            Purpose.PLANNER,
            state.config.backbone_id,
            (Message("user", prompt),),
            temperature=state.config.temperature,
        )
        if response.text.strip():
            return Plan(text=response.text.strip(), created_at_step=step_index)
    if state.current_plan is None:
        raise PlanEmptyError("plan text is empty")
    log.warning("planner replied empty twice at step %d; keeping the current plan", step_index)
    return None


@cache
def _system_message() -> Message:
    # the system prompt has no placeholders, so one rendering serves the process
    return Message("system", prompts.render(prompts.SYSTEM))


def _actor_messages(state: AgentState) -> tuple[Message, ...]:
    # one join over the pieces, so the long history is copied once
    pieces = ["Task:\n", state.question]
    if state.toolbox.attachments:
        names = ", ".join(sorted(state.toolbox.attachments))
        pieces += ("\n\nAttached files (use read_attachment): ", names)
    if state.current_plan is not None:
        pieces += ("\n\nCurrent plan:\n", state.current_plan.text)
    history = _history_text(state)
    if history:
        pieces += ("\n\nHistory:\n", history)
    pieces.append("\n\nDecide your next action.")
    return (_system_message(), Message("user", "".join(pieces)))


def _judge_history(state: AgentState) -> str:
    parts = [f"TaskStep: {state.question}"]
    if state.current_plan is not None:
        parts.append(f"PlanningStep:\n{state.current_plan.text}")
    if state.steps:
        parts.append(state.memory.full_history())
    return "\n\n".join(parts)


def react_step(state: AgentState) -> Step:
    """Sample one action (or N, judged by ``tts.choose``) and execute it."""
    cfg = state.config
    temperature = cfg.temperature if cfg.bon_n == 1 else cfg.bon_temperature
    candidates = tts.sample_candidates(
        _actor_messages(state), cfg.bon_n, state.session, cfg.backbone_id, temperature
    )
    chosen = candidates[0]
    if cfg.bon_n > 1:
        chosen = tts.choose(
            candidates,
            _judge_history(state),
            len(state.steps),
            cfg.prm_mode,
            state.session,
            cfg.judge_model_id,
        )

    action, error = chosen.action, None
    if action is None:
        observation = CORRECTIVE_OBSERVATION
        error = f"invalid action format: {chosen.error or 'no parsable ACTION directive'}"
    elif action.is_terminal:
        observation = ""
    else:
        observation = state.toolbox.dispatch(action)
    return Step(
        index=len(state.steps),
        model_output=chosen.model_output,
        action=action,
        observation=observation,
        usage=chosen.usage,
        error=error,
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
        question=question,
        config=config,
        session=session,
        toolbox=toolbox,
        memory=RunMemory(config, session),
    )
    final_answer = ""
    terminated_by = TerminatedBy.STEP_BUDGET
    try:
        for step_index in range(config.max_steps):
            session.set_step(step_index)
            if should_replan(step_index, config.plan_interval):
                plan = generate_plan(state, step_index)
                if plan is not None:
                    state.plans.append(plan)
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
    except InputError:
        raise  # a recording that a replay cannot serve: refused, not a failed run
    except Exception as exc:
        # one failing run must not take the benchmark down; its cost and trace stay
        log.warning("run %s aborted: %s", task_id, exc, exc_info=True)
        terminated_by = TerminatedBy.ERROR

    return TaskRunRecord(
        plans=tuple(state.plans),
        steps=tuple(state.steps),
        final_answer=final_answer,
        terminated_by=terminated_by,
        ledger=session.ledger,
    )

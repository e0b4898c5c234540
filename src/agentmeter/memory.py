"""Step-history memory: six context layouts, step summaries, long-term note.

The memory mode decides what the actor sees of its own past each step:

- simple: per-step (action, observation) pairs, reasoning omitted
- no_extra: full steps (reasoning, action, observation)
- summarized: retrieved top-k step summaries replace the step history
- extra_summarized: full steps plus retrieved summaries
- extra_fixed: full steps plus a bounded, LLM-maintained note
- extra_hybrid: full steps plus summaries plus the note

Summaries are embedded and ranked by the dot product of unit vectors, with a
deterministic tiebreak, so rendering is reproducible for a fixed store.

A run renders each step once, when ``RunMemory.observe_step`` is given it, and
only with the block functions whose history the run reads: the blocks the
layout shows, and the full blocks when best-of-N judges. Each history is the
blocks of the observed steps joined by blank lines, and it is the text every
prompt of a step shows: planner, actor, judge and forced answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .backend import Message, Purpose
from .config import AgentConfig, MemoryMode
from . import prompts

if TYPE_CHECKING:
    from .agent import Step
    from .session import RunSession

@dataclass(frozen=True, eq=False)
class SummaryEntry:
    step_index: int
    summary_text: str
    embedding: Sequence[float]  # a unit vector, as RunSession.embed returns


class VectorStore:
    """Ordered collection of embedded step summaries."""

    def __init__(self) -> None:
        self._entries: list[SummaryEntry] = []

    def add(self, entry: SummaryEntry) -> None:
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[SummaryEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class LongTermNote:
    """Bounded free-text memory, rewritten by the model after each step."""

    text: str
    max_chars: int

    def __post_init__(self) -> None:
        if self.max_chars < 1:
            raise ValueError("max_chars must be >= 1")
        if len(self.text) > self.max_chars:
            raise ValueError("note text exceeds max_chars")

    @classmethod
    def fitted(cls, text: str, max_chars: int) -> "LongTermNote":
        return cls(text[:max_chars], max_chars)


def retrieve_top_k(
    store: VectorStore, query_embedding: Sequence[float], k: int
) -> list[SummaryEntry]:
    """Most similar entries first; equal similarity falls back to earlier steps.
    ``RunSession.embed`` gives a run unit vectors of one length, so a dot product
    is a cosine."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(
        store.entries,
        key=lambda e: (-math.fsum(map(mul, e.embedding, query_embedding)), e.step_index),
    )
    return ranked[:k]


# -- context rendering -------------------------------------------------------


def _action_text(step: "Step") -> str:
    return step.action.render() if step.action is not None else "(no action parsed)"


def simple_block(step: "Step") -> str:
    return (
        f"Step {step.index}:\n"
        f"Action: {_action_text(step)}\n"
        f"Observation: {step.observation}"
    )


def full_block(step: "Step") -> str:
    lines = [
        f"Step {step.index}:",
        f"Model output: {step.model_output}",
        f"Action: {_action_text(step)}",
        f"Observation: {step.observation}",
    ]
    if step.error:
        lines.append(f"Error: {step.error}")
    return "\n".join(lines)


def summary_block(entry: SummaryEntry) -> str:
    return f"Summary of step {entry.step_index}:\n{entry.summary_text}"


def note_block(note: LongTermNote) -> str:
    return f"Long-term memory:\n{note.text}"


class _Layout(NamedTuple):
    step_block: Callable[["Step"], str] | None  # None: steps are not shown
    summaries: bool  # step summaries are kept, and the top-k retrieved are shown
    note: bool  # the long-term note is kept and shown


# what each memory mode keeps between steps and shows the actor
_LAYOUT = {
    MemoryMode.SIMPLE: _Layout(simple_block, summaries=False, note=False),
    MemoryMode.NO_EXTRA: _Layout(full_block, summaries=False, note=False),
    MemoryMode.SUMMARIZED: _Layout(None, summaries=True, note=False),
    MemoryMode.EXTRA_SUMMARIZED: _Layout(full_block, summaries=True, note=False),
    MemoryMode.EXTRA_FIXED: _Layout(full_block, summaries=False, note=True),
    MemoryMode.EXTRA_HYBRID: _Layout(full_block, summaries=True, note=True),
}


# -- model-backed maintenance ------------------------------------------------


def summarize_step(step: "Step", session: "RunSession", model_id: str) -> str:
    # the summarizer sees the whole step, raw observation included
    prompt = prompts.render(prompts.MEMORY_SUMMARIZE, step_content=full_block(step))
    response = session.call_model(
        Purpose.MEMORY, model_id, (Message("user", prompt),)
    )
    text = response.text.strip()
    if not text:
        return f"Step {step.index}: ran {_action_text(step)} (no summary produced)"
    return text


def update_long_term_note(
    note: LongTermNote, previous_step: "Step", session: "RunSession", model_id: str
) -> LongTermNote:
    prompt = prompts.render(
        prompts.MEMORY_LONGTERM,
        previous_step=full_block(previous_step),
        long_term_memory=note.text or "(empty)",
    )
    response = session.call_model(
        Purpose.MEMORY, model_id, (Message("user", prompt),)
    )
    text = response.text.strip()
    if not text:
        return note
    return LongTermNote.fitted(text, note.max_chars)


class RunMemory:
    """Per-run memory state driven by the agent loop.

    ``observe_step`` renders the step into each history the run reads, then
    runs the mode's bookkeeping (summary plus embedding, note rewrite, both,
    or nothing). ``context_blocks`` gives what the actor should see,
    embedding the retrieval query only when summaries are in play;
    ``full_history`` is the best-of-N judge's view of the steps.

    Each step is rendered once, when observed, and only by the block
    functions whose history the run reads: the layout's step blocks, and the
    full blocks when ``bon_n > 1``. A layout that shows full blocks keeps one
    text for the actor and the judge.
    """

    def __init__(self, config: AgentConfig, session: "RunSession"):
        self.layout = _LAYOUT[config.memory_mode]
        self.session = session
        self.model_id = config.backbone_id
        self.retrieval_k = config.retrieval_k
        self.store = VectorStore()
        self.note = LongTermNote("", config.note_max_chars)
        judged = full_block if config.bon_n > 1 else None
        # block function -> its blocks of the observed steps, joined by blank lines
        self._histories = dict.fromkeys(filter(None, (self.layout.step_block, judged)), "")

    def observe_step(self, step: "Step") -> None:
        # rebuilt in one comprehension, so each previous history is freed
        # before the model calls below; a loop variable would keep the last
        # one alive through those calls
        self._histories = {
            render: "\n\n".join((text, render(step))) if text else render(step)
            for render, text in self._histories.items()
        }
        if self.layout.summaries:
            summary = summarize_step(step, self.session, self.model_id)
            embedding = self.session.embed(summary)
            self.store.add(
                SummaryEntry(step_index=step.index, summary_text=summary, embedding=embedding)
            )
        if self.layout.note:
            self.note = update_long_term_note(self.note, step, self.session, self.model_id)

    def full_history(self) -> str:
        """The full blocks of the observed steps, joined by blank lines; kept
        when the layout shows them or ``bon_n > 1``."""
        return self._histories[full_block]

    def context_blocks(self, query_text: str) -> list[str]:
        """The history portion of the actor context for the memory mode,
        as blocks to join by blank lines: the steps' blocks first, as one."""
        layout = self.layout
        history = self._histories.get(layout.step_block, "")
        blocks = [history] if history else []
        if layout.summaries and len(self.store):
            query_embedding = self.session.embed(query_text)
            blocks.extend(
                summary_block(e) for e in retrieve_top_k(self.store, query_embedding, self.retrieval_k)
            )
        if layout.note and self.note.text:
            blocks.append(note_block(self.note))
        return blocks

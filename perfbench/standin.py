"""The benchmark's model stand-in and its fixed-latency wrappers.

:class:`DesignBackend` answers every request in O(1) from the run id
given to ``start_run``, the request's purpose and a per-run call counter,
looking up the task design the input generator wrote. The program's own
``ScriptedBackend`` is not used: it scans its entry list and substring-
matches each entry against the last message, so its cost per call grows
with the number of tasks and the prompt size, and a benchmark driven by
it would time the test double instead of agentmeter.

Usage is reported as the program's own byte-length token estimate of the
request and the reply, so cost follows context size the way a provider's
token count would.

The ``Delayed*`` wrappers add a fixed sleep to every model call, every
search-provider request and every page fetch, standing in for network
latency. With a delay of 0 they add nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from agentmeter.backend import (
    Backend,
    BackendError,
    ModelRequest,
    ModelResponse,
    Purpose,
    TokenUsage,
    estimate_prompt_tokens,
    estimate_tokens,
)
from agentmeter.tools import PageFetcher, SearchProvider

from inputs import TaskDesign

REASK_EVERY = 8  # about one judge verdict in this many is malformed once


_latency = threading.local()


def wait(seconds: float) -> None:
    """The injected latency; one function so a tracer can time it."""
    if seconds > 0:
        asked, waited = latency_s()
        start = time.perf_counter()
        time.sleep(seconds)
        _latency.totals = asked + seconds, waited + time.perf_counter() - start


def latency_s() -> tuple[float, float]:
    """The injected latency this thread has asked for so far, and the time
    it has spent in it: the sleeps plus waking from them, GIL included."""
    return getattr(_latency, "totals", (0.0, 0.0))


@dataclass
class _RunState:
    design: TaskDesign
    actor: int = 0
    planner: int = 0
    memory: int = 0
    expansion: int = 0
    verdicts: int = 0
    reasked: bool = False


class DesignBackend(Backend):
    """Scripted model whose reply is a pure function of (run, purpose, index)."""

    def __init__(self, designs: list[TaskDesign], bon_n: int):
        self._designs = {d.task_id: d for d in designs}
        self._bon_n = bon_n
        self._local = threading.local()

    def start_run(self, run_id: str) -> None:
        design = self._designs.get(run_id)
        if design is None:
            raise BackendError(f"no design for run {run_id!r}")
        self._local.state = _RunState(design)

    def complete(self, request: ModelRequest) -> ModelResponse:
        state = getattr(self._local, "state", None)
        if state is None:
            raise BackendError("complete() before start_run()")
        text = self._reply(state, request.purpose)
        usage = TokenUsage(
            prompt_tokens=estimate_prompt_tokens(request.messages),
            completion_tokens=estimate_tokens(text),
        )
        return ModelResponse(text=text, usage=usage, model_id=request.model_id)

    def _reply(self, state: _RunState, purpose: Purpose) -> str:
        d = state.design
        if purpose is Purpose.ACTOR:
            step, candidate = divmod(state.actor, self._bon_n)
            state.actor += 1
            if step >= len(d.actions):
                if d.forced_reply is None:
                    raise BackendError(f"{d.task_id}: actor call past the designed steps")
                return d.forced_reply
            return f"Thought {candidate}: {d.thoughts[step]}\nACTION: {d.actions[step]}"
        if purpose is Purpose.PLANNER:
            state.planner += 1
            return (
                f"1. Search for {d.question[:60]}\n2. Open the best result\n"
                f"3. Read until the figure appears (revision {state.planner})\n"
                "4. Answer with the bare figure"
            )
        if purpose is Purpose.QUERY_EXPANSION:
            index = state.expansion
            state.expansion += 1
            if index >= len(d.expansions):
                raise BackendError(f"{d.task_id}: query expansion past the designed searches")
            return "\n".join(f"{i}. {q}" for i, q in enumerate(d.expansions[index], 1))
        if purpose is Purpose.MEMORY:
            state.memory += 1
            thought = d.thoughts[min(state.memory // 2, len(d.thoughts) - 1)]
            return f"- note {state.memory}: {thought[:160]}\n- next: follow the plan"
        if purpose is Purpose.PRM:
            v = state.verdicts
            if not state.reasked and (v * 37 + d.salt) % REASK_EVERY == 0:
                state.reasked = True
                return "The candidate looks reasonable; no structured verdict."
            state.reasked = False
            state.verdicts += 1
            score = (v * 7 + d.salt) % 11
            return f'{{"analysis": "verdict {v} for {d.task_id}", "score": {score}}}'
        raise BackendError(f"unexpected purpose {purpose!r}")


class DelayedBackend(Backend):
    def __init__(self, inner: Backend, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def start_run(self, run_id: str) -> None:
        self.inner.start_run(run_id)

    def complete(self, request: ModelRequest) -> ModelResponse:
        wait(self.delay_s)
        return self.inner.complete(request)


class DelayedSearchProvider(SearchProvider):
    def __init__(self, inner: SearchProvider, delay_s: float):
        self.inner = inner
        self.name = inner.name
        self.delay_s = delay_s

    def search(self, query: str, limit: int):
        wait(self.delay_s)
        return self.inner.search(query, limit)


class DelayedFetcher(PageFetcher):
    def __init__(self, inner: PageFetcher, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def fetch(self, url: str) -> str:
        wait(self.delay_s)
        return self.inner.fetch(url)

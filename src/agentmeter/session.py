"""Per-run execution context.

A :class:`RunSession` is handed to the agent loop and is the only path
to the outside world: model calls, tool calls, and embeddings all go
through it. That single chokepoint is what makes runs meterable (every
call lands in the ledger), recordable (every effect lands in the trace),
and replayable (a recording stands in as the backend).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from .backend import (
    Backend,
    BackendError,
    Message,
    ModelRequest,
    ModelResponse,
    Purpose,
    RunTimeoutError,
    TokenUsage,
    unit_vector_dim,
)
from .config import PricingTable
from .ledger import RunLedger
from .tools import ToolError
from .trace import TraceWriter


class RunSession:
    def __init__(
        self,
        run_id: str,
        backend: Backend,
        pricing: PricingTable,
        trace: TraceWriter | None = None,
        timeout_s: float | None = None,
    ):
        self.run_id = run_id
        self.backend = backend
        self.ledger = RunLedger(pricing)
        self.trace = trace
        self.step_index = 0
        self._embedding_dim: int | None = None  # the length of the run's first vector
        self._deadline = time.monotonic() + timeout_s if timeout_s else None
        backend.start_run(run_id)

    def set_step(self, index: int) -> None:
        """Step index stamped onto subsequent ledger entries."""
        self.step_index = index

    def check_deadline(self) -> None:
        """Cooperative timeout, checked before each external call."""
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise RunTimeoutError(f"run {self.run_id} exceeded its time budget")

    def call_model(
        self,
        purpose: Purpose,
        model_id: str,
        messages: tuple[Message, ...],
        temperature: float = 0.0,
    ) -> ModelResponse:
        self.check_deadline()
        request = ModelRequest(
            model_id=model_id,
            messages=messages,
            purpose=purpose,
            temperature=temperature,
        )
        try:
            response = self.backend.complete(request)
        except BackendError as exc:
            # failed calls still occupy a ledger slot, with an error mark
            self.ledger.record(purpose, model_id, TokenUsage(0, 0), self.step_index, str(exc))
            if self.trace is not None:
                self.trace.model_call(request, error=str(exc))
            raise
        # attribute cost to the model we asked for; gateways may echo variants
        self.ledger.record(purpose, model_id, response.usage, self.step_index)
        if self.trace is not None:
            self.trace.model_call(request, response)
        return response

    def call_tool(self, tool: str, args: dict, thunk: Callable[[], Any]) -> Any:
        """Run one external tool effect through the backend.

        ``args`` and the thunk's return value must be JSON-safe; they are
        written to the trace verbatim, and so is a ``ToolError`` message.
        The trace holds the ``args`` given here whether the call succeeds
        or fails, and a replay must ask with the recorded ones.
        """
        self.check_deadline()
        try:
            result = self.backend.run_tool(tool, args, thunk)
        except ToolError as exc:
            if self.trace is not None:
                self.trace.tool_call(tool, args, error=str(exc))
            raise
        if self.trace is not None:
            self.trace.tool_call(tool, args, result)
        return result

    def embed(self, text: str) -> Sequence[float]:
        self.check_deadline()
        try:
            vector = self.backend.embed(text)
            # a vector that read_trace would refuse fails the run, recorded as a failure
            self._embedding_dim = unit_vector_dim(vector, self._embedding_dim)
        except ValueError as exc:  # a replay raises a recorded failure again as one
            if self.trace is not None:
                self.trace.embed(text, error=str(exc))
            raise
        if self.trace is not None:
            self.trace.embed(text, vector)
        return vector

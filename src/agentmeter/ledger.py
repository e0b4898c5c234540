"""Token and money accounting, from single calls up to benchmark aggregates.

Costs are computed at record time from the pricing table and held as
integer pico-dollars (1e-12 USD), so per-call, per-run, and per-benchmark
totals are exact; floats appear only at the reporting boundary. Each
entry keeps the purpose tag and step index of the call that produced it,
which is how judge, planner, and memory overhead stay attributable when
comparing configurations.

The aggregate math lives here too: cost of one attempt is
n_in * c_in + n_out * c_out; dollars per solved task is mean cost divided
by accuracy, infinite when nothing was solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .backend import Purpose, TokenUsage
from .config import InputError, ModelPricing, PricingTable
from .money import PICO_PER_USD


@dataclass(frozen=True)
class LedgerEntry:
    step_index: int
    purpose: Purpose
    model_id: str
    prompt_tokens: int
    completion_tokens: int
    input_cost_pico: int
    output_cost_pico: int
    estimated: bool = False
    error: str | None = None

    @property
    def cost_pico(self) -> int:
        return self.input_cost_pico + self.output_cost_pico


def call_cost_pico(usage: TokenUsage, pricing: ModelPricing) -> tuple[int, int]:
    """Exact (input, output) cost of one call in pico-dollars."""
    return (
        usage.prompt_tokens * pricing.input_pico_per_token,
        usage.completion_tokens * pricing.output_pico_per_token,
    )


class RunLedger:
    """Append-only cost record of one run, written by that run's loop only."""

    def __init__(self, pricing: PricingTable):
        self._pricing = pricing
        self._entries: list[LedgerEntry] = []

    def record(
        self,
        purpose: Purpose,
        model_id: str,
        usage: TokenUsage,
        step_index: int = 0,
        error: str | None = None,
    ) -> LedgerEntry:
        pricing = self._pricing.lookup(model_id)
        input_cost, output_cost = call_cost_pico(usage, pricing)
        entry = LedgerEntry(
            step_index=step_index,
            purpose=purpose,
            model_id=model_id,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
            input_cost_pico=input_cost,
            output_cost_pico=output_cost,
            estimated=usage.estimated,
            error=error,
        )
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    @property
    def total_cost_pico(self) -> int:
        return sum(e.cost_pico for e in self._entries)

    @property
    def prompt_tokens(self) -> int:
        return sum(e.prompt_tokens for e in self._entries)

    @property
    def completion_tokens(self) -> int:
        return sum(e.completion_tokens for e in self._entries)

    def entries_for(self, purpose: Purpose) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self._entries if e.purpose is purpose)


# -- aggregate metrics -------------------------------------------------------


def cost_of_pass(mean_cost_usd: float, success_rate: float) -> float:
    """Expected dollars per solved task; +inf when the success rate is zero."""
    if mean_cost_usd < 0:
        raise ValueError("mean cost must be non-negative")
    if not 0 <= success_rate <= 1:
        raise ValueError("success rate must lie in [0, 1]")
    if success_rate == 0:
        return math.inf
    return mean_cost_usd / success_rate


class Scope(Enum):
    ALL = "all"
    L1 = "l1"
    L2 = "l2"
    L3 = "l3"


@dataclass(frozen=True)
class AggregateRow:
    """One report row: accuracy, mean cost, mean tokens, dollars per solve.

    Backed by integer totals so exact statements (closure with the run
    ledgers, the mean-cost x 1/accuracy identity) can be checked without
    float noise.
    """

    scope: Scope
    task_count: int
    solved_count: int
    total_cost_pico: int
    total_tokens: int

    def __post_init__(self) -> None:
        if self.task_count < 1:
            raise ValueError("a row needs at least one task")
        if not 0 <= self.solved_count <= self.task_count:
            raise ValueError("solved count out of range")

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.solved_count / self.task_count

    @property
    def mean_cost_usd(self) -> float:
        return float(self.mean_cost_exact)

    @property
    def mean_cost_exact(self) -> Fraction:
        return Fraction(self.total_cost_pico, self.task_count * PICO_PER_USD)

    @property
    def mean_tokens(self) -> float:
        return self.total_tokens / self.task_count

    @property
    def cost_of_pass_usd(self) -> float:
        if self.solved_count == 0:
            return math.inf
        return float(self.cost_of_pass_exact)

    @property
    def cost_of_pass_exact(self) -> Fraction:
        """Exact mean-cost/accuracy ratio; only valid when something solved.

        (total/count) / (solved/count) collapses to total/solved.
        """
        if self.solved_count == 0:
            raise ZeroDivisionError("no solved tasks; dollars per solve is infinite")
        return Fraction(self.total_cost_pico, self.solved_count * PICO_PER_USD)


class EmptyBenchmarkError(InputError, ValueError):
    pass


_LEVEL_SCOPES = {1: Scope.L1, 2: Scope.L2, 3: Scope.L3}


def aggregate(outcomes: Iterable[tuple[int, bool, int, int]]) -> list[AggregateRow]:
    """Fold (level, solved, cost_pico, tokens) outcomes into report rows.

    Emits the all-tasks row first, then one row per difficulty level that
    actually has tasks.
    """
    items = list(outcomes)
    if not items:
        raise EmptyBenchmarkError("no outcomes to aggregate")
    for level, _, _, _ in items:
        if level not in _LEVEL_SCOPES:
            raise ValueError(f"unknown difficulty level {level!r}")

    rows = []
    for scope in Scope:
        if scope is Scope.ALL:
            scoped = items
        else:
            scoped = [o for o in items if _LEVEL_SCOPES[o[0]] is scope]
        if not scoped:
            continue
        rows.append(
            AggregateRow(
                scope=scope,
                task_count=len(scoped),
                solved_count=sum(1 for o in scoped if o[1]),
                total_cost_pico=sum(o[2] for o in scoped),
                total_tokens=sum(o[3] for o in scoped),
            )
        )
    return rows


@dataclass(frozen=True)
class ComparisonMetrics:
    cost_reduction_pct: float
    performance_retention_pct: float


def comparison_metrics_values(
    ours_cost: float,
    ours_accuracy: float,
    baseline_cost: float,
    baseline_accuracy: float,
) -> ComparisonMetrics:
    if baseline_cost <= 0:
        raise ZeroDivisionError("baseline mean cost must be positive")
    if baseline_accuracy <= 0:
        raise ZeroDivisionError("baseline accuracy must be positive")
    return ComparisonMetrics(
        cost_reduction_pct=(1.0 - ours_cost / baseline_cost) * 100.0,
        performance_retention_pct=(ours_accuracy / baseline_accuracy) * 100.0,
    )

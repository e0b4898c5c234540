import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentmeter.backend import Purpose, TokenUsage
from agentmeter.config import ModelPricing, PricingTable
from agentmeter.ledger import (
    AggregateRow,
    EmptyBenchmarkError,
    RunLedger,
    Scope,
    aggregate,
    call_cost_pico,
    comparison_metrics_values,
    cost_of_pass,
)
from agentmeter.money import PICO_PER_USD

MICRO = 10**6  # pico-dollars per micro-dollar


def table():
    # 1 micro-dollar per input token, 10 per output token
    return PricingTable({"gpt-4.1": ModelPricing.per_million("1.00", "10.00")})


def test_call_cost_is_exact_integer_math():
    paid = table().lookup("gpt-4.1")
    cost_in, cost_out = call_cost_pico(TokenUsage(1000, 100), paid)
    assert cost_in == 1000 * MICRO
    assert cost_out == 1000 * MICRO


def test_record_and_totals(pricing):
    ledger = RunLedger(pricing)
    ledger.record(Purpose.ACTOR, "gpt-4.1", TokenUsage(100, 10), step_index=0)
    ledger.record(Purpose.PLANNER, "gpt-4.1", TokenUsage(50, 5), step_index=1)
    assert len(ledger.entries) == 2
    assert ledger.prompt_tokens == 150
    assert ledger.completion_tokens == 15
    # 100 + 100 + 50 + 50 = 300 micro-dollars
    assert ledger.total_cost_pico == 300 * MICRO
    assert ledger.entries[1].step_index == 1


def test_record_failure_costs_nothing(pricing):
    ledger = RunLedger(pricing)
    # how a session records a call that failed after retries
    entry = ledger.record(Purpose.ACTOR, "gpt-4.1", TokenUsage(0, 0), 3, "boom")
    assert entry.cost_pico == 0
    assert (entry.prompt_tokens, entry.completion_tokens) == (0, 0)
    assert entry.error == "boom"
    assert ledger.total_cost_pico == 0


def test_estimated_flag_propagates(pricing):
    ledger = RunLedger(pricing)
    ledger.record(Purpose.ACTOR, "gpt-4.1", TokenUsage(1, 1, estimated=True))
    assert ledger.entries[0].estimated


# -- cost of pass ------------------------------------------------------------


def test_cost_of_pass_basic():
    assert cost_of_pass(1.0, 0.5) == 2.0
    assert cost_of_pass(0.0, 1.0) == 0.0


def test_cost_of_pass_infinite_at_zero_success():
    assert cost_of_pass(0.7, 0.0) == math.inf


def test_cost_of_pass_validates_ranges():
    with pytest.raises(ValueError):
        cost_of_pass(-0.1, 0.5)
    with pytest.raises(ValueError):
        cost_of_pass(1.0, 1.5)


# -- aggregation -------------------------------------------------------------


def test_aggregate_emits_all_row_first_then_levels():
    rows = aggregate(
        [
            (1, True, 10 * PICO_PER_USD, 100),
            (2, False, 20 * PICO_PER_USD, 200),
            (1, True, 30 * PICO_PER_USD, 300),
        ]
    )
    assert [r.scope for r in rows] == [Scope.ALL, Scope.L1, Scope.L2]
    top = rows[0]
    assert (top.task_count, top.solved_count) == (3, 2)
    assert top.total_cost_pico == 60 * PICO_PER_USD
    assert rows[1].solved_count == 2
    assert rows[2].cost_of_pass_usd == math.inf


def test_aggregate_rejects_empty_and_bad_level():
    with pytest.raises(EmptyBenchmarkError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([(4, True, 0, 0)])


def test_row_exact_fractions():
    row = AggregateRow(
        scope=Scope.ALL,
        task_count=3,
        solved_count=2,
        total_cost_pico=9140 * MICRO,
        total_tokens=600,
    )
    assert row.mean_cost_exact == Fraction(9140, 3 * 10**6)
    assert row.cost_of_pass_exact == Fraction(9140, 2 * 10**6)
    # ratio identity: cop == mean / accuracy, exactly
    assert row.cost_of_pass_exact == row.mean_cost_exact / Fraction(2, 3)
    assert row.accuracy_pct == pytest.approx(66.6667, abs=1e-4)
    assert row.mean_tokens == 200.0


def test_row_cost_of_pass_exact_raises_when_unsolved():
    row = AggregateRow(Scope.ALL, 2, 0, 100, 10)
    assert row.cost_of_pass_usd == math.inf
    with pytest.raises(ZeroDivisionError):
        row.cost_of_pass_exact


def test_row_validation():
    with pytest.raises(ValueError):
        AggregateRow(Scope.ALL, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        AggregateRow(Scope.ALL, 1, 2, 0, 0)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.booleans(),
            st.integers(min_value=0, max_value=10**12),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_aggregate_closure(outcomes):
    """The all-tasks row accounts for every pico-dollar and token exactly."""
    rows = aggregate(outcomes)
    top = rows[0]
    assert top.total_cost_pico == sum(o[2] for o in outcomes)
    assert top.total_tokens == sum(o[3] for o in outcomes)
    assert top.mean_cost_exact * top.task_count == Fraction(top.total_cost_pico, PICO_PER_USD)
    level_rows = rows[1:]
    assert sum(r.task_count for r in level_rows) == top.task_count
    assert sum(r.total_cost_pico for r in level_rows) == top.total_cost_pico


# -- comparisons -------------------------------------------------------------


def test_comparison_metrics_values():
    m = comparison_metrics_values(
        ours_cost=0.5, ours_accuracy=0.45, baseline_cost=1.0, baseline_accuracy=0.5
    )
    assert m.cost_reduction_pct == pytest.approx(50.0)
    assert m.performance_retention_pct == pytest.approx(90.0)


def test_comparison_rejects_zero_baselines():
    with pytest.raises(ZeroDivisionError):
        comparison_metrics_values(1, 1, 0, 0.5)
    with pytest.raises(ZeroDivisionError):
        comparison_metrics_values(1, 1, 1, 0)

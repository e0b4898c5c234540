import pytest

from agentmeter.money import (
    PICO_PER_USD,
    MoneyResolutionError,
    pico_to_usd,
    usd_to_pico,
)


def test_usd_to_pico_exact_values():
    assert usd_to_pico("1") == PICO_PER_USD
    assert usd_to_pico("0.000001") == 10**6
    assert usd_to_pico("2.50") == 2_500_000_000_000
    assert usd_to_pico(0) == 0


def test_usd_to_pico_accepts_floats_with_exact_representation():
    assert usd_to_pico(0.5) == PICO_PER_USD // 2


def test_usd_to_pico_rejects_sub_pico_amounts():
    with pytest.raises(MoneyResolutionError):
        usd_to_pico("0.0000000000001")  # 1e-13


@pytest.mark.parametrize(
    "amount",
    ["inf", "-Infinity", "nan", "sNaN", float("inf"), float("nan")],
    ids=["inf", "-Infinity", "nan", "sNaN", "float_inf", "float_nan"],
)
def test_usd_to_pico_rejects_non_finite_amounts(amount):
    with pytest.raises(MoneyResolutionError, match="is not a finite amount"):
        usd_to_pico(amount)


def test_pico_to_usd_round_trip():
    assert pico_to_usd(usd_to_pico("3.14")) == pytest.approx(3.14)

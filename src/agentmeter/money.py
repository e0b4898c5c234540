"""Exact money arithmetic in integer pico-dollars (1e-12 USD).

All internal accounting uses integers so that sums, means, and report
numbers are deterministic and exact. Conversion to floats happens only at
the display edge.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation

PICO_PER_USD = 10**12
TOKENS_PER_MILLION = 10**6


class MoneyResolutionError(ValueError):
    """Amount cannot be represented exactly at 1e-12 USD resolution."""


def usd_to_pico(amount: str | int | float | Decimal) -> int:
    """Convert a USD amount to integer pico-dollars, exactly or not at all.

    Floats are interpreted through their shortest decimal repr, so 2e-6
    means two micro-dollars, not the nearest binary fraction.
    """
    try:
        dec = Decimal(str(amount))
    except InvalidOperation as exc:
        raise MoneyResolutionError(f"not a money amount: {amount!r}") from exc
    if not dec.is_finite():
        raise MoneyResolutionError(f"{amount!r} is not a finite amount")
    scaled = dec * PICO_PER_USD
    if scaled != scaled.to_integral_value():
        raise MoneyResolutionError(f"{amount!r} is finer than 1e-12 USD")
    return int(scaled)


def pico_to_usd(pico: int) -> float:
    return pico / PICO_PER_USD

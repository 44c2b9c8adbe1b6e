"""Exact piecewise-linear payoff arithmetic for option portfolios.

A portfolio is an integer quantity per slot of an aligned call/put series;
positive means long, negative short. Terminal payoff at price S is

    sum_i calls[i] * max(S - call_strike[i], 0)
    + sum_i puts[i] * max(put_strike[i] - S, 0)

which is piecewise linear with breakpoints exactly at the series' unique
strikes. All values are integer cents, so every identity here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .market_data import SeriesSelection
from .model_builder import PriceCombination
from .money import CENTS, format_money


@dataclass(frozen=True)
class Portfolio:
    """Integer contract quantities per slot of a series."""

    series: SeriesSelection
    calls: tuple[int, ...]
    puts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.calls) != self.series.n or len(self.puts) != self.series.n:
            raise ValueError(
                f"quantities must have length {self.series.n}: "
                f"{len(self.calls)} calls, {len(self.puts)} puts"
            )

    @property
    def total_contracts(self) -> int:
        """Total number of contracts traded, sum of absolute quantities."""
        return sum(abs(x) for x in self.calls) + sum(abs(x) for x in self.puts)


@dataclass(frozen=True)
class PayoffCurve:
    """Sampled payoff shape: values at breakpoints plus per-interval slopes.

    Slopes are integers (contracts; equivalently currency per index point).
    For consecutive breakpoints a, b: value(b) - value(a) =
    interval_slopes[q] * (b - a) * 100 cents, and both tails extend linearly
    with ``left_tail_slope`` / ``right_tail_slope``.
    """

    breakpoints: tuple[int, ...]
    values: tuple[int, ...]
    interval_slopes: tuple[int, ...]
    left_tail_slope: int
    right_tail_slope: int

    def __post_init__(self) -> None:
        if len(self.values) != len(self.breakpoints):
            raise ValueError("one value per breakpoint required")
        if len(self.interval_slopes) != max(len(self.breakpoints) - 1, 0):
            raise ValueError("one slope per interior interval required")


def payoff(portfolio: Portfolio, price: int) -> int:
    """Terminal payoff in cents at the given terminal price (cents)."""
    if price <= 0:
        raise ValueError(f"price must be positive: {price}")
    series = portfolio.series
    total = 0
    for x, k in zip(portfolio.calls, series.call_strikes):
        total += x * max(price - k * CENTS, 0)
    for x, k in zip(portfolio.puts, series.put_strikes):
        total += x * max(k * CENTS - price, 0)
    return total


def initial_cost(portfolio: Portfolio, combo: PriceCombination) -> int:
    """Net premium paid in cents: positive is a debit, negative a credit.

    Each quantity multiplies its slot's price under ``combo``. Raises
    :class:`ValueError` when a strictly long slot carries a bid price or a
    strictly short slot an ask price; zero quantities are accepted on either
    side.
    """
    n = portfolio.series.n
    total = 0
    prices = combo.prices(portfolio.series)
    quantities = portfolio.calls + portfolio.puts
    for i, (x, bit, price) in enumerate(zip(quantities, combo.bits, prices)):
        leg, slot = ("call", i) if i < n else ("put", i - n)
        if x > 0 and not bit:
            raise ValueError(f"long {leg} slot {slot} priced at bid")
        if x < 0 and bit:
            raise ValueError(f"short {leg} slot {slot} priced at ask")
        total += x * price
    return total


def pnl(portfolio: Portfolio, combo: PriceCombination, price: int) -> int:
    """Terminal profit in cents: payoff at ``price`` minus initial cost."""
    return payoff(portfolio, price) - initial_cost(portfolio, combo)


def interval_slope(portfolio: Portfolio, q: int) -> int:
    """Slope (contracts) on the q-th interval of the unique strike grid.

    With m unique strikes, q=0 is the left tail, q=m the right tail, and
    1 <= q <= m-1 the interval between breakpoints q and q+1 (1-based).
    """
    strikes = portfolio.series.unique_strikes
    m = len(strikes)
    if not 0 <= q <= m:
        raise IndexError(f"interval index {q} outside [0, {m}]")
    if q == 0:
        return -sum(portfolio.puts)
    if q == m:
        return sum(portfolio.calls)
    lo, hi = strikes[q - 1], strikes[q]
    rising = sum(
        x for x, k in zip(portfolio.calls, portfolio.series.call_strikes) if k <= lo
    )
    falling = sum(
        x for x, k in zip(portfolio.puts, portfolio.series.put_strikes) if k >= hi
    )
    return rising - falling


def payoff_curve(portfolio: Portfolio) -> PayoffCurve:
    """Sample the payoff at every unique strike and attach exact slopes."""
    strikes = portfolio.series.unique_strikes
    m = len(strikes)
    return PayoffCurve(
        breakpoints=strikes,
        values=tuple(payoff(portfolio, k * CENTS) for k in strikes),
        interval_slopes=tuple(interval_slope(portfolio, q) for q in range(1, m)),
        left_tail_slope=interval_slope(portfolio, 0),
        right_tail_slope=interval_slope(portfolio, m),
    )


def curve_to_csv(curve: PayoffCurve) -> str:
    """Render ``price,value`` rows: breakpoints plus one sample beyond each tail.

    The tail samples sit one local strike spacing outside the grid so the
    linear tails plot correctly. Every series has a strike, so a curve has
    at least one breakpoint.
    """
    bp = curve.breakpoints
    left_step = bp[1] - bp[0] if len(bp) > 1 else 1
    right_step = bp[-1] - bp[-2] if len(bp) > 1 else 1
    rows = [
        (bp[0] - left_step, curve.values[0] - curve.left_tail_slope * left_step * CENTS)
    ]
    rows += list(zip(bp, curve.values))
    rows.append(
        (
            bp[-1] + right_step,
            curve.values[-1] + curve.right_tail_slope * right_step * CENTS,
        )
    )
    lines = ["price,value"]
    lines += [f"{price},{format_money(value)}" for price, value in rows]
    return "\n".join(lines) + "\n"

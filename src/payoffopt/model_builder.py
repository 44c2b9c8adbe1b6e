"""Compile a target-shape strategy into integer linear programs.

The desired payoff profile is a tent: flat tails, rising up to an inflection
strike, falling after it. For a series of n calls and n puts there are
2^(2n) ways to assign each slot an ask or bid price; each assignment (a
"price combination") yields one bounded integer linear program over the 2n
quantities, with sign consistency encoded in the variable bounds (ask slots
trade long in [0, U], bid slots short in [L, 0]). :func:`build_combined`
joins all of them into one program with a binary side choice per slot, so
one solve maximizes over every combination.

Rows are emitted in a fixed order per subproblem:

1. two tail equalities (call quantities sum to 0, put quantities sum to 0),
2. one slope inequality per interior interval of the unique strike grid
   (>= 0 left of the inflection, inclusive; <= 0 right of it),
3. tail-balance equalities pinning each flat tail to the max-loss floor,
4. a positivity row requiring value >= epsilon at the expected price,
5. an optional cost row (net debit compared against a target).

All data are integers (cents) after row normalization, so feasibility is
checked in exact arithmetic.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .market_data import SeriesSelection, Side
from .money import CENTS
from .payoff_engine import ContractPrices, Portfolio


class SpecError(ValueError):
    """The strategy spec is internally invalid or incompatible with a series."""


class CapacityError(ValueError):
    """A bound box too large for :func:`~payoffopt.ilp_solver.brute_force`:
    more than :data:`~payoffopt.ilp_solver.BRUTE_FORCE_LIMIT` points."""


class Relation(enum.Enum):
    """Row comparison operator; also used for cost-target comparators."""

    LE = "<="
    GE = ">="
    EQ = "="


class TailLossMode(enum.Enum):
    """How the tail-balance and positivity rows value the portfolio.

    PNL: net of initial cost (tail P&L equals the max-loss floor, value at
    the expected price is the objective). PAYOFF_ONLY: gross payoff, cost
    ignored in those rows.
    """

    PNL = "pnl"
    PAYOFF_ONLY = "payoff_only"


@dataclass(frozen=True)
class CostTarget:
    """Constrain net debit: ``cost <comparator> value`` (cents)."""

    comparator: Relation
    value: int


@dataclass(frozen=True)
class StrategySpec:
    """Investor inputs for one optimization run.

    ``expected_price``, ``max_loss``, ``epsilon`` and any cost target are in
    cents; ``inflection`` is a strike in index points and must be one of the
    series' unique strikes at build time. ``lower``/``upper`` bound every
    quantity and must straddle zero. ``max_loss`` is the flat tail level,
    typically negative (a bounded loss).
    """

    expected_price: int
    inflection: int
    max_loss: int
    lower: int
    upper: int
    cost_target: CostTarget | None = None
    epsilon: int = 1
    tail_loss_mode: TailLossMode = TailLossMode.PNL
    balance_left_tail: bool = True
    balance_right_tail: bool = True

    def __post_init__(self) -> None:
        if self.expected_price <= 0:
            raise SpecError(f"expected price must be positive: {self.expected_price}")
        if self.inflection <= 0:
            raise SpecError(f"inflection must be a positive strike: {self.inflection}")
        if not self.lower < 0 < self.upper:
            raise SpecError(
                f"bounds must straddle zero: lower {self.lower}, upper {self.upper}"
            )
        if self.epsilon <= 0:
            raise SpecError(f"epsilon must be positive: {self.epsilon}")


@dataclass(frozen=True)
class PriceCombination:
    """One ask/bid assignment per slot, calls first.

    ``index`` is the big-endian encoding of the side bits (ask=1): the first
    call slot is the most significant bit, the last put slot the least.
    """

    index: int
    call_sides: tuple[Side, ...]
    put_sides: tuple[Side, ...]

    def __post_init__(self) -> None:
        if len(self.call_sides) != len(self.put_sides):
            raise ValueError("call and put side tuples must share one length")
        if self.index != _encode_sides(self.call_sides + self.put_sides):
            raise ValueError(f"index {self.index} does not match the side bits")

    @classmethod
    def from_index(cls, n: int, index: int) -> "PriceCombination":
        if n < 0:
            raise ValueError(f"series length must be non-negative: {n}")
        if not 0 <= index < (1 << (2 * n)):
            raise ValueError(f"combination index {index} outside [0, {1 << (2 * n)})")
        bits = 2 * n
        sides = tuple(
            Side.ASK if (index >> (bits - 1 - i)) & 1 else Side.BID
            for i in range(bits)
        )
        return cls(index=index, call_sides=sides[:n], put_sides=sides[n:])

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "PriceCombination":
        """The combination with these side bits (1 = ask), calls first."""
        index = 0
        for bit in bits:
            index = (index << 1) | bit
        return cls.from_index(len(bits) // 2, index)

    @property
    def bitstring(self) -> str:
        """Side bits as text, most significant first; empty for n=0."""
        bits = len(self.call_sides) + len(self.put_sides)
        return format(self.index, f"0{bits}b") if bits else ""

    def contract_prices(self, series: SeriesSelection) -> ContractPrices:
        """Resolve this combination against a series' quotes."""
        if len(self.call_sides) != series.n:
            raise ValueError("combination and series must share one length")
        return ContractPrices(
            call_prices=tuple(
                series.call_asks[i] if s is Side.ASK else series.call_bids[i]
                for i, s in enumerate(self.call_sides)
            ),
            put_prices=tuple(
                series.put_asks[i] if s is Side.ASK else series.put_bids[i]
                for i, s in enumerate(self.put_sides)
            ),
            call_sides=self.call_sides,
            put_sides=self.put_sides,
        )


def _encode_sides(sides: tuple[Side, ...]) -> int:
    index = 0
    for side in sides:
        index = (index << 1) | (1 if side is Side.ASK else 0)
    return index


Rational = int | Fraction


def _common_integer_scale(values: Sequence[Rational]) -> int:
    denominators = [
        v.denominator for v in values if isinstance(v, Fraction) and v.denominator != 1
    ]
    return math.lcm(*denominators) if denominators else 1


@dataclass(frozen=True)
class Row:
    """One linear constraint ``coeffs . x  <relation>  rhs``.

    Inputs may be ints or Fractions; the row is normalized at construction to
    a common integer scaling (feasible set unchanged), so evaluation is exact
    integer arithmetic. Residuals are reported in the scaled units.
    """

    name: str
    coeffs: tuple[int, ...]
    relation: Relation
    rhs: int

    @classmethod
    def of(
        cls,
        name: str,
        coeffs: Sequence[Rational],
        relation: Relation,
        rhs: Rational,
    ) -> "Row":
        scale = _common_integer_scale([*coeffs, rhs])
        return cls(
            name=name,
            coeffs=tuple(int(c * scale) for c in coeffs),
            relation=relation,
            rhs=int(rhs * scale),
        )

    def evaluate(self, x: Sequence[int]) -> int:
        return sum(c * v for c, v in zip(self.coeffs, x))

    def residual(self, x: Sequence[int]) -> int:
        """Signed slack: value minus rhs."""
        return self.evaluate(x) - self.rhs

    def satisfied(self, x: Sequence[int]) -> bool:
        r = self.residual(x)
        if self.relation is Relation.LE:
            return r <= 0
        if self.relation is Relation.GE:
            return r >= 0
        return r == 0


@dataclass(frozen=True)
class IlpProblem:
    """A bounded integer linear program: maximize ``objective . x + constant``.

    In a subproblem, slots 0..n-1 are call quantities and n..2n-1 puts (see
    :func:`build_combined` for the combined layout). Objective coefficients
    and constant are integer cents; every slot has finite integer bounds.
    """

    objective: tuple[int, ...]
    objective_constant: int
    rows: tuple[Row, ...]
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.bounds) != len(self.objective):
            raise ValueError("one bound pair per objective coefficient required")
        for row in self.rows:
            if len(row.coeffs) != len(self.objective):
                raise ValueError(f"row {row.name!r} has wrong width")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty bound interval ({lo}, {hi})")

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def objective_value(self, x: Sequence[int]) -> int:
        return sum(c * v for c, v in zip(self.objective, x)) + self.objective_constant


@dataclass(frozen=True)
class ConstraintViolation:
    """One exact infeasibility found by :func:`check_feasible`."""

    kind: str
    index: int
    name: str
    residual: int


def build_subproblem(
    spec: StrategySpec, series: SeriesSelection, combo: PriceCombination
) -> IlpProblem:
    """Compile spec + series + one price combination into an IlpProblem."""
    n = series.n
    if len(combo.call_sides) != n:
        raise ValueError("combination and series must share one length")
    strikes = series.unique_strikes
    if spec.inflection not in strikes:
        raise SpecError(
            f"inflection-not-in-K: {spec.inflection} not among strikes {strikes}"
        )
    prices = combo.contract_prices(series)
    price_vec = prices.call_prices + prices.put_prices

    call_intrinsic = [
        max(spec.expected_price - k * CENTS, 0) for k in series.call_strikes
    ]
    put_intrinsic = [
        max(k * CENTS - spec.expected_price, 0) for k in series.put_strikes
    ]
    objective = tuple(
        intrinsic - price
        for intrinsic, price in zip(call_intrinsic + put_intrinsic, price_vec)
    )

    rows: list[Row] = [
        Row.of("tail_calls", [1] * n + [0] * n, Relation.EQ, 0),
        Row.of("tail_puts", [0] * n + [1] * n, Relation.EQ, 0),
    ]
    for lo, hi in zip(strikes, strikes[1:]):
        coeffs = [1 if k <= lo else 0 for k in series.call_strikes]
        coeffs += [-1 if k >= hi else 0 for k in series.put_strikes]
        relation = Relation.GE if lo <= spec.inflection else Relation.LE
        rows.append(Row.of(f"slope[{lo},{hi}]", coeffs, relation, 0))

    pnl_mode = spec.tail_loss_mode is TailLossMode.PNL
    cost_coeffs = list(price_vec)
    if spec.balance_left_tail:
        # left tail payoff constant is sum(put_strike * put_qty)
        payoff_coeffs = [0] * n + [k * CENTS for k in series.put_strikes]
        if pnl_mode:
            coeffs = [p - c for p, c in zip(payoff_coeffs, cost_coeffs)]
            rows.append(Row.of("balance_left", coeffs, Relation.EQ, spec.max_loss))
        else:
            rows.append(
                Row.of("balance_left", payoff_coeffs, Relation.EQ, -spec.max_loss)
            )
    if spec.balance_right_tail:
        # right tail payoff constant is -sum(call_strike * call_qty)
        payoff_coeffs = [-k * CENTS for k in series.call_strikes] + [0] * n
        if pnl_mode:
            coeffs = [p - c for p, c in zip(payoff_coeffs, cost_coeffs)]
            rows.append(Row.of("balance_right", coeffs, Relation.EQ, spec.max_loss))
        else:
            rows.append(
                Row.of("balance_right", payoff_coeffs, Relation.EQ, -spec.max_loss)
            )

    positivity_coeffs = (
        list(objective) if pnl_mode else call_intrinsic + put_intrinsic
    )
    rows.append(Row.of("positivity", positivity_coeffs, Relation.GE, spec.epsilon))

    if spec.cost_target is not None:
        rows.append(
            Row.of(
                "cost",
                cost_coeffs,
                spec.cost_target.comparator,
                spec.cost_target.value,
            )
        )

    bounds = tuple(
        (0, spec.upper) if side is Side.ASK else (spec.lower, 0)
        for side in itertools.chain(combo.call_sides, combo.put_sides)
    )
    return IlpProblem(
        objective=objective,
        objective_constant=0,
        rows=tuple(rows),
        bounds=bounds,
    )


def build_combined(spec: StrategySpec, series: SeriesSelection) -> IlpProblem:
    """One program covering every price combination at once.

    Variables are ``[z_0..z_{2n-1}, p_0, r_0, p_1, r_1, ...]``. The binary
    ``z_i`` is slot i's side (1 = ask, as in :class:`PriceCombination`),
    ``p_i`` in [0, U] its long part, ``r_i`` in [L, 0] its short part, and
    the quantity is ``x_i = p_i + r_i``. The rows ``p_i - U z_i <= 0`` and
    ``r_i + L z_i >= L`` pin ``r_i`` to 0 on the ask side and ``p_i`` to 0
    on the bid side, so fixing z leaves exactly that combination's
    subproblem; with finite bounds this big-M disjunction is exact (Balas,
    "Disjunctive programming", 1979). A slot's coefficients depend only on
    its own side, so every row and the objective take the all-ask
    subproblem's coefficients on p and the all-bid subproblem's on r.

    The variable order makes the lexicographically smallest optimum (what
    ``solve_ilp`` refines to) the lowest optimal combination index first and
    then the lexicographically smallest quantities.
    :func:`~payoffopt.optimizer.optimize` reaches the same answer in fewer
    solves: it refines only the side bits here, decodes that point with
    :func:`decode_combined`, and refines the quantities on that
    combination's own subproblem.
    """
    slots = 2 * series.n
    ask = build_subproblem(
        spec, series, PriceCombination.from_index(series.n, (1 << slots) - 1)
    )
    bid = build_subproblem(spec, series, PriceCombination.from_index(series.n, 0))
    assert [(r.name, r.relation, r.rhs) for r in ask.rows] == [
        (r.name, r.relation, r.rhs) for r in bid.rows
    ]

    def lift(ask_coeffs: Sequence[int], bid_coeffs: Sequence[int]) -> tuple[int, ...]:
        interleaved = itertools.chain.from_iterable(zip(ask_coeffs, bid_coeffs))
        return (0,) * slots + tuple(interleaved)

    rows = [
        Row(a.name, lift(a.coeffs, b.coeffs), a.relation, a.rhs)
        for a, b in zip(ask.rows, bid.rows)
    ]
    width = 3 * slots
    for i in range(slots):
        coeffs = [0] * width
        coeffs[i], coeffs[slots + 2 * i] = -spec.upper, 1
        rows.append(Row(f"ask[{i}]", tuple(coeffs), Relation.LE, 0))
        coeffs = [0] * width
        coeffs[i], coeffs[slots + 2 * i + 1] = spec.lower, 1
        rows.append(Row(f"bid[{i}]", tuple(coeffs), Relation.GE, spec.lower))
    return IlpProblem(
        objective=lift(ask.objective, bid.objective),
        objective_constant=0,
        rows=tuple(rows),
        bounds=((0, 1),) * slots + ((0, spec.upper), (spec.lower, 0)) * slots,
    )


def decode_combined(
    n: int, values: Sequence[int]
) -> tuple[PriceCombination, tuple[int, ...]]:
    """The combination and quantities ``x_i = p_i + r_i`` of a
    :func:`build_combined` point."""
    slots = 2 * n
    parts = values[slots:]
    quantities = tuple(p + r for p, r in zip(parts[0::2], parts[1::2]))
    return PriceCombination.from_bits(values[:slots]), quantities


def check_feasible(portfolio: Portfolio, problem: IlpProblem) -> list[ConstraintViolation]:
    """Exactly evaluate every bound and row; empty report means feasible."""
    x = portfolio.calls + portfolio.puts
    if len(x) != problem.num_vars:
        raise ValueError(
            f"portfolio has {len(x)} slots, problem expects {problem.num_vars}"
        )
    report: list[ConstraintViolation] = []
    for i, (v, (lo, hi)) in enumerate(zip(x, problem.bounds)):
        if v < lo:
            report.append(ConstraintViolation("bound", i, f"slot {i}", v - lo))
        elif v > hi:
            report.append(ConstraintViolation("bound", i, f"slot {i}", v - hi))
    for i, row in enumerate(problem.rows):
        if not row.satisfied(x):
            report.append(ConstraintViolation("row", i, row.name, row.residual(x)))
    return report

"""Compile a target-shape strategy into integer linear programs.

The desired payoff profile is a tent: flat tails, rising up to an inflection
strike, falling after it. For a series of n calls and n puts there are
2^(2n) ways to assign each slot an ask or bid price; each assignment (a
"price combination") yields one bounded integer linear program over the 2n
quantities, with sign consistency encoded in the variable bounds (ask slots
trade long in [0, U], bid slots short in [L, 0]). :func:`build_combined`
joins all of them into one program with a binary side choice per slot, so
one solve maximizes over every combination; its side bits ``z`` are
:attr:`PriceCombination.bits`. A side row per slot lets that
choice be ask only when the slot buys, so each quantity vector has one side
vector and the solver does not search copies of one optimum that differ
only in the sides of slots that trade nothing.

Rows are emitted in a fixed order per subproblem:

1. two tail equalities (call quantities sum to 0, put quantities sum to 0),
2. one slope inequality per interior interval of the unique strike grid
   (>= 0 left of the inflection, inclusive; <= 0 right of it),
3. tail-balance equalities pinning each flat tail to the max-loss floor,
4. a positivity row requiring value >= epsilon at the expected price,
5. an optional cost row (net debit compared against a target).

Every coefficient and right-hand side is an integer (cents or contract
counts), so feasibility is checked in exact arithmetic. One generator writes
every row, with each slot's coefficient at its ask and at its bid;
:func:`build_subproblem` picks a side per slot from it, and
:func:`build_combined` puts both sides in its own columns. From the strategy's
equality rows alone (:func:`equality_rows`), before the combined program is
built, :func:`unreachable_row` and :func:`off_lattice_rows` prove every
combination infeasible when an equality row cannot be met within the
bounds, or when the equality rows have no integer solution at all; each
names its rows.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .market_data import SeriesSelection
from .money import CENTS


class SpecError(ValueError):
    """The strategy spec is internally invalid or incompatible with a series."""


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
    """One ask/bid choice per slot: ``bits[i]`` is 1 when slot i trades at
    its ask (long) and 0 at its bid (short), calls first.

    These are the side bits ``z`` of :func:`build_combined` and, as text,
    a solution's ``combination``. The combination index reads them
    big-endian: the first call slot is the most significant bit, the last
    put slot the least.
    """

    bits: tuple[int, ...]

    @classmethod
    def parse(cls, text: object, n: int) -> "PriceCombination":
        """The combination a :attr:`bitstring` of a series of n writes."""
        if not isinstance(text, str) or len(text) != 2 * n or set(text) - {"0", "1"}:
            raise ValueError(
                f"combination bitstring {text!r} does not fit a series of {n}"
            )
        return cls(tuple(int(b) for b in text))

    @property
    def bitstring(self) -> str:
        """The side bits as text, most significant first."""
        return "".join(str(b) for b in self.bits)

    def prices(self, series: SeriesSelection) -> tuple[int, ...]:
        """One price in cents per slot: the ask where the bit is 1, else the bid."""
        if len(self.bits) != 2 * series.n:
            raise ValueError("combination and series must share one length")
        asks = series.call_asks + series.put_asks
        bids = series.call_bids + series.put_bids
        return tuple(a if bit else b for bit, a, b in zip(self.bits, asks, bids))


@dataclass(frozen=True)
class Row:
    """One linear constraint ``coeffs . x  <relation>  rhs`` over integers,
    so evaluation is exact."""

    name: str
    coeffs: tuple[int, ...]
    relation: Relation
    rhs: int

    def satisfied(self, x: Sequence[int]) -> bool:
        r = sum(map(operator.mul, self.coeffs, x)) - self.rhs
        if self.relation is Relation.LE:
            return r <= 0
        if self.relation is Relation.GE:
            return r >= 0
        return r == 0


@dataclass(frozen=True)
class IlpProblem:
    """A bounded integer linear program: maximize ``objective . x``.

    In a subproblem, slots 0..n-1 are call quantities and n..2n-1 puts (see
    :func:`build_combined` for the combined layout). Objective coefficients
    are integer cents; there is at least one slot, and every slot has finite
    integer bounds.
    """

    objective: tuple[int, ...]
    rows: tuple[Row, ...]
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.objective:
            raise ValueError("a program needs at least one variable")
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


# a row as the generators below give it, ``(name, ask, bid, relation, rhs)``:
# ``ask[i]`` is slot i's coefficient when it trades at its ask, ``bid[i]``
# when it trades at its bid
GeneratedRow = tuple[str, tuple[int, ...], tuple[int, ...], Relation | None, int]


def _strikes(spec: StrategySpec, series: SeriesSelection) -> tuple[int, ...]:
    """The series' unique strikes; an inflection that is not one of them
    raises :class:`SpecError`."""
    strikes = series.unique_strikes
    if spec.inflection not in strikes:
        raise SpecError(
            f"inflection-not-in-K: {spec.inflection} not among strikes {strikes}"
        )
    return strikes


def _prices(series: SeriesSelection) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every slot's ask and every slot's bid, calls first."""
    return series.call_asks + series.put_asks, series.call_bids + series.put_bids


def _tail_rows(n: int) -> Iterator[GeneratedRow]:
    """The two tail equalities: the call and the put quantities sum to 0."""
    calls, puts = (1,) * n + (0,) * n, (0,) * n + (1,) * n
    yield "tail_calls", calls, calls, Relation.EQ, 0
    yield "tail_puts", puts, puts, Relation.EQ, 0


def _balance_rows(
    spec: StrategySpec,
    series: SeriesSelection,
    asks: tuple[int, ...],
    bids: tuple[int, ...],
) -> Iterator[GeneratedRow]:
    """The tail-balance equalities the spec asks for, left then right."""
    n = series.n
    tails = []
    if spec.balance_left_tail:
        # left tail payoff constant is sum(put_strike * put_qty)
        tails.append(
            ("balance_left", (0,) * n + tuple(k * CENTS for k in series.put_strikes))
        )
    if spec.balance_right_tail:
        # right tail payoff constant is -sum(call_strike * call_qty)
        tails.append(
            ("balance_right", tuple(-k * CENTS for k in series.call_strikes) + (0,) * n)
        )
    for name, payoff_coeffs in tails:
        if spec.tail_loss_mode is TailLossMode.PNL:
            ask = tuple(map(operator.sub, payoff_coeffs, asks))
            bid = tuple(map(operator.sub, payoff_coeffs, bids))
            yield name, ask, bid, Relation.EQ, spec.max_loss
        else:
            yield name, payoff_coeffs, payoff_coeffs, Relation.EQ, -spec.max_loss


def _cost_rows(
    spec: StrategySpec, asks: tuple[int, ...], bids: tuple[int, ...]
) -> Iterator[GeneratedRow]:
    """The cost row, when the spec has a cost target."""
    if spec.cost_target is not None:
        target = spec.cost_target
        yield "cost", asks, bids, target.comparator, target.value


def _rows(spec: StrategySpec, series: SeriesSelection) -> Iterator[GeneratedRow]:
    """The objective, then every subproblem row in build order.

    The objective comes first, named ``objective``, with relation ``None``
    and right-hand side 0. A row that reads no price gives one tuple for
    both sides. An inflection that is not a strike raises before anything
    is yielded.
    """
    strikes = _strikes(spec, series)
    asks, bids = _prices(series)
    intrinsic = tuple(
        [max(spec.expected_price - k * CENTS, 0) for k in series.call_strikes]
        + [max(k * CENTS - spec.expected_price, 0) for k in series.put_strikes]
    )
    objective = (
        tuple(map(operator.sub, intrinsic, asks)),
        tuple(map(operator.sub, intrinsic, bids)),
    )
    yield "objective", *objective, None, 0

    yield from _tail_rows(series.n)
    for lo, hi in zip(strikes, strikes[1:]):
        coeffs = tuple(
            [1 if k <= lo else 0 for k in series.call_strikes]
            + [-1 if k >= hi else 0 for k in series.put_strikes]
        )
        relation = Relation.GE if lo <= spec.inflection else Relation.LE
        yield f"slope[{lo},{hi}]", coeffs, coeffs, relation, 0

    yield from _balance_rows(spec, series, asks, bids)

    pnl_mode = spec.tail_loss_mode is TailLossMode.PNL
    positivity = objective if pnl_mode else (intrinsic, intrinsic)
    yield "positivity", *positivity, Relation.GE, spec.epsilon

    yield from _cost_rows(spec, asks, bids)


# an equality row as :func:`equality_rows` gives it: (name, ask, bid, rhs)
EqualityRow = tuple[str, tuple[int, ...], tuple[int, ...], int]


def equality_rows(
    spec: StrategySpec, series: SeriesSelection
) -> tuple[EqualityRow, ...]:
    """Every equality row of the strategy's subproblems, in build order, as
    ``(name, ask, bid, rhs)``; ``ask`` and ``bid`` hold each slot's
    coefficient at its ask and at its bid.

    These are the equality rows of :func:`build_combined` without side-bit
    coefficients, with ``ask`` on the ``p`` columns and ``bid`` on the ``r``
    columns, computed without building that program: only the generators
    of :func:`_rows` that can give an equality run. An inflection that is
    not a strike raises :class:`SpecError`.
    """
    _strikes(spec, series)
    asks, bids = _prices(series)
    rows = itertools.chain(
        _tail_rows(series.n),
        _balance_rows(spec, series, asks, bids),
        _cost_rows(spec, asks, bids),
    )
    return tuple(
        (name, ask, bid, rhs)
        for name, ask, bid, relation, rhs in rows
        if relation is Relation.EQ
    )


def build_subproblem(
    spec: StrategySpec, series: SeriesSelection, combo: PriceCombination
) -> IlpProblem:
    """Compile spec + series + one price combination into an IlpProblem."""
    if len(combo.bits) != 2 * series.n:
        raise ValueError("combination and series must share one length")

    def pick(ask: tuple[int, ...], bid: tuple[int, ...]) -> tuple[int, ...]:
        if ask is bid:
            return ask
        return tuple([a if bit else b for bit, a, b in zip(combo.bits, ask, bid)])

    rows = _rows(spec, series)
    _, ask, bid, _, _ = next(rows)
    return IlpProblem(
        objective=pick(ask, bid),
        rows=tuple(
            Row(name, pick(ask, bid), relation, rhs)
            for name, ask, bid, relation, rhs in rows
        ),
        bounds=tuple((0, spec.upper) if b else (spec.lower, 0) for b in combo.bits),
    )


def build_combined(spec: StrategySpec, series: SeriesSelection) -> IlpProblem:
    """One program covering every price combination at once.

    Variables are ``[z_0..z_{2n-1}, p_0, r_0, p_1, r_1, ...]``. The binary
    ``z`` are :attr:`PriceCombination.bits` (``z_i = 1``: slot i at its ask),
    ``p_i`` in [0, U] its long part, ``r_i`` in [L, 0] its short part, and
    the quantity is ``x_i = p_i + r_i``. The rows ``p_i - U z_i <= 0`` and
    ``r_i + L z_i >= L`` pin ``r_i`` to 0 on the ask side and ``p_i`` to 0
    on the bid side; with finite bounds this big-M disjunction is exact
    (Balas, "Disjunctive programming", 1979). A slot's coefficients depend
    only on its own side, so every row and the objective take each slot's
    ask-side coefficient on p and its bid-side coefficient on r.

    The row ``z_i - p_i <= 0`` lets a slot take the ask side only when it
    buys at least one lot, so ``z_i = [x_i >= 1]``. Without it a slot at
    zero lots fits either side, every optimum has a copy per side vector of
    its zero slots, and the solver searches them all (symmetry-breaking
    rows; Sherali & Smith, *Management Science* 2001; Margot, "Symmetry in
    integer linear programming", 2010). Fixing z leaves that combination's
    subproblem with each ask slot's lower bound raised to 1. Answers cannot
    move:

    - The optimum value is kept. Setting every zero slot's bit to 0 turns
      any point of the program without side rows into a point of this one:
      the slot's ``p_i`` and ``r_i`` are 0, so its link rows hold on either
      side, and z appears in no other row nor in the objective.
    - The lowest optimal combination index is kept. No optimal point of the
      lowest optimal combination holds an ask slot at zero lots, or flipping
      that slot to bid would give a lower optimal index with the same point.
      So every such point satisfies the side rows.
    - The quantities of that combination are kept. With z fixed
      (:func:`combination_bounds`) this program restricts that combination's
      subproblem, so its points at the overall optimum are optima of the
      subproblem, and by the point above they are all of them.

    The variable order makes the lexicographically smallest optimum (what
    ``Program.refine`` finds) the lowest optimal combination index first and
    then, among points that buy at least one lot in every ask slot, the
    lexicographically smallest quantities.
    :func:`~payoffopt.optimizer.optimize` refines the side bits first, fixes
    them with :func:`combination_bounds`, refines the quantities on the same
    program, and decodes the final point with :func:`decode_combined`.
    """
    slots = 2 * series.n

    def lift(ask_coeffs: Sequence[int], bid_coeffs: Sequence[int]) -> tuple[int, ...]:
        interleaved = itertools.chain.from_iterable(zip(ask_coeffs, bid_coeffs))
        return (0,) * slots + tuple(interleaved)

    generated = _rows(spec, series)
    _, ask, bid, _, _ = next(generated)
    objective = lift(ask, bid)
    rows = [
        Row(name, lift(ask, bid), relation, rhs)
        for name, ask, bid, relation, rhs in generated
    ]
    width = 3 * slots
    for i in range(slots):
        coeffs = [0] * width
        coeffs[i], coeffs[slots + 2 * i] = -spec.upper, 1
        rows.append(Row(f"ask[{i}]", tuple(coeffs), Relation.LE, 0))
        coeffs = [0] * width
        coeffs[i], coeffs[slots + 2 * i + 1] = spec.lower, 1
        rows.append(Row(f"bid[{i}]", tuple(coeffs), Relation.GE, spec.lower))
        coeffs = [0] * width
        coeffs[i], coeffs[slots + 2 * i] = 1, -1
        rows.append(Row(f"side[{i}]", tuple(coeffs), Relation.LE, 0))
    return IlpProblem(
        objective=objective,
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
    return PriceCombination(tuple(values[:slots])), quantities


def combination_bounds(
    n: int, problem: IlpProblem, values: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Bounds that hold the :func:`build_combined` program ``problem`` to the
    combination of the side bits in ``values``.

    Each ``z_i`` is fixed at its value. An ask slot keeps ``p_i`` in
    [1, U], the side row's floor, and gets ``r_i = 0``; a bid slot gets
    ``p_i = 0`` and keeps ``r_i`` in [L, 0]. These are the values the link
    and side rows force once z is fixed, so the program within these bounds
    is that combination's subproblem with every ask slot at one lot or
    more. When the combination is the lowest optimal one, its optima are
    exactly the subproblem's: no optimal point of it holds an ask slot at
    zero lots, or the bid side there would give a lower optimal index (see
    :func:`build_combined`). Every forced column sits at its lower bound,
    and one of ``p_i``, ``r_i`` is fixed per slot, so lexicographic order
    over ``(p_0, r_0, p_1, ...)`` is lexicographic order over the
    quantities.
    """
    slots = 2 * n
    bounds = [(z, z) for z in values[:slots]]
    for z, (_, upper), (lower, _) in zip(
        values[:slots], problem.bounds[slots::2], problem.bounds[slots + 1 :: 2]
    ):
        bounds += [(1, upper), (0, 0)] if z else [(0, 0), (lower, 0)]
    return tuple(bounds)


# most points either half of a row's box may hold for :func:`unreachable_row`
# to enumerate it; a row with a larger half is not tested
_HALF_BOX = 2**12


def _sums(slots: Sequence[tuple[int, int]], lower: int, upper: int) -> set[int]:
    """Every total that ``slots`` add to a row together. Each slot is an
    (ask, bid) pair and adds ``ask * x`` for x in [1, upper], ``bid * x``
    for x in [lower, -1], or 0."""
    sums = {0}
    for ask, bid in slots:
        values = {0}
        values.update(ask * x for x in range(1, upper + 1))
        values.update(bid * x for x in range(lower, 0))
        sums = {s + v for s in sums for v in values}
    return sums


def unreachable_row(
    rows: Sequence[EqualityRow], lower: int, upper: int
) -> str | None:
    """The name of the first of the equality ``rows`` that no quantity
    vector in the box [lower, upper] meets, or ``None``.

    A slot that buys ``x >= 1`` lots adds its ask-side coefficient times
    ``x`` to a row, one that sells adds its bid-side coefficient times
    ``x``, and one that trades nothing adds 0: the integer points of
    :func:`build_combined` are exactly these (its link and side rows). A
    row no quantity vector in the box meets this way proves every
    combination infeasible.

    Each row is decided exactly, in Python integers, by meet in the middle
    (Horowitz & Sahni, *J. ACM* 1974): the slots the row reads are split
    into two halves, each half's totals are enumerated, and the right-hand
    side minus each total of one half is looked up among the other's. Two
    kinds of row are skipped unenumerated: one whose right-hand side is 0,
    which the zero vector meets (the box straddles zero, see
    :class:`StrategySpec`), and one where either half's box holds more than
    :data:`_HALF_BOX` points, which the bounds tell at once.
    """
    for name, ask, bid, rhs in rows:
        if rhs == 0:
            continue
        live = [(a, b) for a, b in zip(ask, bid) if a or b]
        middle = len(live) // 2
        if (upper - lower + 1) ** (len(live) - middle) > _HALF_BOX:
            continue  # the larger half, live[middle:], holds too many points
        left = _sums(live[:middle], lower, upper)
        right = _sums(live[middle:], lower, upper)
        if not any(rhs - total in right for total in left):
            return name
    return None


def off_lattice_rows(rows: Sequence[EqualityRow]) -> tuple[str, ...] | None:
    """The equality ``rows`` that together have no integer solution, bounds
    ignored, or ``None`` when they have one.

    The unknowns are the ask-side and the bid-side quantity of every slot,
    one column each: the ``p`` and ``r`` columns of :func:`build_combined`.
    Unimodular column operations (Euclid on each row in turn) bring the
    equality matrix to Hermite normal form (Kannan & Bachem, *SIAM J.
    Comput.* 1979; Schrijver, *Theory of Linear and Integer Programming*,
    1986, Cor. 4.1a); the variable of each row's pivot column is then forced
    to one value, which must be an integer, and a row left with no pivot
    must already hold. The rows returned are those used up to the first
    that fails; which row fails first depends on the rows' order only, not
    on the columns'.
    """
    rhs = [row[3] for row in rows]
    columns = [list(col) for col in zip(*(ask + bid for _, ask, bid, _ in rows))]
    for i in range(len(rows)):
        live = [col for col in columns if col[i]]
        while len(live) > 1:
            pivot = min(live, key=lambda col: abs(col[i]))
            for col in live:
                if col is not pivot:
                    q = col[i] // pivot[i]
                    for k in range(i, len(col)):
                        col[k] -= q * pivot[k]
            live = [col for col in live if col[i]]
        remainder = rhs[i]
        if live:
            pivot = live[0]
            value, remainder = divmod(rhs[i], pivot[i])
            for k in range(i + 1, len(rhs)):
                rhs[k] -= value * pivot[k]
            columns = [col for col in columns if col is not pivot]
        if remainder:
            return tuple(row[0] for row in rows[: i + 1])
    return None

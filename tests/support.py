"""Shared test helpers: random instances, exhaustive reference solvers and
exact checks the library itself does not need.

The reference optimizer here solves every price combination's subproblem
separately with :func:`brute_force`, which enumerates the full integer box,
so agreement with the production optimizer (one combined program solved by
HiGHS) is a genuine two-route check.

:func:`record_work` is the only wrapper of ``ilp_solver._run``, the function
every HiGHS run goes through, in the tests. A test that fakes a run passes a
``fake`` to it (see :func:`fake_milp_runs`), and installs it once: a second
:func:`record_work` in one test would wrap the first.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
from collections import Counter, namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

import payoffopt.ilp_solver
import payoffopt.optimizer
from payoffopt.cli import load_run_config
from payoffopt.ilp_solver import solve_ilp
from payoffopt.market_data import OptionChain, SeriesSelection, parse_chain, select_series
from payoffopt.model_builder import (
    CostTarget,
    IlpProblem,
    PriceCombination,
    Relation,
    Row,
    StrategySpec,
    TailLossMode,
    build_subproblem,
)
from payoffopt.money import format_money
from payoffopt.payoff_engine import Portfolio
from conftest import FIXTURES

# most points brute_force will enumerate
BRUTE_FORCE_LIMIT = 100_000_000


class CapacityError(ValueError):
    """A bound box too large for :func:`brute_force`: more than
    :data:`BRUTE_FORCE_LIMIT` points."""


@dataclass(frozen=True)
class IntSolution:
    """An exact integer optimum: slot values and objective in cents."""

    x: tuple[int, ...]
    objective: int


def solve_refined(problem: IlpProblem) -> IntSolution | None:
    """The lexicographically smallest optimum of ``problem``, or ``None``
    when it is infeasible: :func:`solve_ilp`, then its program's refine over
    every column."""
    program = solve_ilp(problem)
    if program is None:
        return None
    return IntSolution(program.refine(program.x, problem.num_vars), program.objective)


def objective_value(problem: IlpProblem, x: Sequence[int]) -> int:
    """``problem``'s objective at ``x``."""
    return sum(c * v for c, v in zip(problem.objective, x))


def brute_force(problem: IlpProblem) -> IntSolution | None:
    """Exhaustively enumerate the bound box in int64 chunks; oracle twin of
    :func:`solve_refined`.

    Same contract: maximal objective, lexicographically smallest vector among
    optima, ``None`` when infeasible. Raises :class:`CapacityError` when the
    box holds more than :data:`BRUTE_FORCE_LIMIT` points.
    """
    widths = [hi - lo + 1 for lo, hi in problem.bounds]
    total = math.prod(widths)
    if total > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"bound box holds {total} points, above the {BRUTE_FORCE_LIMIT} limit"
        )
    lows = np.array([lo for lo, _ in problem.bounds], dtype=np.int64)
    widths_arr = np.array(widths, dtype=np.int64)
    weights = np.ones(problem.num_vars, dtype=np.int64)
    for j in range(problem.num_vars - 2, -1, -1):
        weights[j] = weights[j + 1] * widths_arr[j + 1]
    coeff_matrix = (
        np.array([row.coeffs for row in problem.rows], dtype=np.int64).T
        if problem.rows
        else None
    )
    c = np.array(problem.objective, dtype=np.int64)
    best: tuple[int, tuple[int, ...]] | None = None
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        grid = lows[None, :] + (idx[:, None] // weights[None, :]) % widths_arr[None, :]
        if coeff_matrix is not None:
            values = grid @ coeff_matrix
            mask = np.ones(len(idx), dtype=bool)
            for r, row in enumerate(problem.rows):
                col = values[:, r]
                if row.relation is Relation.LE:
                    mask &= col <= row.rhs
                elif row.relation is Relation.GE:
                    mask &= col >= row.rhs
                else:
                    mask &= col == row.rhs
            if not mask.any():
                continue
        else:
            mask = np.ones(len(idx), dtype=bool)
        objective = grid @ c
        masked = np.where(mask, objective, np.iinfo(np.int64).min)
        top = int(masked.max())
        if best is None or top > best[0]:
            # argmax takes the first maximum; the grid is in lexicographic
            # order, so this is the lex-smallest optimum of the chunk
            i = int(np.argmax(masked))
            best = (top, tuple(int(v) for v in grid[i]))
    if best is None:
        return None
    return IntSolution(x=best[1], objective=best[0])


def residual(row: Row, x: Sequence[int]) -> int:
    """``row``'s signed slack at ``x``: its value minus its right-hand side."""
    return sum(map(operator.mul, row.coeffs, x)) - row.rhs


@dataclass(frozen=True)
class ConstraintViolation:
    """One exact infeasibility found by :func:`check_feasible`."""

    kind: str
    index: int
    name: str
    residual: int


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
            report.append(ConstraintViolation("row", i, row.name, residual(row, x)))
    return report


def chain_to_csv(chain: OptionChain) -> str:
    """The CSV form ``parse_chain`` reads, one record per quote in order."""
    lines = [
        f"underlying={format_money(chain.underlying_price)}",
        f"valuation={chain.valuation_date.isoformat()}",
        f"expiry={chain.expiry_date.isoformat()}",
    ]
    for q in chain.quotes:
        bid = "" if q.bid is None else format_money(q.bid)
        ask = "" if q.ask is None else format_money(q.ask)
        lines.append(f"{q.strike},{q.right.value},{bid},{ask},{q.volume}")
    return "\n".join(lines) + "\n"


def chain_to_json(chain: OptionChain) -> str:
    """The JSON form ``parse_chain(..., "json")`` reads."""
    obj = {
        "underlying_price": format_money(chain.underlying_price),
        "valuation_date": chain.valuation_date.isoformat(),
        "expiry_date": chain.expiry_date.isoformat(),
        "quotes": [
            {
                "strike": q.strike,
                "right": q.right.value,
                "bid": None if q.bid is None else format_money(q.bid),
                "ask": None if q.ask is None else format_money(q.ask),
                "volume": q.volume,
            }
            for q in chain.quotes
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

CALL_STRIKES = (8050, 8150, 8250, 8350, 8400, 8500)
PUT_STRIKES = (7850, 7950, 8050, 8150, 8250, 8350)


@dataclass(frozen=True)
class ReferenceColumn:
    """One published solution column: quantities and printed footer total."""

    label: str
    expected_price: int
    calls: tuple[int, ...]
    puts: tuple[int, ...]
    total: int
    tail_level: int  # flat tail payoff in index points


REFERENCE_COLUMNS = (
    ReferenceColumn(
        "8400/cost100", 8400, (4, -8, 10, -8, -5, 7), (0, 0, -3, 8, -5, 0), 58, -200
    ),
    ReferenceColumn(
        "8400/cost200", 8400, (7, -10, 4, -3, -2, 4), (0, 0, -6, 9, 0, -3), 48, 0
    ),
    ReferenceColumn(
        "8400/cost300", 8400, (3, 1, -5, -5, 2, 4), (0, 0, -3, 2, 6, -5), 36, -100
    ),
    ReferenceColumn(
        "8300/cost100", 8300, (7, -8, 4, -3, -9, 9), (0, 0, -7, 9, 3, -5), 64, 0
    ),
    ReferenceColumn(
        "8300/cost200", 8300, (3, -2, 0, -1, -7, 7), (0, 0, -2, 4, 0, -2), 28, -200
    ),
    ReferenceColumn(
        "8300/cost300", 8300, (5, -4, 0, -5, -2, 6), (0, 0, -5, 6, 4, -5), 42, -100
    ),
    ReferenceColumn(
        "8400/depth10", 8400, (4, -8, 10, -8, -5, 7), (0, 0, -3, 8, -5, 0), 58, -200
    ),
    ReferenceColumn(
        "8400/depth50",
        8400,
        (-24, 50, -11, -27, -1, 13),
        (0, 0, 24, -50, 30, -4),
        234,
        -200,
    ),
    ReferenceColumn(
        "8400/depth100",
        8400,
        (-51, 100, -4, -89, 21, 23),
        (0, 0, 51, -100, 49, 0),
        488,
        -200,
    ),
    ReferenceColumn(
        "8300/depth10", 8300, (7, -8, 4, -3, -9, 9), (0, 0, -7, 9, 3, -5), 64, 0
    ),
    ReferenceColumn(
        "8300/depth50",
        8300,
        (-24, 47, -4, -21, -15, 17),
        (0, 0, 24, -47, 22, 1),
        222,
        0,
    ),
    ReferenceColumn(
        "8300/depth100",
        8300,
        (-50, 100, -12, -40, -35, 37),
        (0, 0, 50, -100, 50, 0),
        474,
        0,
    ),
)


def equalities(problem: IlpProblem) -> tuple:
    """The equality rows of ``problem`` as ``off_lattice_rows`` reads them:
    each row's coefficients on the ask side, and no bid-side column."""
    return tuple(
        (row.name, row.coeffs, (), row.rhs)
        for row in problem.rows
        if row.relation is Relation.EQ
    )


def combination_index(combination: PriceCombination) -> int:
    """The combination index of ``combination``: its side bits read
    big-endian, the first call slot the most significant bit."""
    return int(combination.bitstring, 2)


def combination_from_index(n: int, index: int) -> PriceCombination:
    """The combination of a series of n whose :func:`combination_index` is
    ``index``: the first call slot reads the most significant bit."""
    slots = 2 * n
    if not 0 <= index < (1 << slots):
        raise ValueError(f"combination index {index} outside [0, {1 << slots})")
    return PriceCombination(tuple((index >> (slots - 1 - i)) & 1 for i in range(slots)))


def combo_for(calls: tuple[int, ...], puts: tuple[int, ...]) -> PriceCombination:
    """The price combination whose slot bounds admit these quantities."""
    bits = "".join("1" if x > 0 else "0" for x in calls + puts)
    return combination_from_index(len(calls), int(bits, 2))


def reference_series() -> SeriesSelection:
    """The reference strike grid with placeholder quotes.

    Structure tests only touch price-free rows (tails, slopes), so any
    monotone ladder works here.
    """
    return SeriesSelection(
        n=6,
        call_strikes=CALL_STRIKES,
        put_strikes=PUT_STRIKES,
        call_asks=(12200, 7400, 3950, 1850, 1200, 480),
        call_bids=(12100, 7300, 3900, 1800, 1150, 450),
        put_asks=(1700, 2800, 4750, 7800, 12250, 18250),
        put_bids=(1650, 2750, 4650, 7700, 12100, 18100),
    )


def small_series() -> SeriesSelection:
    """Two slots per side, hand-sized for worked examples."""
    return SeriesSelection(
        n=2,
        call_strikes=(100, 110),
        put_strikes=(90, 100),
        call_asks=(420, 110),
        call_bids=(400, 100),
        put_asks=(90, 400),
        put_bids=(80, 380),
    )


def base_spec(**overrides) -> StrategySpec:
    """The worked-example strategy for :func:`small_series`."""
    fields = dict(
        expected_price=10500,
        inflection=100,
        max_loss=-500,
        lower=-3,
        upper=3,
        balance_left_tail=False,
        balance_right_tail=False,
    )
    fields.update(overrides)
    return StrategySpec(**fields)


def random_ilp(rng: random.Random) -> IlpProblem:
    """A small random boxed ILP; equalities kept rare to limit dead instances."""
    num = rng.randrange(1, 5)
    bounds = tuple(
        (rng.randrange(-4, 1), rng.randrange(0, 5)) for _ in range(num)
    )
    relations = [
        Relation.LE,
        Relation.LE,
        Relation.GE,
        Relation.GE,
        Relation.EQ,
    ]
    rows = tuple(
        Row(
            f"r{i}",
            tuple(rng.randrange(-6, 7) for _ in range(num)),
            rng.choice(relations),
            rng.randrange(-12, 13),
        )
        for i in range(rng.randrange(0, 5))
    )
    objective = tuple(rng.randrange(-50, 51) for _ in range(num))
    rng.randrange(-100, 101)  # unused; keeps the seeded instances stable
    return IlpProblem(objective=objective, rows=rows, bounds=bounds)


def random_equality_ilp(rng: random.Random) -> IlpProblem:
    """A small boxed ILP whose rows are mostly equalities, some sharing a
    factor, so that many have no integer solution whatever the bounds."""
    num = rng.randrange(1, 5)
    bounds = tuple(
        (rng.randrange(-4, 1), rng.randrange(0, 5)) for _ in range(num)
    )
    rows = []
    for i in range(rng.randrange(1, 4)):
        scale = rng.choice([1, 1, 2, 3, 6])
        coeffs = tuple(scale * rng.randrange(-3, 4) for _ in range(num))
        rows.append(Row(f"e{i}", coeffs, Relation.EQ, rng.randrange(-12, 13)))
    if rng.random() < 0.5:
        rows.append(
            Row(
                "cap",
                tuple(rng.randrange(-6, 7) for _ in range(num)),
                Relation.LE,
                rng.randrange(-12, 13),
            )
        )
    return IlpProblem(
        objective=tuple(rng.randrange(-50, 51) for _ in range(num)),
        rows=tuple(rows),
        bounds=bounds,
    )


def random_series(rng: random.Random, n: int | None = None) -> SeriesSelection:
    """A small series with random strikes and unconstrained random prices."""
    if n is None:
        # n=1 forces the zero portfolio (flat-tail rows pin the single slot),
        # which positivity rejects; keep a few for the infeasible path
        n = rng.choice([1, 2, 2, 3, 3])
    step = rng.choice([5, 10, 25, 50])
    base = rng.randrange(50, 200)
    pool = [base + i * step for i in range(2 * n + 2)]
    call_strikes = tuple(sorted(rng.sample(pool, n)))
    put_strikes = tuple(sorted(rng.sample(pool, n)))

    def ladder(count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        asks = tuple(rng.randrange(2, 2000) for _ in range(count))
        bids = tuple(max(1, a - rng.randrange(1, 60)) for a in asks)
        return asks, bids

    call_asks, call_bids = ladder(n)
    put_asks, put_bids = ladder(n)
    return SeriesSelection(
        n=n,
        call_strikes=call_strikes,
        put_strikes=put_strikes,
        call_asks=call_asks,
        call_bids=call_bids,
        put_asks=put_asks,
        put_bids=put_bids,
    )


def random_spec(rng: random.Random, series: SeriesSelection) -> StrategySpec:
    strikes = series.unique_strikes
    expected = rng.choice(strikes) * 100 + rng.choice([-150, -50, 0, 50, 150])
    cost_target = None
    if rng.random() < 0.5:
        cost_target = CostTarget(
            comparator=rng.choice(list(Relation)),
            value=rng.randrange(-3000, 3000),
        )
    bound = rng.choice([1, 2, 3])
    return StrategySpec(
        expected_price=max(expected, 50),
        inflection=rng.choice(strikes),
        max_loss=-rng.randrange(0, 40) * 100,
        lower=-bound,
        upper=bound,
        cost_target=cost_target,
        epsilon=rng.choice([1, 1, 1, 100]),
        tail_loss_mode=rng.choice(list(TailLossMode)),
        balance_left_tail=rng.random() < 0.35,
        balance_right_tail=rng.random() < 0.35,
    )


def seeded_strategies(seed: int, count: int):
    """The first ``count`` (spec, series) pairs of the seeded generator."""
    rng = random.Random(seed)
    for _ in range(count):
        series = random_series(rng)
        yield random_spec(rng, series), series


# the bundled fixture files, the paper's full-scale case
FIXTURE_CHAIN = FIXTURES / "chain.csv"
FIXTURE_SPEC = FIXTURES / "spec.json"
# the golden commands and their outputs
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_argv(name: str) -> list[str]:
    """The command line of golden command ``name``; ``commands.json`` gives
    fixture paths relative to the repository root, and these are absolute."""
    argv = json.loads((GOLDEN / "commands.json").read_text())[name]["argv"]
    return [str(FIXTURES.parent / a) if a.startswith("fixtures/") else a for a in argv]


def strategy(chain=FIXTURE_CHAIN, spec=FIXTURE_SPEC, **changes) -> tuple:
    """The (spec, series) of a strategy file on a chain, by default the
    fixture's, with ``changes`` to the file (``None`` drops a key)."""
    data = {**json.loads(spec.read_text()), **changes}
    config = load_run_config({k: v for k, v in data.items() if v is not None})
    options = parse_chain(chain.read_text())
    series = select_series(options, config.n, config.call_anchor, config.put_anchor)
    return config.strategy, series


# the cases of golden/work.json, made when run; corpus-small's corpus and
# fixture-optimize's fixture first
CASES = {
    "corpus": lambda: list(seeded_strategies(20260823, 220)),
    "fixture": lambda: [strategy()],
    "fixture-100-lots": lambda: [strategy(lower=-100, upper=100)],
    "fixture-1000-lots": lambda: [strategy(lower=-1000, upper=1000)],
    "fixture-no-cost-target": lambda: [strategy(cost_target=None)],
    "n7": lambda: [strategy(n=7, put_anchor=7750)],
    "wide-bound": lambda: [
        strategy(
            expected_price="8100.00", inflection=8450, max_loss="-300.00",
            lower=-20, upper=20, call_anchor=8150, put_anchor=7950, cost_target=None,
        )
    ],
    "fixture-cost-50.00": lambda: [strategy(cost_target={"cmp": "=", "value": "50.00"})],
}


def write_strategy(
    spec: StrategySpec, series: SeriesSelection, directory: Path
) -> tuple[Path, Path]:
    """Write ``series`` as a chain CSV that holds nothing else and ``spec`` as
    the strategy file that selects it; returns both paths, chain first."""
    legs = (
        ("call", series.call_strikes, series.call_bids, series.call_asks),
        ("put", series.put_strikes, series.put_bids, series.put_asks),
    )
    records = [
        f"{k},{right},{format_money(bid)},{format_money(ask)},0"
        for right, strikes, bids, asks in legs
        for k, bid, ask in zip(strikes, bids, asks)
    ]
    chain = directory / "chain.csv"
    chain.write_text(
        "underlying=100.00\nvaluation=2026-08-20\nexpiry=2026-09-16\n"
        + "\n".join(records)
        + "\n"
    )
    data = {
        "expected_price": format_money(spec.expected_price),
        "inflection": spec.inflection,
        "max_loss": format_money(spec.max_loss),
        "lower": spec.lower,
        "upper": spec.upper,
        "epsilon": format_money(spec.epsilon),
        "tail_loss_mode": spec.tail_loss_mode.value,
        "balance_left_tail": spec.balance_left_tail,
        "balance_right_tail": spec.balance_right_tail,
        "call_anchor": series.call_strikes[0],
        "put_anchor": series.put_strikes[0],
        "n": series.n,
    }
    if spec.cost_target is not None:
        data["cost_target"] = {
            "cmp": spec.cost_target.comparator.value,
            "value": format_money(spec.cost_target.value),
        }
    strategy = directory / "strategy.json"
    strategy.write_text(json.dumps(data))
    return chain, strategy


def reference_optimize(
    spec: StrategySpec, series: SeriesSelection
) -> tuple[int, int, tuple[int, ...]] | None:
    """(objective, combination index, x) by exhausting combos x boxes."""
    best = None
    for index in range(1 << (2 * series.n)):
        combo = combination_from_index(series.n, index)
        found = brute_force(build_subproblem(spec, series, combo))
        if found is not None and (best is None or found.objective > best[0]):
            best = (found.objective, index, found.x)
    return best


def lp_relaxation(problem: IlpProblem) -> tuple[float, tuple[float, ...]] | None:
    """(objective, x) of the continuous relaxation by scipy's ``linprog``, or
    ``None`` when it is infeasible; a check on the root LP that
    ``solve_ilp`` solves on its loaded model."""
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for row in problem.rows:
        if row.relation is Relation.EQ:
            eq_rows.append(row.coeffs)
            eq_rhs.append(row.rhs)
        else:
            sign = 1 if row.relation is Relation.LE else -1
            ub_rows.append([sign * c for c in row.coeffs])
            ub_rhs.append(sign * row.rhs)
    result = linprog(
        -np.asarray(problem.objective, dtype=float),
        A_ub=np.asarray(ub_rows, dtype=float) if ub_rows else None,
        b_ub=ub_rhs or None,
        A_eq=np.asarray(eq_rows, dtype=float) if eq_rows else None,
        b_eq=eq_rhs or None,
        bounds=problem.bounds,
        method="highs",
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return -result.fun, tuple(result.x)


def slotwise_refine(
    problem: IlpProblem, optimum: int, stop: int
) -> tuple[int, ...]:
    """Oracle for ``Program.refine``: an optimal point whose slots ``[0, stop)``
    are lexicographically smallest, by one solve per slot.

    With the objective pinned at ``optimum``, each slot in turn is minimized
    and fixed, without skipping a slot at its lower bound.
    """
    pin = Row("objective_pin", problem.objective, Relation.EQ, optimum)
    bounds = list(problem.bounds)
    x = None
    for j in range(stop):
        selector = tuple(-1 if i == j else 0 for i in range(problem.num_vars))
        found = solve_ilp(IlpProblem(selector, problem.rows + (pin,), tuple(bounds)))
        assert found is not None, f"slot {j}: no point at the optimum"
        x = found.x
        bounds[j] = (x[j], x[j])
    return x


def random_wide_ilp(rng: random.Random) -> IlpProblem:
    """A random boxed ILP with wide bounds and many tied optima: zero and
    small objective coefficients, few rows."""
    num = rng.randrange(3, 7)
    bounds = []
    for _ in range(num):
        lo = rng.randrange(-200, 1)
        bounds.append((lo, lo + rng.choice([1, 9, 60, 150, 400])))
    rows = tuple(
        Row(
            f"r{i}",
            tuple(rng.randrange(-3, 4) for _ in range(num)),
            rng.choice([Relation.LE, Relation.GE, Relation.EQ]),
            rng.randrange(-40, 41),
        )
        for i in range(rng.randrange(1, 3))
    )
    objective = tuple(rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(num))
    rng.randrange(-100, 101)  # unused; keeps the seeded instances stable
    return IlpProblem(objective=objective, rows=rows, bounds=tuple(bounds))


# the stages of a loaded program's work: the first solve, then each
# Program.refine on it, of which optimize makes two, Stage A and Stage B
STAGES = ("first", "stage_a", "stage_b")
# one _run: its stage, whether it is the first run on its loaded program, its
# kind and model status, and HiGHS's mip_node_count (0 for an LP) and
# simplex_iteration_count (both 0 for a faked run that solves nothing)
Run = namedtuple("Run", "stage fresh kind status nodes iterations")


class Work:
    """What :func:`record_work` saw: each :class:`Run`, each load's columns, the
    slots each stage fixed without a solve, and each exact proof's result.
    ``stage`` and ``fresh`` are those of the next run."""

    def __init__(self) -> None:
        self.runs, self.loads, self.proofs = [], [], {}
        self.fixed, self.stage, self.fresh = Counter(), STAGES[0], False

    def kinds(self, stage: str | None = None) -> Counter:
        """Runs per kind, in ``stage`` or in all."""
        return Counter(run.kind for run in self.runs if stage in (None, run.stage))


def record_work(monkeypatch, fake=None) -> Work:
    """Record ``payoffopt``'s HiGHS work until the test ends, observing
    ``ilp_solver``'s ``_run``, ``_load``, ``_block_size`` and ``Program.refine``
    and ``optimizer``'s two exact proofs.

    With a ``fake``, each run is ``fake(solve, highs, kind, work)``: ``solve()``
    makes the real run and returns its model status, the status ``fake``
    returns is the one the solver sees and the work records, and ``work``
    holds the run's ``stage`` and ``fresh``."""
    work, blocks = Work(), []
    solver, optimizer = payoffopt.ilp_solver, payoffopt.optimizer
    real_run, real_load, real_refine = solver._run, solver._load, solver.Program.refine
    real_block_size = solver._block_size

    def run(highs, kind):
        solved = []

        def solve():
            solved.append(real_run(highs, kind))
            return solved[-1]

        status = solve() if fake is None else fake(solve, highs, kind, work)
        info = highs.getInfo()
        nodes = info.mip_node_count if solved and kind != "lp" else 0
        iterations = info.simplex_iteration_count if solved else 0
        work.runs.append(Run(work.stage, work.fresh, kind, status, nodes, iterations))
        work.fresh = False
        return status

    def load(highs, objective, rows, bounds):
        work.stage, work.fresh = STAGES[0], True
        work.loads.append(len(bounds))
        real_load(highs, objective, rows, bounds)

    def block_size(widths):
        blocks.append(real_block_size(widths))
        return blocks[-1]

    def refine(program, x, stop, bounds=None):
        work.stage = STAGES[min(STAGES.index(work.stage) + 1, len(STAGES) - 1)]
        blocks.clear()
        found = real_refine(program, x, stop, bounds)
        work.fixed[work.stage] += stop - sum(blocks)
        return found

    def proving(name):
        proof = getattr(optimizer, name)

        def wrapper(*args):
            work.proofs[name] = proof(*args)
            return work.proofs[name]

        return wrapper

    for name, wrapper in (("_run", run), ("_load", load), ("_block_size", block_size)):
        monkeypatch.setattr(solver, name, wrapper)
    monkeypatch.setattr(solver.Program, "refine", refine)
    for name in ("unreachable_row", "off_lattice_rows"):
        monkeypatch.setattr(optimizer, name, proving(name))
    return work


def settling_nothing(solve, highs, kind, work):
    """A fake for :func:`record_work`: every run is real, but an LP HiGHS
    solves to optimality is reported as ``kUnknown``, so that its point
    settles nothing and the MILP runs; an infeasible verdict stays."""
    status = solve()
    if kind == "lp" and status == HighsModelStatus.kOptimal:
        return HighsModelStatus.kUnknown
    return status


def marking(solve, highs, kind, work):
    """A fake for :func:`record_work`: every run is real, and first writes a
    byte straight to file descriptor 1, as HiGHS's own diagnostics do."""
    os.write(1, b"#")
    return solve()


def fake_milp_runs(monkeypatch, status, *, record=lambda highs, kind: kind):
    """End every MILP run of ``payoffopt.ilp_solver`` with HiGHS model status
    ``status`` without a solve; every LP is :func:`settling_nothing`'s.
    Returns ``record(highs, kind)`` of each faked MILP run, taken before it
    ends."""
    seen = []

    def failing(solve, highs, kind, work):
        if kind == "lp":
            return settling_nothing(solve, highs, kind, work)
        seen.append(record(highs, kind))
        return status

    record_work(monkeypatch, failing)
    return seen

"""Shared test helpers: random instances and exhaustive reference solvers.

The reference optimizer here solves every price combination's subproblem
separately with ``brute_force``, which enumerates the full integer box, so
agreement with the production optimizer (one combined program solved by
HiGHS) is a genuine two-route check.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

import payoffopt.ilp_solver
from payoffopt import (
    CostTarget,
    IlpProblem,
    PriceCombination,
    Relation,
    Row,
    SeriesSelection,
    Side,
    StrategySpec,
    TailLossMode,
    brute_force,
    build_subproblem,
    solve_ilp,
)

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


def combo_for(calls: tuple[int, ...], puts: tuple[int, ...]) -> PriceCombination:
    """The price combination whose slot bounds admit these quantities."""
    bits = "".join("1" if x > 0 else "0" for x in calls + puts)
    return PriceCombination.from_index(len(calls), int(bits, 2))


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
        Row.of(
            f"r{i}",
            [rng.randrange(-6, 7) for _ in range(num)],
            rng.choice(relations),
            rng.randrange(-12, 13),
        )
        for i in range(rng.randrange(0, 5))
    )
    return IlpProblem(
        objective=tuple(rng.randrange(-50, 51) for _ in range(num)),
        objective_constant=rng.randrange(-100, 101),
        rows=rows,
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


def reference_optimize(
    spec: StrategySpec, series: SeriesSelection
) -> tuple[int, int, tuple[int, ...]] | None:
    """(objective, combination index, x) by exhausting combos x boxes."""
    best = None
    for index in range(1 << (2 * series.n)):
        combo = PriceCombination.from_index(series.n, index)
        found = brute_force(build_subproblem(spec, series, combo))
        if found is not None and (best is None or found.objective > best[0]):
            best = (found.objective, index, found.x)
    return best


def lp_relaxation(problem: IlpProblem) -> tuple[float, tuple[float, ...]] | None:
    """(objective, x) of the continuous relaxation by scipy's ``linprog``, or
    ``None`` when it is infeasible; a check on the root LP that
    ``solve_ilp`` solves through ``milp``."""
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
    return problem.objective_constant - result.fun, tuple(result.x)


def slotwise_refine(
    problem: IlpProblem, optimum: int, stop: int
) -> tuple[int, ...]:
    """Oracle for ``lex_refine``: an optimal point whose slots ``[0, stop)``
    are lexicographically smallest, by one solve per slot.

    With the objective pinned at ``optimum``, each slot in turn is minimized
    and fixed, without skipping a slot at its lower bound.
    """
    pin = Row(
        "objective_pin",
        problem.objective,
        Relation.EQ,
        optimum - problem.objective_constant,
    )
    bounds = list(problem.bounds)
    x = None
    for j in range(stop):
        selector = tuple(-1 if i == j else 0 for i in range(problem.num_vars))
        found = solve_ilp(
            IlpProblem(selector, 0, problem.rows + (pin,), tuple(bounds)),
            refine=False,
        )
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
        Row.of(
            f"r{i}",
            [rng.randrange(-3, 4) for _ in range(num)],
            rng.choice([Relation.LE, Relation.GE, Relation.EQ]),
            rng.randrange(-40, 41),
        )
        for i in range(rng.randrange(1, 3))
    )
    return IlpProblem(
        objective=tuple(rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(num)),
        objective_constant=rng.randrange(-100, 101),
        rows=rows,
        bounds=tuple(bounds),
    )


def count_solver_calls(monkeypatch) -> Counter:
    """Count solver calls in ``payoffopt.ilp_solver`` until the test ends.

    The returned counter grows as calls are made. Its keys: ``"root_lp"``,
    ``milp`` calls without integrality (the root LP of :func:`solve_ilp`);
    ``"milp"``, ``milp`` calls with integrality and presolve on
    (presolve-off rechecks are left out).
    """
    calls: Counter = Counter()
    real_milp = payoffopt.ilp_solver.milp

    def counting_milp(*args, **kwargs):
        if kwargs.get("integrality") is None:
            calls["root_lp"] += 1
        elif kwargs["options"].get("presolve", True):
            calls["milp"] += 1
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(payoffopt.ilp_solver, "milp", counting_milp)
    return calls

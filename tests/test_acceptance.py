"""End-to-end checks at full scale, one summary line per criterion.

The criteria markers feed the ``acceptance criteria`` section printed after
the run; every test here either exercises the bundled full-size fixture or a
seeded random corpus large enough to be meaningful.
"""

import dataclasses
import random
import time

import pytest

from payoffopt import (
    Portfolio,
    PriceCombination,
    brute_force,
    build_subproblem,
    check_feasible,
    optimize,
    payoff,
    payoff_curve,
    solve_ilp,
    sweep_liquidity,
)
from payoffopt.ilp_solver import lex_refine
from payoffopt.model_builder import build_combined, decode_combined
from support import (
    REFERENCE_COLUMNS,
    base_spec,
    count_solver_calls,
    lp_relaxation,
    random_ilp,
    random_series,
    random_spec,
    reference_optimize,
    reference_series,
    slotwise_refine,
    small_series,
)

TENTS = pytest.mark.criterion("reference portfolios: zero-sum tents, published totals")
COMBOS = pytest.mark.criterion("price combinations: all 4^n covered exactly")
AGREEMENT = pytest.mark.criterion("optimizer matches exhaustive reference search")
LIQUIDITY = pytest.mark.criterion("deeper liquidity never shrinks the objective")
RUNTIME = pytest.mark.criterion("full-scale run finishes inside the time envelope")
EXACT = pytest.mark.criterion("integer solver agrees exactly with brute force")
IDENTITIES = pytest.mark.criterion("payoff identities: slopes, additivity, curves")

# the inflection strike published alongside the reference columns
STATED_INFLECTION = 8050


def column_portfolio(column):
    return Portfolio(
        series=reference_series(), calls=column.calls, puts=column.puts
    )


def slope_signs_ok(column, inflection):
    series = reference_series()
    portfolio = column_portfolio(column)
    strikes = series.unique_strikes
    curve = payoff_curve(portfolio)
    for (lo, _), slope in zip(zip(strikes, strikes[1:]), curve.interval_slopes):
        if lo <= inflection and slope < 0:
            return False
        if lo > inflection and slope > 0:
            return False
    return True


@TENTS
@pytest.mark.parametrize("column", REFERENCE_COLUMNS, ids=lambda c: c.label)
def test_reference_quantities_sum_to_zero(column):
    assert sum(column.calls) == 0
    assert sum(column.puts) == 0


@TENTS
@pytest.mark.parametrize("column", REFERENCE_COLUMNS, ids=lambda c: c.label)
def test_reference_contract_totals_match_published_footers(column):
    assert column_portfolio(column).total_contracts == column.total


@TENTS
@pytest.mark.parametrize("column", REFERENCE_COLUMNS, ids=lambda c: c.label)
def test_reference_tails_are_flat_at_published_level(column):
    curve = payoff_curve(column_portfolio(column))
    assert curve.left_tail_slope == 0
    assert curve.right_tail_slope == 0
    assert curve.values[0] == column.tail_level * 100
    assert curve.values[-1] == column.tail_level * 100


@TENTS
@pytest.mark.parametrize("column", REFERENCE_COLUMNS, ids=lambda c: c.label)
def test_reference_slopes_descend_only_after_stated_inflection(column):
    """Each column should ascend up to the stated inflection, then descend."""
    assert slope_signs_ok(column, STATED_INFLECTION)


def test_reference_slopes_fit_a_higher_inflection():
    # the shape every column actually has: the turn sits two strikes up
    for column in REFERENCE_COLUMNS:
        assert slope_signs_ok(column, 8250)
        assert not slope_signs_ok(column, STATED_INFLECTION)


@COMBOS
def test_six_slot_series_has_4096_combinations(fixture_run_config, fixture_series):
    # one binary side slot per call and put: 2^12 = 4096 combinations
    combined = build_combined(fixture_run_config.strategy, fixture_series)
    assert combined.bounds[:12] == ((0, 1),) * 12
    assert combined.num_vars == 3 * 12
    assert PriceCombination.from_index(6, 4095).bitstring == "1" * 12
    with pytest.raises(ValueError, match="outside"):
        PriceCombination.from_index(6, 4096)


@COMBOS
def test_combined_program_is_exact_on_every_combination():
    # pinning the side bits of the combined program to one combination must
    # leave exactly that combination's subproblem
    rng = random.Random(7219)
    cases = [(base_spec(), small_series())]
    for _ in range(20):
        series = random_series(rng)
        cases.append((random_spec(rng, series), series))
    feasible = 0
    for case, (spec, series) in enumerate(cases):
        combined = build_combined(spec, series)
        slots = 2 * series.n
        for index in range(1 << slots):
            combo = PriceCombination.from_index(series.n, index)
            sides = tuple((int(b), int(b)) for b in combo.bitstring)
            pinned = dataclasses.replace(
                combined, bounds=sides + combined.bounds[slots:]
            )
            got = solve_ilp(pinned)
            expected = brute_force(build_subproblem(spec, series, combo))
            where = (case, index)
            if expected is None:
                assert got is None, where
                continue
            feasible += 1
            assert got is not None, where
            decoded, x = decode_combined(series.n, got.x)
            assert decoded == combo, where
            assert (got.objective, x) == (expected.objective, expected.x), where
    assert feasible >= 50


def record_first_solves(monkeypatch):
    """Keep the result of the first ``solve_ilp`` call made in ``optimize``
    since the returned list was last cleared: the combined solve."""
    import payoffopt.optimizer as optimizer

    first = []
    real = optimizer.solve_ilp

    def recording(problem, **kwargs):
        result = real(problem, **kwargs)
        if not first:
            first.append(result)
        return result

    monkeypatch.setattr(optimizer, "solve_ilp", recording)
    return first


@AGREEMENT
def test_optimizer_matches_exhaustive_reference(monkeypatch):
    rng = random.Random(20260823)
    first = record_first_solves(monkeypatch)
    start = time.perf_counter()
    feasible = 0
    moved = 0
    mismatches = []
    for i in range(220):
        series = random_series(rng)
        spec = random_spec(rng, series)
        expected = reference_optimize(spec, series)
        first.clear()
        got = optimize(spec, series)
        if got is not None:
            # count the runs where Stage A moves the side bits off the
            # first optimal point
            first_combo, _ = decode_combined(series.n, first[0].x)
            moved += first_combo != got.combination
        if expected is None:
            if got is not None:
                mismatches.append((i, None, got))
            continue
        objective, index, x = expected
        if (
            got is None
            or got.objective != objective
            or got.combination.index != index
            or got.portfolio.calls + got.portfolio.puts != x
        ):
            mismatches.append((i, expected, got))
            continue
        feasible += 1
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert feasible >= 30
    assert moved >= 1
    assert elapsed < 60


def test_root_lp_verdict_matches_linprog(
    monkeypatch, fixture_run_config, fixture_series
):
    # solve_ilp's root LP (milp without integrality on the compiled rows)
    # and scipy's linprog relaxation give the same verdict on every combined
    # program of the corpus above and on the fixture's
    import payoffopt.ilp_solver as ilp_solver

    verdicts = []
    real = ilp_solver.milp

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("integrality") is None:
            verdicts.append(result.status)
        return result

    monkeypatch.setattr(ilp_solver, "milp", recording)
    rng = random.Random(20260823)
    cases = []
    for _ in range(220):
        series = random_series(rng)
        cases.append((random_spec(rng, series), series))
    cases.append((fixture_run_config.strategy, fixture_series))
    infeasible = 0
    for i, (spec, series) in enumerate(cases):
        combined = build_combined(spec, series)
        verdicts.clear()
        solve_ilp(combined, refine=False)
        assert len(verdicts) == 1, i
        relaxed = lp_relaxation(combined) is None
        assert (verdicts[0] == 2) == relaxed, i
        infeasible += relaxed
    assert infeasible >= 100


@pytest.fixture(scope="module")
def liquidity_sweep(fixture_run_config, fixture_series):
    spec = dataclasses.replace(fixture_run_config.strategy, cost_target=None)
    start = time.perf_counter()
    report = sweep_liquidity(spec, fixture_series, [10, 50, 100])
    elapsed = time.perf_counter() - start
    return report, elapsed


@LIQUIDITY
def test_objective_grows_with_liquidity(liquidity_sweep):
    report, elapsed = liquidity_sweep
    assert [p.value for p in report.points] == [10, 50, 100]
    for point in report.points:
        assert point.error is None
        assert point.solution is not None
    objectives = [p.solution.objective for p in report.points]
    assert objectives == sorted(objectives)
    assert objectives[0] < objectives[-1]
    assert elapsed < 300


def test_liquidity_sweep_regression_values(liquidity_sweep):
    report, _ = liquidity_sweep
    solutions = [p.solution for p in report.points]
    assert [s.objective for s in solutions] == [90000, 490000, 990000]
    assert [s.combination.index for s in solutions] == [1091, 1090, 1090]
    assert [(s.portfolio.calls, s.portfolio.puts) for s in solutions] == [
        ((0, 10, -2, -10, -8, 10), (0, 0, 0, -4, 1, 3)),
        ((0, 41, 0, -41, -50, 50), (0, 0, 0, -41, 50, -9)),
        ((0, 88, -1, -89, -98, 100), (0, 0, 0, -81, 88, -7)),
    ]


@RUNTIME
def test_full_run_finishes_inside_envelope(full_run):
    solution, elapsed = full_run
    assert solution is not None
    assert elapsed < 120


@RUNTIME
def test_full_run_solution_is_feasible(full_run, fixture_run_config, fixture_series):
    solution, _ = full_run
    problem = build_subproblem(
        fixture_run_config.strategy, fixture_series, solution.combination
    )
    assert check_feasible(solution.portfolio, problem) == []


def test_full_run_regression_values(full_run):
    solution, _ = full_run
    assert solution.objective == 40000
    assert solution.initial_cost == 10000
    assert solution.combination.bitstring == "010011000010"
    assert solution.portfolio.calls == (0, 4, 0, -10, 1, 5)
    assert solution.portfolio.puts == (0, 0, 0, -4, 8, -4)
    assert solution.total_contracts == 36


@pytest.mark.parametrize(
    "lots, bitstring, calls, puts, milps",
    [
        (None, "010011000010", (0, 4, 0, -10, 1, 5), (0, 0, 0, -4, 8, -4), 5),
        (100, "001001000101", (0, -4, 13, -9, -5, 5), (0, 0, 0, 4, -8, 4), 8),
    ],
)
def test_fixture_tie_break_solve_counts(
    monkeypatch, fixture_run_config, fixture_series, lots, bitstring, calls, puts, milps
):
    # one root LP for the first solve; MILPs: the first solve, one Stage-A
    # block (12 side bits) and Stage B's blocks (4 slots of width 21, or 2
    # of width 201); presolve-off rechecks are not counted
    counted = count_solver_calls(monkeypatch)
    spec = fixture_run_config.strategy
    if lots is not None:
        spec = dataclasses.replace(spec, lower=-lots, upper=lots)
    solution = optimize(spec, fixture_series)
    assert solution.objective == 40000
    assert solution.combination.bitstring == bitstring
    assert (solution.portfolio.calls, solution.portfolio.puts) == (calls, puts)
    assert counted["root_lp"] == 1
    assert counted["milp"] <= milps


@pytest.mark.parametrize("lots", [50, 100])
def test_fixture_lex_refine_matches_slotwise_oracle(
    fixture_run_config, fixture_series, lots
):
    # at these bounds Stage B spans six blocks of two slots each
    spec = dataclasses.replace(fixture_run_config.strategy, lower=-lots, upper=lots)
    combined = build_combined(spec, fixture_series)
    first = solve_ilp(combined, refine=False)
    slots = 2 * fixture_series.n
    ranked = lex_refine(combined, first.objective, first.x, slots)
    assert ranked[:slots] == slotwise_refine(combined, first.objective, slots)[:slots]
    combo, seed = decode_combined(fixture_series.n, ranked)
    subproblem = build_subproblem(spec, fixture_series, combo)
    got = lex_refine(subproblem, first.objective, seed, slots)
    assert got == slotwise_refine(subproblem, first.objective, slots)
    solution = optimize(spec, fixture_series)
    assert solution.combination == combo
    assert solution.portfolio.calls + solution.portfolio.puts == got


@EXACT
def test_solver_exact_on_random_integer_programs():
    rng = random.Random(416002)
    start = time.perf_counter()
    for _ in range(500):
        problem = random_ilp(rng)
        fast = solve_ilp(problem)
        exhaustive = brute_force(problem)
        assert fast == exhaustive
        if fast is not None:
            relaxed = lp_relaxation(problem)
            assert relaxed is not None
            assert relaxed[0] + 1e-6 >= fast.objective
    elapsed = time.perf_counter() - start
    assert elapsed < 60


@IDENTITIES
def test_payoff_identities_on_random_portfolios():
    rng = random.Random(55)
    start = time.perf_counter()
    for _ in range(100):
        series = random_series(rng)
        n = series.n
        portfolio = Portfolio(
            series=series,
            calls=tuple(rng.randint(-8, 8) for _ in range(n)),
            puts=tuple(rng.randint(-8, 8) for _ in range(n)),
        )
        curve = payoff_curve(portfolio)
        strikes = series.unique_strikes
        assert curve.values == tuple(payoff(portfolio, k * 100) for k in strikes)
        for q, slope in enumerate(curve.interval_slopes):
            a, b = strikes[q] * 100, strikes[q + 1] * 100
            assert payoff(portfolio, b) - payoff(portfolio, a) == slope * (b - a)
        left = max(1, strikes[0] * 100 - 3000)
        assert payoff(portfolio, strikes[0] * 100) - payoff(portfolio, left) == (
            curve.left_tail_slope * (strikes[0] * 100 - left)
        )
        right = strikes[-1] * 100 + 3000
        assert payoff(portfolio, right) - payoff(portfolio, strikes[-1] * 100) == (
            curve.right_tail_slope * 3000
        )
        other = Portfolio(
            series=series,
            calls=tuple(rng.randint(-8, 8) for _ in range(n)),
            puts=tuple(rng.randint(-8, 8) for _ in range(n)),
        )
        merged = Portfolio(
            series=series,
            calls=tuple(a + b for a, b in zip(portfolio.calls, other.calls)),
            puts=tuple(a + b for a, b in zip(portfolio.puts, other.puts)),
        )
        probe = rng.randint(1, strikes[-1] * 100 + 5000)
        assert payoff(merged, probe) == payoff(portfolio, probe) + payoff(other, probe)
    elapsed = time.perf_counter() - start
    assert elapsed < 5


def test_fixture_chain_is_clean(fixture_chain):
    from payoffopt import validate_chain

    assert validate_chain(fixture_chain) == []

"""End-to-end checks at full scale, one summary line per criterion.

The criteria markers feed the ``acceptance criteria`` section printed after
the run; every test here either exercises the bundled full-size fixture or a
seeded random corpus large enough to be meaningful.
"""

import dataclasses
import math
import random
import time
from collections import Counter

import pytest
from scipy.optimize._highspy._core import HighsModelStatus, HighsVarType

from payoffopt import Infeasible, optimize
from payoffopt.ilp_solver import solve_ilp
import payoffopt.model_builder as model_builder
from payoffopt.model_builder import (
    CostTarget,
    Relation,
    build_combined,
    build_subproblem,
    combination_bounds,
    decode_combined,
    equality_rows,
    off_lattice_rows,
    unreachable_row,
)
from payoffopt.optimizer import PortfolioSolution, SweepAxis, sweep
from payoffopt.payoff_engine import Portfolio, payoff, payoff_curve
from support import (
    REFERENCE_COLUMNS,
    IntSolution,
    base_spec,
    brute_force,
    check_feasible,
    combination_from_index,
    combination_index,
    equalities,
    lp_relaxation,
    random_equality_ilp,
    random_ilp,
    random_series,
    record_work,
    reference_optimize,
    reference_series,
    seeded_strategies,
    settling_nothing,
    slotwise_refine,
    small_series,
    solve_refined,
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
    assert combination_from_index(6, 4095).bitstring == "1" * 12
    with pytest.raises(ValueError, match="outside"):
        combination_from_index(6, 4096)


def bought_subproblem(spec, series, combo):
    """``combo``'s subproblem with every ask slot bought at least once: what
    the combined program leaves when its side bits are pinned to ``combo``."""
    subproblem = build_subproblem(spec, series, combo)
    bounds = tuple(
        (1, hi) if bit == "1" else (lo, hi)
        for bit, (lo, hi) in zip(combo.bitstring, subproblem.bounds)
    )
    return dataclasses.replace(subproblem, bounds=bounds)


@COMBOS
def test_combined_program_is_exact_on_every_combination():
    # pinning the side bits of the combined program to one combination must
    # leave exactly that combination's subproblem with every ask slot bought
    # at least once (the side rows z_i <= p_i)
    cases = [(base_spec(), small_series()), *seeded_strategies(7219, 40)]
    feasible = 0
    for case, (spec, series) in enumerate(cases):
        combined = build_combined(spec, series)
        slots = 2 * series.n
        for index in range(1 << slots):
            combo = combination_from_index(series.n, index)
            sides = tuple((int(b), int(b)) for b in combo.bitstring)
            pinned = dataclasses.replace(
                combined, bounds=sides + combined.bounds[slots:]
            )
            got = solve_refined(pinned)
            expected = brute_force(bought_subproblem(spec, series, combo))
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


@AGREEMENT
def test_optimizer_matches_exhaustive_reference():
    start = time.perf_counter()
    feasible = 0
    mismatches = []
    for i, (spec, series) in enumerate(seeded_strategies(20260823, 220)):
        expected = reference_optimize(spec, series)
        got = optimize(spec, series)
        if expected is None:
            if not isinstance(got, Infeasible):
                mismatches.append((i, None, got))
            continue
        objective, index, x = expected
        if (
            isinstance(got, Infeasible)
            or got.objective != objective
            or combination_index(got.combination) != index
            or got.portfolio.calls + got.portfolio.puts != x
        ):
            mismatches.append((i, expected, got))
            continue
        feasible += 1
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert feasible >= 30
    assert elapsed < 60


def priced_at_intrinsic(spec, series):
    """``series`` with every slot's ask and bid at its intrinsic value at
    ``spec``'s expected price: every portfolio is worth 0 there, so every
    feasible portfolio is optimal and optimal combinations tie."""
    calls = tuple(max(spec.expected_price - k * 100, 0) for k in series.call_strikes)
    puts = tuple(max(k * 100 - spec.expected_price, 0) for k in series.put_strikes)
    return dataclasses.replace(
        series, call_asks=calls, call_bids=calls, put_asks=puts, put_bids=puts
    )


def combined_point(x):
    """The :func:`build_combined` point of the quantities ``x`` in normal
    form: ``z_i = [x_i >= 1]``, ``p = x+``, ``r = x-``."""
    sides = tuple(int(v >= 1) for v in x)
    return sides + tuple(part for v in x for part in (max(v, 0), min(v, 0)))


@AGREEMENT
def test_stage_a_lowers_a_higher_optimal_seed(monkeypatch):
    # on the seeded corpus no optimum lies in two combinations, so the first
    # solve already lands on the lowest one and leaves Stage A nothing to
    # lower; priced at intrinsic value, optima tie across combinations.
    # optimize gets every optimal point of a higher combination in place of
    # its first solve's point, on the program that solve loaded and pinned,
    # and must still reach the reference answer. Each seed is the
    # brute_force optimum of a higher combination with its ask slots bought
    # at least once, in normal form, so it lies in that combination and in
    # the combined program
    import payoffopt.optimizer as optimizer

    seeded = []
    real = optimizer.solve_ilp

    def seeded_solve(problem):
        program = real(problem)
        assert program.objective == seeded[-1].objective
        program.x = seeded[-1].x
        return program

    monkeypatch.setattr(optimizer, "solve_ilp", seeded_solve)
    cases = seeds = 0
    for i, (spec, series) in enumerate(seeded_strategies(20260823, 220)):
        series = priced_at_intrinsic(spec, series)
        expected = reference_optimize(spec, series)
        if expected is None:
            continue
        objective, index, x = expected
        higher = 0
        for above in range(index + 1, 1 << (2 * series.n)):
            combo = combination_from_index(series.n, above)
            found = brute_force(bought_subproblem(spec, series, combo))
            if found is None or found.objective != objective:
                continue
            point = combined_point(found.x)
            assert decode_combined(series.n, point) == (combo, found.x)
            seeded.append(IntSolution(x=point, objective=objective))
            got = optimize(spec, series)
            assert got.objective == objective, (i, above)
            assert combination_index(got.combination) == index, (i, above)
            assert got.portfolio.calls + got.portfolio.puts == x, (i, above)
            higher += 1
        cases += higher > 0
        seeds += higher
    assert cases >= 12
    assert seeds >= 100


def test_side_bits_mark_bought_slots(fixture_run_config, fixture_series):
    # the fact the side rows rest on: a slot is on the ask side exactly when
    # it buys, in the first solve's point (z_i = [p_i >= 1]) and in every
    # answer, on the fixture and on the seeded corpus
    cases = [(fixture_run_config.strategy, fixture_series)]
    cases += seeded_strategies(20260823, 220)
    feasible = 0
    for i, (spec, series) in enumerate(cases):
        slots = 2 * series.n
        first = solve_ilp(build_combined(spec, series))
        got = optimize(spec, series)
        assert (first is None) == isinstance(got, Infeasible), i
        if first is None:
            continue
        feasible += 1
        longs = first.x[slots::2]
        assert first.x[:slots] == tuple(int(p >= 1) for p in longs), i
        bits = tuple(int(b) for b in got.combination.bitstring)
        quantities = got.portfolio.calls + got.portfolio.puts
        assert bits == tuple(int(q > 0) for q in quantities), i
    assert feasible >= 40


def test_root_lp_verdict_matches_linprog(
    monkeypatch, fixture_run_config, fixture_series
):
    # solve_ilp's root LP (the loaded integer model's relaxation, solved
    # without presolve) and scipy's linprog relaxation give the same
    # verdict on every combined program of the corpus above and on the
    # fixture's; solve_ilp runs that root LP exactly once, as it leaves the
    # exact checks to optimize
    import payoffopt.ilp_solver as ilp_solver

    work = record_work(monkeypatch)
    cases = list(seeded_strategies(20260823, 220))
    cases.append((fixture_run_config.strategy, fixture_series))
    infeasible = 0
    for i, (spec, series) in enumerate(cases):
        combined = build_combined(spec, series)
        # the root LP alone, as solve_ilp sets it up
        program = ilp_solver.Program(combined)
        status = ilp_solver._run(program.highs, "lp")
        relaxed = lp_relaxation(combined) is None
        assert (status == HighsModelStatus.kInfeasible) == relaxed, i
        infeasible += relaxed
        work.runs.clear()
        solve_ilp(combined)
        assert [run.status for run in work.runs if run.kind == "lp"] == [status], i
    assert infeasible >= 100


def test_root_lp_settles_most_feasible_first_solves(monkeypatch):
    # an unpresolved root LP whose rounded point passes the exact check, at
    # the LP's optimal value, is the first solve's answer with no MILP (for
    # 41 of the corpus's 46 feasible combined programs: root_lp_integral in
    # golden/work.json). Forced through the MILP, every program gives the
    # same verdict and optimal value
    programs = [build_combined(*case) for case in seeded_strategies(20260823, 220)]
    values = [getattr(solve_ilp(problem), "objective", None) for problem in programs]
    work = record_work(monkeypatch, settling_nothing)
    forced = [getattr(solve_ilp(problem), "objective", None) for problem in programs]
    assert forced == values
    assert work.kinds()["milp"] >= sum(v is not None for v in values)


def test_root_lp_runs_without_presolve(monkeypatch, fixture_run_config, fixture_series):
    # no presolved LP verdict or point is trusted: the first solve on each
    # loaded model is the relaxation, and every relaxation, the root LP and
    # each refine block's, runs with presolve off, and its infeasible
    # verdict settles the program (root_lp_infeasible in golden/work.json).
    # Each run leaves its kind's (solve_relaxation, presolve) set: a MILP
    # runs presolved and its recheck does not. Every solve sees every column
    # integer, as loaded: a relaxation relaxes the model, it never retypes it
    options = {"lp": (True, "off"), "milp": (False, "choose"), "recheck": (False, "off")}
    kinds = set()

    def recording(solve, highs, kind, work):
        assert set(highs.getLp().integrality_) == {HighsVarType.kInteger}
        assert kind == "lp" or not work.fresh
        status = solve()
        left = tuple(highs.getOptionValue(o)[1] for o in ("solve_relaxation", "presolve"))
        kinds.add((kind, left))
        return status

    work = record_work(monkeypatch, recording)
    for spec, series in seeded_strategies(20260823, 220):
        optimize(spec, series)
    roots = {run.status for run in work.runs if run.kind == "lp" and run.fresh}
    assert HighsModelStatus.kInfeasible in roots
    work.runs.clear()
    assert isinstance(optimize(fixture_run_config.strategy, fixture_series), PortfolioSolution)
    lps = [(run.fresh, run.status) for run in work.runs if run.kind == "lp"]
    assert lps[0] == (True, HighsModelStatus.kOptimal)
    assert [fresh for fresh, _ in lps] == [True] + [False] * (len(lps) - 1)
    assert kinds == set(options.items())


def invariance_cases(fixture_run_config, fixture_series, count):
    """The fixture, its ±100 and no-cost variants, and the first ``count``
    strategies of the seeded generator."""
    fixture = fixture_run_config.strategy
    cases = [
        (fixture, fixture_series),
        (dataclasses.replace(fixture, lower=-100, upper=100), fixture_series),
        (dataclasses.replace(fixture, cost_target=None), fixture_series),
    ]
    return cases + list(seeded_strategies(20260823, count))


def unique_answers(cases):
    """(objective, combination index, quantities) of each case, or ``None``
    when it is infeasible."""
    found = []
    for spec, series in cases:
        got = optimize(spec, series)
        if isinstance(got, Infeasible):
            found.append(None)
            continue
        quantities = got.portfolio.calls + got.portfolio.puts
        found.append((got.objective, combination_index(got.combination), quantities))
    return found


@AGREEMENT
def test_answers_do_not_depend_on_highs_random_seed(
    monkeypatch, fixture_run_config, fixture_series
):
    # the answer is unique by definition (objective, then lowest combination
    # index, then smallest quantities), so no change of HiGHS's search path
    # may move it: each random_seed must give the default run's answers,
    # infeasible verdicts included
    cases = invariance_cases(fixture_run_config, fixture_series, 60)
    seeds = []

    def reseeded(solve, highs, kind, work):
        if seeds:
            highs.setOptionValue("random_seed", seeds[-1])
        return solve()

    work = record_work(monkeypatch, reseeded)
    expected = unique_answers(cases)
    assert sum(got is not None for got in expected) >= 11
    nodes = {sum(run.nodes for run in work.runs if run.kind == "milp")}
    for seed in (1, 2, 3):
        seeds.append(seed)
        work.runs.clear()
        assert unique_answers(cases) == expected, seed
        nodes.add(sum(run.nodes for run in work.runs if run.kind == "milp"))
    # the seeds do move HiGHS's search
    assert len(nodes) > 1


@AGREEMENT
def test_answers_do_not_depend_on_row_order(
    monkeypatch, fixture_run_config, fixture_series
):
    # the order of the rows handed to HiGHS is another part of its search
    # path: each seeded shuffle of the loaded rows must give the default
    # run's answers; the Row tuples that the exact checks read keep their
    # order
    import payoffopt.ilp_solver as ilp_solver

    start = time.perf_counter()
    cases = invariance_cases(fixture_run_config, fixture_series, 30)
    work = record_work(monkeypatch)
    real_load = ilp_solver._load
    expected = unique_answers(cases)
    assert sum(got is not None for got in expected) >= 6
    default_nodes = [run.nodes for run in work.runs if run.kind != "lp"]
    moved = False
    for seed in (1, 2):

        def shuffled(
            highs, objective, rows, bounds, shuffle=random.Random(seed).shuffle
        ):
            rows = list(rows)
            shuffle(rows)
            real_load(highs, objective, rows, bounds)

        monkeypatch.setattr(ilp_solver, "_load", shuffled)
        work.runs.clear()
        assert unique_answers(cases) == expected, seed
        moved |= [run.nodes for run in work.runs if run.kind != "lp"] != default_nodes
    # the shuffles do move HiGHS's search
    assert moved
    assert time.perf_counter() - start < 30


@pytest.fixture(scope="module")
def liquidity_sweep(fixture_run_config, fixture_series):
    spec = dataclasses.replace(fixture_run_config.strategy, cost_target=None)
    start = time.perf_counter()
    report = sweep(SweepAxis.LIQUIDITY, spec, fixture_series, [10, 50, 100])
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
    assert [combination_index(s.combination) for s in solutions] == [1091, 1090, 1090]
    assert [(s.portfolio.calls, s.portfolio.puts) for s in solutions] == [
        ((0, 10, -2, -10, -8, 10), (0, 0, 0, -4, 1, 3)),
        ((0, 41, 0, -41, -50, 50), (0, 0, 0, -41, 50, -9)),
        ((0, 88, -1, -89, -98, 100), (0, 0, 0, -81, 88, -7)),
    ]


@RUNTIME
def test_full_run_finishes_inside_envelope(full_run):
    solution, elapsed = full_run
    assert isinstance(solution, PortfolioSolution)
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
    "lots, bitstring, calls, puts",
    [
        (None, "010011000010", (0, 4, 0, -10, 1, 5), (0, 0, 0, -4, 8, -4)),
        (100, "001001000101", (0, -4, 13, -9, -5, 5), (0, 0, 0, 4, -8, 4)),
    ],
)
def test_fixture_tie_break(
    fixture_run_config, fixture_series, lots, bitstring, calls, puts
):
    # one optimum at both bounds, each at its lowest optimal combination
    # index and smallest quantities; its HiGHS work is in golden/work.json
    spec = fixture_run_config.strategy
    if lots is not None:
        spec = dataclasses.replace(spec, lower=-lots, upper=lots)
    solution = optimize(spec, fixture_series)
    assert solution.objective == 40000
    assert solution.combination.bitstring == bitstring
    assert (solution.portfolio.calls, solution.portfolio.puts) == (calls, puts)


@pytest.mark.parametrize("lots", [50, 100])
def test_fixture_lex_refine_matches_slotwise_oracle(
    fixture_run_config, fixture_series, lots
):
    # at these bounds a free Stage-B column spans 50 or 51 values (four
    # blocks of three) or 100 or 101 (six blocks of two). Stage A
    # against the oracle on the combined program; Stage B, run on the
    # combined program with the side bits fixed, against the oracle on the
    # winning combination's own subproblem
    spec = dataclasses.replace(fixture_run_config.strategy, lower=-lots, upper=lots)
    combined = build_combined(spec, fixture_series)
    program = solve_ilp(combined)
    slots = 2 * fixture_series.n
    ranked = program.refine(program.x, slots)
    assert ranked[:slots] == slotwise_refine(combined, program.objective, slots)[:slots]
    bounds = combination_bounds(fixture_series.n, combined, ranked)
    combo, got = decode_combined(
        fixture_series.n, program.refine(ranked, combined.num_vars, bounds)
    )
    subproblem = build_subproblem(spec, fixture_series, combo)
    assert got == slotwise_refine(subproblem, program.objective, slots)
    solution = optimize(spec, fixture_series)
    assert solution.combination == combo
    assert solution.portfolio.calls + solution.portfolio.puts == got


@EXACT
def test_solver_exact_on_random_integer_programs():
    rng = random.Random(416002)
    start = time.perf_counter()
    for _ in range(500):
        problem = random_ilp(rng)
        fast = solve_refined(problem)
        exhaustive = brute_force(problem)
        assert fast == exhaustive
        if fast is not None:
            relaxed = lp_relaxation(problem)
            assert relaxed is not None
            assert relaxed[0] + 1e-6 >= fast.objective
    elapsed = time.perf_counter() - start
    assert elapsed < 60


@EXACT
def test_exact_equality_check_is_sound(fixture_run_config, fixture_series):
    # whenever the check claims that the equality rows have no integer
    # point, exhaustive search finds no point either: on random programs,
    # on every combination's subproblem of the seeded corpus, and on the
    # corpus's and the fixture's combined programs (exhausted through their
    # subproblems, which the combined program covers exactly)
    rng = random.Random(13013)
    fired = fired_past_lp = 0
    for case in range(400):
        problem = random_equality_ilp(rng)
        if off_lattice_rows(equalities(problem)) is not None:
            fired += 1
            fired_past_lp += lp_relaxation(problem) is not None
            assert brute_force(problem) is None, case
            assert solve_ilp(problem) is None, case
    assert fired >= 311
    assert fired_past_lp >= 93

    cases = list(seeded_strategies(20260823, 220))
    cases.append((fixture_run_config.strategy, fixture_series))
    combined_fired = subproblem_fired = 0
    for case, (spec, series) in enumerate(cases):
        combined = off_lattice_rows(equality_rows(spec, series)) is not None
        combined_fired += combined
        if series.n > 3:
            assert not combined  # the fixture is feasible
            continue
        for index in range(1 << (2 * series.n)):
            combo = combination_from_index(series.n, index)
            subproblem = build_subproblem(spec, series, combo)
            settled = off_lattice_rows(equalities(subproblem)) is not None
            subproblem_fired += settled
            # a combined program without integer point leaves none to any
            # of its subproblems
            assert settled or not combined, (case, index)
            if settled:
                assert brute_force(subproblem) is None, (case, index)
        if combined:
            assert reference_optimize(spec, series) is None, case
    assert combined_fired == 70
    assert subproblem_fired >= 2467


@EXACT
def test_unreachable_row_is_sound():
    # whenever optimize's pre-check names an equality row that no quantity
    # vector in the box meets, exhaustive search over every combination
    # finds no portfolio either: on the seeded corpus, where it settles 128
    # combined programs, 58 of them past the Hermite normal form check, and
    # on three more seeds
    fired = {}
    for seed, count in ((20260823, 220), (1, 300), (2, 300), (3, 300)):
        settled = past_hnf = 0
        for case, (spec, series) in enumerate(seeded_strategies(seed, count)):
            rows = equality_rows(spec, series)
            name = unreachable_row(rows, spec.lower, spec.upper)
            if name is None:
                continue
            settled += 1
            past_hnf += off_lattice_rows(rows) is None
            assert reference_optimize(spec, series) is None, (seed, case)
        fired[seed] = settled, past_hnf
    assert fired == {20260823: (128, 58), 1: (154, 57), 2: (174, 73), 3: (183, 78)}


def test_row_check_settles_the_corpus_by_row():
    # optimize's row check, on rows computed from the spec and the series
    settled = Counter()
    for spec, series in seeded_strategies(20260823, 220):
        name = unreachable_row(equality_rows(spec, series), spec.lower, spec.upper)
        settled[name] += name is not None
    assert +settled == {"balance_left": 74, "balance_right": 41, "cost": 13}


def test_row_check_enumerates_no_row_the_zero_vector_meets(monkeypatch):
    # over the corpus, the row check enumerates exactly what it enumerates
    # with every row of right-hand side 0 taken out: both tail rows of all
    # 220 strategies and 4 balance rows at a max loss of 0. Every one of
    # those rows has halves inside the box cap, so only the skip keeps them
    # out
    enumerated = []
    real = model_builder._sums
    monkeypatch.setattr(
        model_builder, "_sums", lambda *args: enumerated.append(args) or real(*args)
    )
    zero = small = 0
    for spec, series in seeded_strategies(20260823, 220):
        rows = equality_rows(spec, series)
        nonzero = tuple(row for row in rows if row[3])
        zero += len(rows) - len(nonzero)
        box = spec.upper - spec.lower + 1
        small += sum(
            box ** math.ceil(sum(bool(a or b) for a, b in zip(ask, bid)) / 2)
            <= model_builder._HALF_BOX
            for _, ask, bid, rhs in rows
            if rhs == 0
        )
        enumerated.clear()
        name = unreachable_row(rows, spec.lower, spec.upper)
        seen = list(enumerated)
        enumerated.clear()
        assert unreachable_row(nonzero, spec.lower, spec.upper) == name
        assert enumerated == seen
    assert (zero, small) == (444, 444)


def test_lattice_check_needs_no_combined_program(fixture_run_config, fixture_series):
    # the lattice check on the strategy's equality rows returns what it
    # returns on the combined program's, side-bit columns and all: which
    # row fails first does not depend on the columns
    cases = list(seeded_strategies(20260823, 220))
    for cost in (5000, 1, -5000):
        spec = dataclasses.replace(
            fixture_run_config.strategy, cost_target=CostTarget(Relation.EQ, cost)
        )
        cases.append((spec, fixture_series))
    fired = 0
    for spec, series in cases:
        rows = off_lattice_rows(equality_rows(spec, series))
        assert rows == off_lattice_rows(equalities(build_combined(spec, series)))
        fired += rows is not None
    assert fired == 73


def test_unreachable_row_settles_a_strategy_without_highs(monkeypatch):
    # corpus strategy 54: its left tail balance cannot be met in its box,
    # which the exact check sees at once; HiGHS once needed a root LP, a
    # 7-node MILP and a 14-node presolve-off recheck to say so
    spec, series = list(seeded_strategies(20260823, 55))[54]
    rows = equality_rows(spec, series)
    assert unreachable_row(rows, spec.lower, spec.upper) == "balance_left"
    work = record_work(monkeypatch)
    assert optimize(spec, series) == Infeasible(("balance_left",))
    assert (work.runs, work.loads) == ([], [])


@pytest.mark.parametrize("cost", [5000, 1, -5000], ids=["50.00", "0.01", "-50.00"])
def test_lattice_check_settles_what_the_row_check_skips(
    monkeypatch, fixture_run_config, fixture_series, cost
):
    # the fixture's rows are too wide for unreachable_row, so at these "="
    # cost targets optimize's lattice check (Hermite normal form) proves the
    # combined program infeasible before any HiGHS load or call; its
    # elimination gets through every equality row but the cost row
    spec = dataclasses.replace(
        fixture_run_config.strategy, cost_target=CostTarget(Relation.EQ, cost)
    )
    equations = equality_rows(spec, fixture_series)
    assert unreachable_row(equations, spec.lower, spec.upper) is None
    rows = ("tail_calls", "tail_puts", "balance_left", "balance_right", "cost")
    assert off_lattice_rows(equations) == rows
    work = record_work(monkeypatch)
    assert optimize(spec, fixture_series) == Infeasible(rows)
    assert (work.runs, work.loads) == ([], [])


@pytest.mark.parametrize(
    "lots", [None, 100, 10**15, 10**400], ids=["fixture", "100", "1e15", "1e400"]
)
def test_unreachable_row_skips_wide_boxes_unenumerated(
    monkeypatch, fixture_run_config, fixture_series, lots
):
    # each half of every fixture row holds 21^3 points or more, past the
    # 2^12 cap, so the check returns at once and enumerates nothing, even
    # at bounds no enumeration could finish
    built = []
    monkeypatch.setattr(model_builder, "_sums", lambda *args: built.append(args) or set())
    spec = fixture_run_config.strategy
    if lots is not None:
        spec = dataclasses.replace(spec, lower=-lots, upper=lots)
    rows = equality_rows(spec, fixture_series)
    assert unreachable_row(rows, spec.lower, spec.upper) is None
    assert built == []


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
    from payoffopt.market_data import validate_chain

    assert validate_chain(fixture_chain) == []

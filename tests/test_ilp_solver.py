import math
import random
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import (
    Bounds,
    LinearConstraint,
    OptimizeResult,
    OptimizeWarning,
    milp,
)

from payoffopt import (
    BRUTE_FORCE_LIMIT,
    CapacityError,
    IlpProblem,
    IntSolution,
    Relation,
    Row,
    SolverNumericalError,
    brute_force,
    solve_ilp,
)
from payoffopt.ilp_solver import (
    _BLOCK_RANGE,
    _FEASIBILITY_JUMP_WARNING,
    _block_size,
    lex_refine,
)
from support import (
    count_solver_calls,
    lp_relaxation,
    random_ilp,
    random_wide_ilp,
    slotwise_refine,
)

ALL_ROUTES = [solve_ilp, brute_force]


def fractional_problem():
    # LP optimum x = 2.5, integer optimum x = 2
    return IlpProblem(
        objective=(1,),
        objective_constant=0,
        rows=(Row.of("half", [2], Relation.LE, 5),),
        bounds=((0, 10),),
    )


def infeasible_problem():
    return IlpProblem(
        objective=(1,),
        objective_constant=0,
        rows=(
            Row.of("low", [1], Relation.GE, 1),
            Row.of("high", [1], Relation.LE, -1),
        ),
        bounds=((-5, 5),),
    )


@pytest.mark.parametrize("solver", ALL_ROUTES)
def test_fractional_bound_rounds_down(solver):
    assert solver(fractional_problem()) == IntSolution(x=(2,), objective=2)


def test_relaxation_is_fractional():
    objective, x = lp_relaxation(fractional_problem())
    assert objective == pytest.approx(2.5)
    assert x[0] == pytest.approx(2.5)


@pytest.mark.parametrize("solver", ALL_ROUTES)
def test_infeasible_returns_none(solver):
    assert solver(infeasible_problem()) is None


def test_relaxation_reports_infeasible():
    assert lp_relaxation(infeasible_problem()) is None


@pytest.mark.parametrize("solver", ALL_ROUTES)
def test_zero_variable_problems(solver):
    empty = IlpProblem(objective=(), objective_constant=7, rows=(), bounds=())
    assert solver(empty) == IntSolution(x=(), objective=7)
    dead = IlpProblem(
        objective=(),
        objective_constant=0,
        rows=(Row.of("never", [], Relation.LE, -1),),
        bounds=(),
    )
    assert solver(dead) is None


@pytest.mark.parametrize("solver", ALL_ROUTES)
def test_refinement_picks_box_lows_under_flat_objective(solver):
    flat = IlpProblem(
        objective=(0, 0),
        objective_constant=0,
        rows=(),
        bounds=((-2, 3), (-1, 4)),
    )
    assert solver(flat) == IntSolution(x=(-2, -1), objective=0)


@pytest.mark.parametrize("solver", ALL_ROUTES)
def test_refinement_orders_ties_lexicographically(solver):
    tied = IlpProblem(
        objective=(1, 1),
        objective_constant=0,
        rows=(Row.of("cap", [1, 1], Relation.LE, 3),),
        bounds=((0, 3), (0, 3)),
    )
    assert solver(tied) == IntSolution(x=(0, 3), objective=3)


def test_unrefined_objective_still_exact():
    tied = IlpProblem(
        objective=(1, 1),
        objective_constant=5,
        rows=(Row.of("cap", [1, 1], Relation.LE, 3),),
        bounds=((0, 3), (0, 3)),
    )
    result = solve_ilp(tied, refine=False)
    assert result is not None
    assert result.objective == 8
    assert tied.objective_value(result.x) == 8


def test_routes_agree_on_random_instances():
    rng = random.Random(416)
    disagreements = []
    feasible = 0
    for i in range(80):
        problem = random_ilp(rng)
        fast = solve_ilp(problem)
        exhaustive = brute_force(problem)
        if fast != exhaustive:
            disagreements.append((i, fast, exhaustive))
            continue
        if fast is None:
            continue
        feasible += 1
        relaxed = lp_relaxation(problem)
        assert relaxed is not None
        assert relaxed[0] + 1e-6 >= fast.objective
    assert disagreements == []
    assert feasible >= 20


def test_deterministic_across_calls():
    rng = random.Random(7)
    problems = [random_ilp(rng) for _ in range(10)]
    first = [solve_ilp(p) for p in problems]
    second = [solve_ilp(p) for p in problems]
    assert first == second


def presolve_solve_error_problem():
    # infeasible (none of the 64 box points satisfies the rows) while its LP
    # relaxation is feasible; HiGHS with presolve on has answered it with
    # "Solve error" (status 4) rather than an infeasibility verdict
    return IlpProblem(
        objective=(1683, -1016, -751, 294, 2401, 2870),
        objective_constant=0,
        rows=(
            Row.of("tail_calls", [1, 1, 1, 0, 0, 0], Relation.EQ, 0),
            Row.of("tail_puts", [0, 0, 0, 1, 1, 1], Relation.EQ, 0),
            Row.of("slope[137,157]", [1, 0, 0, -1, -1, -1], Relation.GE, 0),
            Row.of("slope[157,167]", [1, 1, 0, -1, -1, -1], Relation.GE, 0),
            Row.of("slope[167,177]", [1, 1, 0, 0, -1, -1], Relation.LE, 0),
            Row.of("slope[177,187]", [1, 1, 1, 0, -1, -1], Relation.LE, 0),
            Row.of("slope[187,197]", [1, 1, 1, 0, 0, -1], Relation.LE, 0),
            Row.of(
                "positivity", [2150, 150, 0, 850, 2850, 3850], Relation.GE, 1
            ),
            Row.of("cost", [467, 1166, 751, 556, 449, 980], Relation.EQ, -546),
        ),
        bounds=((0, 1), (-1, 0), (-1, 0), (-1, 0), (0, 1), (-1, 0)),
    )


def test_presolve_solve_error_settles_as_infeasible(capfd):
    problem = presolve_solve_error_problem()
    assert lp_relaxation(problem) is not None
    assert [route(problem) for route in ALL_ROUTES] == [None, None]
    # HiGHS prints diagnostics for this program straight to file descriptor 1
    out, _ = capfd.readouterr()
    assert out == ""


def test_repeated_solve_error_raises(monkeypatch):
    calls = []

    def failing_milp(*args, integrality=None, options=None, **kwargs):
        if integrality is None:
            # the root LP, whose feasible verdict hands over to the MILP
            return milp(*args, **kwargs)
        calls.append(options.get("presolve", True))
        return OptimizeResult(status=4, x=None, message="Solve error")

    monkeypatch.setattr("payoffopt.ilp_solver.milp", failing_milp)
    with pytest.raises(SolverNumericalError, match="status 4"):
        solve_ilp(fractional_problem())
    assert calls == [True, False]


def test_feasibility_jump_off_in_both_attempts(monkeypatch):
    seen = []

    def failing_milp(*args, integrality=None, options=None, **kwargs):
        if integrality is None:
            return milp(*args, **kwargs)
        seen.append(dict(options))
        return OptimizeResult(status=4, x=None, message="Solve error")

    monkeypatch.setattr("payoffopt.ilp_solver.milp", failing_milp)
    with pytest.raises(SolverNumericalError):
        solve_ilp(fractional_problem())
    assert [o.get("presolve", True) for o in seen] == [True, False]
    assert all(o["mip_heuristic_run_feasibility_jump"] is False for o in seen)


def test_highs_recognises_feasibility_jump_option():
    # HiGHS raises an OptimizeWarning for an option it ignores; scipy's own
    # RuntimeWarning about passing the option on is what _milp_once filters
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = milp(
            -np.ones(1),
            constraints=LinearConstraint([[2.0]], -np.inf, 5.0),
            bounds=Bounds(0, 10),
            integrality=np.ones(1),
            options={"mip_heuristic_run_feasibility_jump": False},
        )
    assert result.status == 0 and list(result.x) == [2.0]
    assert not [w for w in caught if issubclass(w.category, OptimizeWarning)]
    assert all(re.match(_FEASIBILITY_JUMP_WARNING, str(w.message)) for w in caught)


def test_other_milp_warnings_still_surface(monkeypatch):
    def warning_milp(*args, **kwargs):
        warnings.warn("unrelated backend notice", RuntimeWarning)
        return milp(*args, **kwargs)

    monkeypatch.setattr("payoffopt.ilp_solver.milp", warning_milp)
    with pytest.warns(RuntimeWarning, match="unrelated backend notice"):
        assert solve_ilp(fractional_problem()) == IntSolution(x=(2,), objective=2)


def test_root_lp_failure_falls_through_to_milp(monkeypatch):
    problems = [fractional_problem(), infeasible_problem()]
    rng = random.Random(4)
    problems += [random_ilp(rng) for _ in range(10)]
    unpatched = [solve_ilp(p) for p in problems]
    lp_calls = []

    def failing_root_lp(*args, **kwargs):
        if kwargs.get("integrality") is not None:
            return milp(*args, **kwargs)
        lp_calls.append(1)
        return OptimizeResult(status=4, x=None, fun=None, message="numerical")

    monkeypatch.setattr("payoffopt.ilp_solver.milp", failing_root_lp)
    assert [solve_ilp(p) for p in problems] == unpatched
    assert len(lp_calls) == sum(1 for p in problems if p.rows)
    assert unpatched[1] is None and unpatched[0] is not None


def test_refine_fixes_slots_at_lower_bound_without_a_solve(monkeypatch):
    # every optimum has x1 = -1, its lower bound; x0 is free and x2 + x3 = 3
    # is tied
    problem = IlpProblem(
        objective=(0, -1, 1, 1),
        objective_constant=0,
        rows=(Row.of("cap", [0, 0, 1, 1], Relation.LE, 3),),
        bounds=((-2, 2), (-1, 3), (0, 3), (0, 3)),
    )
    expected = IntSolution(x=(-2, -1, 0, 3), objective=4)
    assert solve_ilp(problem) == brute_force(problem) == expected
    calls = count_solver_calls(monkeypatch)
    # from the answer itself the first three slots sit at their lower
    # bounds and are fixed without a solve; only x3 takes one
    assert lex_refine(problem, 4, expected.x, 3) == expected.x
    assert calls["milp"] == 0
    assert lex_refine(problem, 4, expected.x, 4) == expected.x
    assert calls["milp"] == 1


def split(widths):
    """Block sizes ``lex_refine`` takes when no slot is at its lower bound."""
    sizes, start = [], 0
    while start < len(widths):
        sizes.append(_block_size(widths[start:]))
        start += sizes[-1]
    return sizes


@pytest.mark.parametrize(
    "widths, sizes",
    [
        ([2] * 12, [12]),
        ([11] * 12, [5, 5, 2]),
        ([101] * 12, [2] * 6),
        ([2] * 54, [18, 18, 18]),
        ([2**18 + 1, 2, 2**17, 3], [1, 2, 1]),
    ],
    ids=["12-binary", "12-width-11", "12-width-101", "54-binary", "oversized"],
)
def test_block_split(monkeypatch, widths, sizes):
    assert split(widths) == sizes
    start = 0
    for size in sizes:
        assert math.prod(widths[start : start + size]) <= _BLOCK_RANGE or size == 1
        start += size
    # every slot has bounds [-1, width - 2] and a row x >= 0, so no point
    # holds a slot at its lower bound: from the upper bounds each block
    # takes exactly one MILP, and the refine lands on all zeros
    num = len(widths)
    problem = IlpProblem(
        objective=(0,) * num,
        objective_constant=7,
        rows=tuple(
            Row.of(f"floor{j}", [int(i == j) for i in range(num)], Relation.GE, 0)
            for j in range(num)
        ),
        bounds=tuple((-1, w - 2) for w in widths),
    )
    calls = count_solver_calls(monkeypatch)
    seed = tuple(w - 2 for w in widths)
    assert lex_refine(problem, 7, seed, num) == (0,) * num
    assert calls["milp"] == len(sizes)


def test_lex_refine_matches_slotwise_oracle_on_wide_programs(monkeypatch):
    rng = random.Random(1207)
    calls = count_solver_calls(monkeypatch)
    feasible = multi_block = checked = 0
    for case in range(60):
        problem = random_wide_ilp(rng)
        first = solve_ilp(problem, refine=False)
        if first is None:
            continue
        feasible += 1
        before = calls["milp"]
        got = lex_refine(problem, first.objective, first.x, problem.num_vars)
        multi_block += calls["milp"] - before > 1
        assert got == slotwise_refine(problem, first.objective, problem.num_vars), case
        assert solve_ilp(problem) == IntSolution(got, first.objective), case
        if math.prod(hi - lo + 1 for lo, hi in problem.bounds) <= 2_000_000:
            checked += 1
            assert brute_force(problem) == IntSolution(got, first.objective), case
    assert feasible >= 20
    assert multi_block >= 5
    assert checked >= 5


def test_lex_refine_rejects_a_seed_off_the_optimum():
    problem = fractional_problem()
    with pytest.raises(SolverNumericalError, match="seed"):
        lex_refine(problem, 2, (1,), 1)
    with pytest.raises(SolverNumericalError, match="seed"):
        lex_refine(problem, 3, (3,), 1)


def test_brute_force_capacity_guard():
    wide = IlpProblem(
        objective=(1,) * 5,
        objective_constant=0,
        rows=(),
        bounds=((0, 99),) * 5,
    )
    # refused before any enumeration
    assert 100**5 > BRUTE_FORCE_LIMIT
    with pytest.raises(CapacityError, match="points"):
        brute_force(wide)

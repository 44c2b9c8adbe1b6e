import dataclasses
import errno
import inspect
import math
import os
import random
import re
from unittest.mock import Mock

import pytest
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsStatus,
    HighsVarType,
    MatrixFormat,
    _Highs,
)

import payoffopt.ilp_solver
from payoffopt.ilp_solver import (
    NODE_BUDGET,
    Program,
    SolverError,
    SolverResourceError,
    _BLOCK_RANGE,
    _KINDS,
    _OPTIONS,
    _PINNED_OPTIONS,
    _block_size,
    _holds,
    solve_ilp,
)
from payoffopt.model_builder import (
    IlpProblem,
    Relation,
    Row,
    build_combined,
    off_lattice_rows,
)
from payoffopt.optimizer import Infeasible, _stdout_discarded, optimize
from support import (
    BRUTE_FORCE_LIMIT,
    CASES,
    CapacityError,
    IntSolution,
    brute_force,
    equalities,
    fake_milp_runs,
    lp_relaxation,
    objective_value,
    random_ilp,
    random_wide_ilp,
    record_work,
    seeded_strategies,
    slotwise_refine,
    solve_refined,
)

ALL_ROUTES = [solve_refined, brute_force]
# the production route is solve_ilp, which solve_refined follows with a refine
ROUTE_IDS = ["solve_ilp", "brute_force"]


def fractional_problem():
    # LP optimum x = 2.5, integer optimum x = 2
    return IlpProblem(
        objective=(1,),
        rows=(Row("half", (2,), Relation.LE, 5),),
        bounds=((0, 10),),
    )


def integral_problem():
    # LP optimum x = 2, integral, so the relaxation settles each solve
    return IlpProblem(
        objective=(1,),
        rows=(Row("cap", (1,), Relation.LE, 2),),
        bounds=((0, 5),),
    )


def infeasible_problem():
    return IlpProblem(
        objective=(1,),
        rows=(
            Row("low", (1,), Relation.GE, 1),
            Row("high", (1,), Relation.LE, -1),
        ),
        bounds=((-5, 5),),
    )


def gcd_problem():
    # 2x + 4y is even, so no integer point, while x = 1.5 solves the LP
    return IlpProblem(
        objective=(1, 1),
        rows=(Row("odd", (2, 4), Relation.EQ, 3),),
        bounds=((-5, 5), (-5, 5)),
    )


def joint_problem():
    # each row alone has integer solutions; together they force x = y = 1/2
    return IlpProblem(
        objective=(1, -1),
        rows=(
            Row("sum", (1, 1), Relation.EQ, 1),
            Row("diff", (1, -1), Relation.EQ, 0),
        ),
        bounds=((-5, 5), (-5, 5)),
    )


# a point of strike_sized_problem
STRIKE_SIZED_POINT = (2, -3, 1, 0, 1, -1)


def strike_sized_problem():
    # the tail, tail-balance and cost rows of a 3 + 3 slot subproblem at
    # fixture-sized strikes (cents) and prices, all held by STRIKE_SIZED_POINT
    prices = (12200, 7300, 3950, 1700, 2800, 4750)
    balance_left = tuple(
        k * 100 - p for k, p in zip((0, 0, 0, 7850, 7950, 8050), prices)
    )
    balance_right = tuple(
        -k * 100 - p for k, p in zip((8050, 8150, 8250, 0, 0, 0), prices)
    )
    rows = [
        Row("tail_calls", (1, 1, 1, 0, 0, 0), Relation.EQ, 0),
        Row("tail_puts", (0, 0, 0, 1, 1, 1), Relation.EQ, 0),
        Row("slope", (1, 1, 0, -1, 0, 0), Relation.GE, -3),
    ]
    for name, coeffs in [
        ("balance_left", balance_left),
        ("balance_right", balance_right),
        ("cost", prices),
    ]:
        rhs = sum(c * v for c, v in zip(coeffs, STRIKE_SIZED_POINT))
        rows.append(Row(name, coeffs, Relation.EQ, rhs))
    return IlpProblem(
        objective=(5, -2, 1, 3, -4, 2),
        rows=tuple(rows),
        bounds=((-3, 3),) * 6,
    )


@pytest.mark.parametrize(
    "make, rows, solves",
    [
        (gcd_problem, ("odd",), {"lp": 1, "milp": 1, "recheck": 1}),
        (joint_problem, ("sum", "diff"), {"lp": 1, "milp": 1, "recheck": 1}),
        (strike_sized_problem, None, {"lp": 2, "milp": 1}),
        (infeasible_problem, None, {"lp": 1}),
        (fractional_problem, None, {"lp": 2, "milp": 1}),
    ],
    ids=["gcd", "joint", "strike-sized", "infeasible-no-eq", "feasible-no-eq"],
)
def test_exact_equality_check(monkeypatch, make, rows, solves):
    # the lattice check names the equality rows its elimination used up to
    # the one that fails; solve_ilp leaves that check to optimize and
    # settles every program itself, from its root LP on: a fractional root
    # LP hands a feasible relaxation to the MILP, and the refine's one
    # block is settled by its LP
    problem = make()
    assert off_lattice_rows(equalities(problem)) == rows
    expected = brute_force(problem)
    if rows is not None:
        assert expected is None
    work = record_work(monkeypatch)
    assert solve_refined(problem) == expected
    assert work.kinds() == solves


def test_exact_check_hand_cases_are_what_they_claim():
    problem = strike_sized_problem()
    assert _holds(STRIKE_SIZED_POINT, problem.rows, problem.bounds)
    assert max(abs(c) for row in problem.rows for c in row.coeffs) > 800_000
    # each row of the joint case alone has an integer point
    for row in joint_problem().rows:
        alone = dataclasses.replace(joint_problem(), rows=(row,))
        assert brute_force(alone) is not None
    # both settled cases have a feasible LP relaxation: the root LP cannot
    # settle them, only a MILP or the exact check can
    assert lp_relaxation(joint_problem()) is not None
    assert lp_relaxation(gcd_problem()) is not None


def test_exact_equality_check_on_degenerate_rows():
    # an all-zero row holds only with a zero right-hand side; a repeated row
    # adds nothing
    for rhs, settled in [(0, False), (2, True)]:
        rows = (
            Row("zero", (0, 0), Relation.EQ, rhs),
            Row("a", (3, 6), Relation.EQ, 9),
            Row("b", (3, 6), Relation.EQ, 9),
        )
        problem = IlpProblem((1, 1), rows, ((-9, 9), (-9, 9)))
        assert off_lattice_rows(equalities(problem)) == (("zero",) if settled else None)
        assert (brute_force(problem) is None) is settled


@pytest.mark.parametrize("solver", ALL_ROUTES, ids=ROUTE_IDS)
def test_fractional_bound_rounds_down(solver):
    assert solver(fractional_problem()) == IntSolution(x=(2,), objective=2)


def test_relaxation_is_fractional():
    objective, x = lp_relaxation(fractional_problem())
    assert objective == pytest.approx(2.5)
    assert x[0] == pytest.approx(2.5)


@pytest.mark.parametrize("solver", ALL_ROUTES, ids=ROUTE_IDS)
def test_infeasible_returns_none(solver):
    assert solver(infeasible_problem()) is None


def test_relaxation_reports_infeasible():
    assert lp_relaxation(infeasible_problem()) is None


@pytest.mark.parametrize("solver", ALL_ROUTES, ids=ROUTE_IDS)
def test_refinement_picks_box_lows_under_flat_objective(solver):
    flat = IlpProblem(
        objective=(0, 0),
        rows=(),
        bounds=((-2, 3), (-1, 4)),
    )
    assert solver(flat) == IntSolution(x=(-2, -1), objective=0)


@pytest.mark.parametrize("solver", ALL_ROUTES, ids=ROUTE_IDS)
def test_refinement_orders_ties_lexicographically(solver):
    tied = IlpProblem(
        objective=(1, 1),
        rows=(Row("cap", (1, 1), Relation.LE, 3),),
        bounds=((0, 3), (0, 3)),
    )
    assert solver(tied) == IntSolution(x=(0, 3), objective=3)


def test_unrefined_objective_still_exact():
    tied = IlpProblem(
        objective=(1, 1),
        rows=(Row("cap", (1, 1), Relation.LE, 3),),
        bounds=((0, 3), (0, 3)),
    )
    result = solve_ilp(tied)
    assert result is not None
    assert result.objective == 3
    assert objective_value(tied, result.x) == 3


def test_routes_agree_on_random_instances():
    rng = random.Random(416)
    disagreements = []
    feasible = 0
    for i in range(80):
        problem = random_ilp(rng)
        fast = solve_refined(problem)
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
    first = [solve_refined(p) for p in problems]
    second = [solve_refined(p) for p in problems]
    assert first == second


def test_live_programs_hold_distinct_instances():
    # each live program holds its own instance, so refines of several
    # programs may interleave; a released program's instance is the next
    # program's
    rng = random.Random(11)
    problems = [p for p in (random_ilp(rng) for _ in range(40)) if brute_force(p)][:6]
    assert len(problems) == 6
    programs = [solve_ilp(problem) for problem in problems]
    assert len({id(program.highs) for program in programs}) == len(programs)
    points = [program.refine(program.x, 1) for program in programs]
    for problem, program, x in zip(problems, programs, points):
        got = IntSolution(program.refine(x, problem.num_vars), program.objective)
        assert got == brute_force(problem)
    released = programs.pop(0).highs
    assert Program._idle == [released]
    assert solve_ilp(problems[0]).highs is released


def options_of(highs):
    """Every HiGHS option ``highs`` holds, by name."""
    options = highs.getOptions()
    return {name: getattr(options, name) for name in dir(options) if name[0] != "_"}


# options a program might leave on its instance: the sub-MIPs' switches
# against the pin's, a node limit of one, presolve off, and a seed the
# solver never sets
STRAY_OPTIONS = (
    ("mip_heuristic_run_rins", True),
    ("mip_max_nodes", 1),
    ("presolve", "off"),
    ("random_seed", 7),
)


def test_a_reused_instance_solves_as_a_new_one(monkeypatch):
    # the next load clears whatever the instance's last program left: after
    # a program that set stray options, and after a load HiGHS rejected, a
    # program runs with every option as on a new instance, does the same
    # work and gives the same answer
    problem = rounds_off_the_floor_problem()
    seen = []

    def reading(solve, highs, kind, work):
        status = solve()
        seen.append((highs, options_of(highs)))
        return status

    work = record_work(monkeypatch, reading)

    def solved_on(instances):
        monkeypatch.setattr(Program, "_idle", instances)
        seen.clear()
        work.loads.clear()
        work.runs.clear()
        answer = solve_refined(problem)
        return answer, [*work.loads], [*work.runs], [options for _, options in seen]

    fresh = solved_on([])
    assert fresh[0] == brute_force(problem)
    assert fresh[2][1].kind == fresh[2][-1].kind == "milp"
    set_options = [*_OPTIONS, *sum(_KINDS.values(), ()), *_PINNED_OPTIONS]
    assert {name for name, _ in set_options} | {"mip_max_nodes"} <= set(fresh[3][0])

    stray = solve_ilp(fractional_problem())
    for option, value in STRAY_OPTIONS:
        assert stray.highs.setOptionValue(option, value) == HighsStatus.kOk
    reused, stray = stray.highs, None
    assert solved_on([reused]) == fresh
    assert all(highs is reused for highs, _ in seen)

    monkeypatch.setattr(Program, "_idle", [])
    huge = IlpProblem(
        objective=(1,),
        rows=(Row("huge", (10**15,), Relation.LE, 10**15),),
        bounds=((0, 1),),
    )
    with pytest.raises(SolverError, match="Model error"):
        solve_ilp(huge)
    [rejected] = Program._idle
    assert solved_on([rejected]) == fresh
    assert all(highs is rejected for highs, _ in seen)


def presolve_solve_error_problem():
    # infeasible (none of the 64 box points satisfies the rows) while its LP
    # relaxation is feasible; HiGHS with presolve on has answered it with
    # "Solve error" (status 4) rather than an infeasibility verdict
    return IlpProblem(
        objective=(1683, -1016, -751, 294, 2401, 2870),
        rows=(
            Row("tail_calls", (1, 1, 1, 0, 0, 0), Relation.EQ, 0),
            Row("tail_puts", (0, 0, 0, 1, 1, 1), Relation.EQ, 0),
            Row("slope[137,157]", (1, 0, 0, -1, -1, -1), Relation.GE, 0),
            Row("slope[157,167]", (1, 1, 0, -1, -1, -1), Relation.GE, 0),
            Row("slope[167,177]", (1, 1, 0, 0, -1, -1), Relation.LE, 0),
            Row("slope[177,187]", (1, 1, 1, 0, -1, -1), Relation.LE, 0),
            Row("slope[187,197]", (1, 1, 1, 0, 0, -1), Relation.LE, 0),
            Row("positivity", (2150, 150, 0, 850, 2850, 3850), Relation.GE, 1),
            Row("cost", (467, 1166, 751, 556, 449, 980), Relation.EQ, -546),
        ),
        bounds=((0, 1), (-1, 0), (-1, 0), (-1, 0), (0, 1), (-1, 0)),
    )


def test_presolve_solve_error_settles_as_infeasible(capfd):
    problem = presolve_solve_error_problem()
    assert lp_relaxation(problem) is not None
    # HiGHS prints diagnostics for this program straight to file descriptor 1;
    # optimize's guard keeps them off stdout
    with _stdout_discarded():
        assert [route(problem) for route in ALL_ROUTES] == [None, None]
    out, _ = capfd.readouterr()
    assert out == ""


def test_failing_to_open_the_null_device_leaks_no_descriptor(monkeypatch):
    # the error propagates with fd 1 as it was and no descriptor left open
    stdout, fds = os.fstat(1), sorted(os.listdir("/dev/fd"))
    opening = Mock(side_effect=OSError(errno.EMFILE, "Too many open files"))
    monkeypatch.setattr(os, "open", opening)
    with pytest.raises(OSError, match="Too many open files"), _stdout_discarded():
        pass
    opening.assert_called_once_with(os.devnull, os.O_WRONLY)
    assert sorted(os.listdir("/dev/fd")) == fds
    assert os.path.samestat(os.fstat(1), stdout)


def test_repeated_solve_error_raises(monkeypatch):
    kinds = fake_milp_runs(monkeypatch, HighsModelStatus.kSolveError)
    with pytest.raises(SolverError, match="status 4") as err:
        solve_ilp(fractional_problem())
    assert err.type is SolverError
    assert str(err.value) == "MILP backend failed (status 4): Solve error"
    assert kinds == ["milp", "recheck"]


@pytest.mark.parametrize(
    "status, kinds",
    [
        (HighsModelStatus.kInfeasible, ["lp"]),
        (HighsModelStatus.kModelError, ["lp", "milp", "recheck"]),
    ],
    ids=["infeasible", "model-error"],
)
def test_status_2_is_infeasible_only_when_highs_says_so(monkeypatch, status, kinds):
    # scipy's milp gave a model HiGHS rejects the status 2 of an infeasible
    # one; HiGHS's own model status tells them apart, and only a proven
    # infeasibility may settle the program
    work = record_work(monkeypatch, lambda solve, highs, kind, work: status)
    if status == HighsModelStatus.kInfeasible:
        assert solve_ilp(fractional_problem()) is None
    else:
        with pytest.raises(SolverError, match="Model error") as err:
            solve_ilp(fractional_problem())
        assert err.type is SolverError
    assert [run.kind for run in work.runs] == kinds


def one_slot(objective=1, coefficient=1, rhs=1, upper=1):
    """``max objective * x`` with ``coefficient * x <= rhs``, ``0 <= x <= upper``."""
    return IlpProblem(
        objective=(objective,),
        rows=(Row("huge", (coefficient,), Relation.LE, rhs),),
        bounds=((0, upper),),
    )


# how a number beyond floating point is reported
OVERFLOW = "^program exceeds floating point: "
# how a number HiGHS would read as infinite (1e20 or more) is reported
INFINITE = "^program exceeds the solver's range: "


@pytest.mark.parametrize(
    "problem, message",
    [
        (one_slot(coefficient=10**15, rhs=10**15), "Model error"),
        (one_slot(coefficient=10**400, rhs=10**400), OVERFLOW),
        # each number alone, wherever it sits: the columns and the rows go to
        # HiGHS in separate calls
        (one_slot(objective=10**400), OVERFLOW),
        (one_slot(upper=10**400), OVERFLOW),
        (one_slot(coefficient=10**400), OVERFLOW),
        (one_slot(rhs=10**400), OVERFLOW),
        # every number fits floating point, and so would the optimum, 1e310,
        # but HiGHS would read the objective as infinite
        (
            IlpProblem(objective=(10**300,), rows=(), bounds=((0, 10**10),)),
            INFINITE + "cost -1e\\+300 ",
        ),
        # finite, but HiGHS would read each as infinite: the bounded
        # programs would be unbounded, and the others model errors
        (
            IlpProblem(objective=(1,), rows=(), bounds=((0, 10**21),)),
            INFINITE + "bound 1e\\+21 ",
        ),
        (
            IlpProblem(objective=(1,), rows=(), bounds=((0, 10**20),)),
            INFINITE + "bound 1e\\+20 ",
        ),
        (
            IlpProblem(objective=(-1,), rows=(), bounds=((-(10**21), 0),)),
            INFINITE + "bound -1e\\+21 ",
        ),
        (one_slot(objective=10**21), INFINITE + "cost -1e\\+21 "),
        (one_slot(coefficient=10**21), INFINITE + "coefficient 1e\\+21 "),
    ],
    ids=[
        "1e15", "1e400", "objective", "bound", "coefficient", "rhs", "optimum",
        "upper 1e21", "upper 1e20", "lower -1e21", "objective 1e21",
        "coefficient 1e21",
    ],
)
def test_unrepresentable_program_is_a_solver_error(problem, message):
    with pytest.raises(SolverError, match=message) as err:
        solve_ilp(problem)
    assert err.type is SolverError


def test_a_row_side_at_the_solver_infinity_leaves_the_row_open():
    # HiGHS reads a right-hand side of 1e20 or more as infinite; a side that
    # large is no bound on these programs, and the row stays
    program = solve_ilp(one_slot(rhs=10**21, upper=5))
    assert program.x == (5,)


def loaded_model(highs):
    """The model ``highs`` holds: each column's cost, box and integrality,
    and each row's sides and dense coefficients."""
    lp = highs.getLp()
    matrix = lp.a_matrix_
    dense = [[0.0] * lp.num_col_ for _ in range(lp.num_row_)]
    outer = lp.num_col_ if matrix.format_ == MatrixFormat.kColwise else lp.num_row_
    for i in range(outer):
        for k in range(matrix.start_[i], matrix.start_[i + 1]):
            if matrix.format_ == MatrixFormat.kColwise:
                dense[matrix.index_[k]][i] = matrix.value_[k]
            else:
                dense[i][matrix.index_[k]] = matrix.value_[k]
    columns = list(zip(lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.integrality_))
    return columns, list(zip(lp.row_lower_, lp.row_upper_, dense))


@pytest.mark.parametrize("case", ["fixture", "no rows"])
def test_the_loaded_model_is_the_program(fixture_run_config, fixture_series, case):
    # what HiGHS holds after the first solve is the program exactly: the
    # negated objective, the box, every column integer, and every row, the
    # pin included, with an infinite side where the row is open
    if case == "fixture":
        problem = build_combined(fixture_run_config.strategy, fixture_series)
    else:
        problem = IlpProblem(objective=(3, -2, 0), rows=(), bounds=((0, 4), (-1, 5), (2, 2)))
    program = solve_ilp(problem)
    assert program.rows[-1].name == "objective_pin"
    sides = {
        Relation.LE: lambda rhs: (-math.inf, rhs),
        Relation.GE: lambda rhs: (rhs, math.inf),
        Relation.EQ: lambda rhs: (rhs, rhs),
    }
    columns = [
        (-c, lo, hi, HighsVarType.kInteger)
        for c, (lo, hi) in zip(problem.objective, problem.bounds)
    ]
    rows = [(*sides[row.relation](row.rhs), list(row.coeffs)) for row in program.rows]
    assert loaded_model(program.highs) == (columns, rows)


@pytest.mark.parametrize("status", ["kSolutionLimit", "kIterationLimit", "kTimeLimit"])
def test_every_limit_is_a_resource_error(monkeypatch, status):
    # HiGHS reports reaching its node limit as the solution limit; no limit
    # is retried with presolve off
    kinds = fake_milp_runs(monkeypatch, getattr(HighsModelStatus, status))
    with pytest.raises(SolverResourceError, match=f"node budget of {NODE_BUDGET}"):
        solve_ilp(fractional_problem())
    assert kinds == ["milp"]


def test_feasibility_jump_off_in_both_attempts(monkeypatch):
    seen = fake_milp_runs(
        monkeypatch,
        HighsModelStatus.kSolveError,
        record=lambda highs, kind: (
            kind,
            highs.getOptionValue("mip_heuristic_run_feasibility_jump")[1],
        ),
    )
    with pytest.raises(SolverError, match="status 4") as err:
        solve_ilp(fractional_problem())
    assert err.type is SolverError
    assert seen == [("milp", False), ("recheck", False)]


# the options solve_ilp sets once the objective is pinned
SUB_MIP_SWITCHES = dict(_PINNED_OPTIONS)


def sub_mips(highs):
    """Whether the RINS and RENS sub-MIPs are on for ``highs``'s next run."""
    return tuple(highs.getOptionValue(option)[1] for option in SUB_MIP_SWITCHES)


@pytest.mark.parametrize(
    "name, stages",
    [
        ("fixture", ["first", "stage_a"]),
        ("fixture-no-cost-target", ["first", "stage_a", "stage_b"]),
    ],
    ids=["fixture", "no-cost-target"],
)
def test_rins_and_rens_off_once_the_objective_is_pinned(monkeypatch, name, stages):
    # the first MILP keeps HiGHS's defaults; every MILP of a refine, which
    # runs under the objective pin, runs without the two sub-MIPs
    seen = []

    def reading(solve, highs, kind, work):
        seen.append((work.stage, kind, *sub_mips(highs)))
        return solve()

    record_work(monkeypatch, reading)
    [(spec, series)] = CASES[name]()
    optimize(spec, series)
    milps = [run for run in seen if run[1] == "milp"]
    assert milps == [(stage, "milp", *[stage == "first"] * 2) for stage in stages]


def test_rins_and_rens_off_in_a_refine_recheck(monkeypatch):
    # Stage A's MILP ends in "Solve error", so its presolve-off recheck
    # settles the block, on the same pinned instance and with the same answer
    [(spec, series)] = CASES["fixture"]()
    expected = optimize(spec, series)
    seen = []

    def failing_stage_a(solve, highs, kind, work):
        if work.stage == "first":
            return solve()
        seen.append((work.stage, kind, *sub_mips(highs)))
        if work.stage == "stage_a" and kind == "milp":
            return HighsModelStatus.kSolveError
        return solve()

    work = record_work(monkeypatch, failing_stage_a)
    assert optimize(spec, series) == expected
    assert work.kinds("stage_a") == {"lp": 1, "milp": 1, "recheck": 1}
    assert ("stage_a", "recheck", False, False) in seen
    assert all(run[2:] == (False, False) for run in seen)


def test_answers_do_not_depend_on_rins_and_rens(monkeypatch):
    # the sub-MIPs only propose incumbents, and a refine block's key fixes
    # its values whichever search finds the minimum: with both switched back
    # on in every refine run, every answer is the same, from other work
    strategies = [
        *CASES["fixture"](),
        *CASES["fixture-100-lots"](),
        *CASES["fixture-no-cost-target"](),
        *CASES["n7"](),
        *seeded_strategies(20260823, 40),
    ]
    work = record_work(monkeypatch)
    expected = [optimize(spec, series) for spec, series in strategies]
    pinned = [(run.nodes, run.iterations) for run in work.runs]

    def sub_mips_on(solve, highs, kind, work):
        if work.stage != "first":
            for option in SUB_MIP_SWITCHES:
                highs.setOptionValue(option, True)
        return solve()

    monkeypatch.undo()
    work = record_work(monkeypatch, sub_mips_on)
    assert [optimize(spec, series) for spec, series in strategies] == expected
    assert sum(not isinstance(result, Infeasible) for result in expected) >= 8
    assert [(run.nodes, run.iterations) for run in work.runs] != pinned


def test_highs_binding_has_what_the_solver_calls():
    # the solver drives HiGHS through scipy's private binding; a scipy that
    # moves or changes it fails here, by name, before any answer can
    source = inspect.getsource(payoffopt.ilp_solver)
    methods = set(re.findall(r"highs\.(\w+)\(", source))
    assert {
        "clear", "passModel", "addRows", "run", "clearSolver", "changeColsCost",
        "getObjectiveValue",
    } <= methods
    for method in sorted(methods):
        assert callable(getattr(_Highs, method, None)), method
    highs = _Highs()
    fields = set(re.findall(r"highs\.(getInfo|getSolution)\(\)\.(\w+)", source))
    assert {("getSolution", "col_value")} <= fields
    for method, field in sorted(fields):
        assert hasattr(getattr(highs, method)(), field), (method, field)
    options = [
        *_OPTIONS, ("mip_max_nodes", NODE_BUDGET), *sum(_KINDS.values(), ()),
        *_PINNED_OPTIONS,
    ]
    highs.setOptionValue("log_to_console", False)
    for option, value in options:
        assert highs.setOptionValue(option, value) == HighsStatus.kOk, option
        assert highs.getOptionValue(option) == (HighsStatus.kOk, value), option


def test_root_lp_failure_falls_through_to_milp(monkeypatch):
    problems = [fractional_problem(), infeasible_problem(), gcd_problem()]
    rng = random.Random(4)
    problems += [random_ilp(rng) for _ in range(10)]
    unpatched = [solve_refined(p) for p in problems]

    def failing_root_lp(solve, highs, kind, work):
        # the root LP is the first run on each loaded model; the refine's
        # LPs run for real
        return HighsModelStatus.kSolveError if work.fresh else solve()

    work = record_work(monkeypatch, failing_root_lp)
    for problem, expected in zip(problems, unpatched):
        work.runs.clear()
        assert solve_refined(problem) == expected
        # every program gets its root LP, one without rows too, and the
        # MILP settles it after the failure
        assert sum(run.fresh for run in work.runs) == 1
        assert any(run.kind != "lp" for run in work.runs)
    assert unpatched[1] is None and unpatched[0] is not None
    assert unpatched[2] is None


def rounds_off_the_row_problem():
    # LP optimum x = 2.6, which rounds to 3, off the row, though its
    # objective is within 0.5 of the LP's; integer optimum x = 2
    return IlpProblem(
        objective=(1,),
        rows=(Row("fifths", (5,), Relation.LE, 13),),
        bounds=((0, 5),),
    )


def rounds_off_the_floor_problem():
    # every point has x0 = 1; the relaxation of the first solve and of the
    # refine's one block (key 6 x0 + x1) both sit at x1 = 2.4, which rounds
    # to 2, below the floor, at the LP's own objective and 0.4 off its key
    return IlpProblem(
        objective=(1, 0),
        rows=(Row("floor", (0, 5), Relation.GE, 12),),
        bounds=((0, 1), (0, 5)),
    )


@pytest.mark.parametrize(
    "make, answer, solves",
    [
        (rounds_off_the_row_problem, (2,), {"lp": 2, "milp": 1}),
        (rounds_off_the_floor_problem, (1, 3), {"lp": 2, "milp": 2}),
    ],
    ids=["root-lp", "root-lp-and-block"],
)
def test_relaxation_point_failing_the_exact_check_falls_through(
    monkeypatch, make, answer, solves
):
    # a relaxation settles a solve only with a point that meets every row
    # and bound exactly; a rounded point that misses a row leaves the solve
    # to its MILP, which gives the answer an exhaustive search does
    problem = make()
    _, relaxed = lp_relaxation(problem)
    assert relaxed[-1] == pytest.approx(2.6 if len(relaxed) == 1 else 2.4)
    work = record_work(monkeypatch)
    expected = IntSolution(answer, objective_value(problem, answer))
    assert solve_refined(problem) == brute_force(problem) == expected
    assert work.kinds() == solves


@pytest.mark.parametrize(
    "offset, solves",
    [
        (0.0, {"lp": 2}),
        (0.49, {"lp": 2}),
        (-0.49, {"lp": 2}),
        (0.5, {"lp": 2, "milp": 2}),
        (-0.5, {"lp": 2, "milp": 2}),
        (3.0, {"lp": 2, "milp": 2}),
    ],
    ids=["exact", "0.49-above", "0.49-below", "0.5-above", "0.5-below", "3-above"],
)
def test_relaxation_value_off_its_point_falls_through(monkeypatch, offset, solves):
    # the first solve and the refine's one block are each settled by an
    # LP; with the reported LP value moved 0.5 or more off the point's exact
    # objective, the value no longer shows the point optimal, and each solve
    # runs its MILP, with the same answer
    problem = integral_problem()
    real_value = _Highs.getObjectiveValue
    monkeypatch.setattr(
        _Highs, "getObjectiveValue", lambda highs: real_value(highs) + offset
    )
    work = record_work(monkeypatch)
    assert solve_refined(problem) == brute_force(problem) == IntSolution((2,), 2)
    assert work.kinds() == solves


@pytest.mark.parametrize(
    "misreported, status, kinds",
    [
        (0, "kUnknown", ["lp", "milp", "lp"]),
        (0, "kIterationLimit", ["lp", "milp", "lp"]),
        (1, "kUnknown", ["lp", "lp", "milp"]),
        (1, "kIterationLimit", ["lp", "lp", "milp"]),
        (1, "kTimeLimit", ["lp", "lp", "milp"]),
        (1, "kInterrupt", ["lp", "lp", "milp"]),
        (1, "kInfeasible", ["lp", "lp", "milp"]),
    ],
    ids=[
        "root-unknown", "root-iteration-limit", "block-unknown",
        "block-iteration-limit", "block-time-limit", "block-interrupt",
        "block-infeasible",
    ],
)
def test_relaxation_not_reported_optimal_settles_nothing(
    monkeypatch, misreported, status, kinds
):
    # only an optimal relaxation's point is read: an LP that HiGHS solves
    # but reports with another status, the root LP (0) or the refine
    # block's (1), leaves its solve to the MILP; only the root LP's
    # infeasible verdict settles anything, and a block's is not trusted
    problem = integral_problem()

    def misreporting(solve, highs, kind, work):
        verdict = solve()
        if kind == "lp" and work.kinds()["lp"] == misreported:
            return getattr(HighsModelStatus, status)
        return verdict

    work = record_work(monkeypatch, misreporting)
    assert solve_refined(problem) == IntSolution((2,), 2)
    assert [run.kind for run in work.runs] == kinds


def test_refine_fixes_slots_at_lower_bound_without_a_solve(monkeypatch):
    # every optimum has x1 = -1, its lower bound; x0 is free and x2 + x3 = 3
    # is tied
    problem = IlpProblem(
        objective=(0, -1, 1, 1),
        rows=(Row("cap", (0, 0, 1, 1), Relation.LE, 3),),
        bounds=((-2, 2), (-1, 3), (0, 3), (0, 3)),
    )
    expected = IntSolution(x=(-2, -1, 0, 3), objective=4)
    assert solve_refined(problem) == brute_force(problem) == expected
    program = solve_ilp(problem)
    assert program.objective == expected.objective
    work = record_work(monkeypatch)
    # from the answer itself the first three slots sit at their lower
    # bounds and are fixed without a solve; only x3 takes one, its block's
    # LP, whose optimum is integral
    assert program.refine(expected.x, 3) == expected.x
    assert work.kinds() == {}
    assert program.refine(expected.x, 4) == expected.x
    assert work.kinds() == {"lp": 1}


def split(widths):
    """Block sizes ``Program.refine`` takes when no slot is at its lower
    bound."""
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
    # takes exactly one solve, its LP, whose optimum is the block at zero,
    # and the refine lands on all zeros
    num = len(widths)
    problem = IlpProblem(
        objective=(0,) * num,
        rows=tuple(
            Row(f"floor{j}", tuple(int(i == j) for i in range(num)), Relation.GE, 0)
            for j in range(num)
        ),
        bounds=tuple((-1, w - 2) for w in widths),
    )
    program = solve_ilp(problem)
    work = record_work(monkeypatch)
    assert program.refine(tuple(w - 2 for w in widths), num) == (0,) * num
    assert work.kinds() == {"lp": len(sizes)}


def test_lex_refine_matches_slotwise_oracle_on_wide_programs(monkeypatch):
    rng = random.Random(1207)
    work = record_work(monkeypatch)
    feasible = multi_block = checked = 0
    for case in range(60):
        problem = random_wide_ilp(rng)
        first = solve_ilp(problem)
        if first is None:
            continue
        feasible += 1
        # every block takes one LP, and a MILP only after a fractional one
        before = work.kinds()["lp"]
        got = first.refine(first.x, problem.num_vars)
        multi_block += work.kinds()["lp"] - before > 1
        assert got == slotwise_refine(problem, first.objective, problem.num_vars), case
        assert solve_refined(problem) == IntSolution(got, first.objective), case
        if math.prod(hi - lo + 1 for lo, hi in problem.bounds) <= 2_000_000:
            checked += 1
            assert brute_force(problem) == IntSolution(got, first.objective), case
    assert feasible >= 20
    assert multi_block >= 5
    assert checked >= 5


def test_lex_refine_rejects_a_seed_off_the_optimum():
    # the optimum is x = 2 with objective 2; the seed must meet the pin, the
    # rows and the bounds the refine runs within
    program = solve_ilp(fractional_problem())
    assert (program.x, program.objective) == ((2,), 2)
    for x, bounds in [((1,), None), ((3,), None), ((2,), [(0, 1)])]:
        with pytest.raises(SolverError, match="seed point misses the optimum 2") as err:
            program.refine(x, 1, bounds)
        assert err.type is SolverError


def test_brute_force_capacity_guard():
    wide = IlpProblem(
        objective=(1,) * 5,
        rows=(),
        bounds=((0, 99),) * 5,
    )
    # refused before any enumeration
    assert 100**5 > BRUTE_FORCE_LIMIT
    with pytest.raises(CapacityError, match="points"):
        brute_force(wide)

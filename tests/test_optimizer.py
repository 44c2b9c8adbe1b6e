import dataclasses
import json

import pytest
from scipy.optimize._highspy._core import HighsModelStatus

import payoffopt.optimizer
from payoffopt import Infeasible, optimize
from payoffopt.ilp_solver import SolverError, SolverResourceError
from payoffopt.model_builder import CostTarget, Relation, SpecError, build_subproblem
from payoffopt.optimizer import (
    PortfolioSolution,
    SweepAxis,
    solution_from_dict,
    solution_to_csv,
    solution_to_dict,
    solution_to_json,
    solution_to_table,
    sweep,
    sweep_point_label,
    sweep_to_csv,
    sweep_to_dict,
    sweep_to_json,
    sweep_to_table,
)
from support import (
    STAGES,
    base_spec,
    check_feasible,
    combination_index,
    fake_milp_runs,
    marking,
    record_work,
    reference_optimize,
    seeded_strategies,
    small_series,
)


@pytest.fixture(scope="module")
def small_solution():
    return optimize(base_spec(), small_series())


class TestOptimize:
    def test_small_instance_optimum(self, small_solution):
        sol = small_solution
        assert isinstance(sol, PortfolioSolution)
        assert sol.objective == 1410
        assert sol.combination.bitstring == "1010"
        assert sol.portfolio.calls == (3, -3)
        assert sol.portfolio.puts == (3, -3)
        assert sol.initial_cost == 90
        assert sol.total_contracts == 12

    def test_infeasible_run_returns_its_rows(self):
        # with both tails pinned this instance has no solution, which the
        # row check proves on the left tail's balance
        spec = base_spec(balance_left_tail=True, balance_right_tail=True)
        assert optimize(spec, small_series()) == Infeasible(("balance_left",))

    def test_deterministic(self):
        first = optimize(base_spec(), small_series())
        second = optimize(base_spec(), small_series())
        assert first == second

    def test_matches_exhaustive_reference_on_random_instances(self):
        feasible = 0
        for spec, series in seeded_strategies(90125, 30):
            expected = reference_optimize(spec, series)
            got = optimize(spec, series)
            if expected is None:
                assert isinstance(got, Infeasible)
                continue
            feasible += 1
            objective, index, x = expected
            assert isinstance(got, PortfolioSolution)
            assert got.objective == objective
            assert combination_index(got.combination) == index
            assert got.portfolio.calls + got.portfolio.puts == x
        assert feasible >= 5

    def test_solution_is_feasible_for_its_own_subproblem(self, small_solution):
        problem = build_subproblem(
            base_spec(), small_series(), small_solution.combination
        )
        assert check_feasible(small_solution.portfolio, problem) == []

    def test_resource_error_carries_the_node_budget_text(self, monkeypatch):
        fake_milp_runs(monkeypatch, HighsModelStatus.kSolutionLimit)
        with pytest.raises(SolverResourceError, match="node budget"):
            optimize(base_spec(), small_series())

    def test_numerical_error_carries_the_backend_text(self, monkeypatch):
        fake_milp_runs(monkeypatch, HighsModelStatus.kSolveError)
        with pytest.raises(SolverError, match="MILP backend") as err:
            optimize(base_spec(), small_series())
        assert err.type is SolverError

    @pytest.mark.parametrize("stage", ["stage-a-no-point", "stage-b-no-point"])
    def test_stage_missing_the_optimum_is_a_solver_error(self, monkeypatch, stage):
        # a later stage that misses the first optimum is a backend failure,
        # not a verdict: once the stage starts, every LP settles nothing and
        # every MILP answers infeasible, the block's and its presolve-off
        # recheck's; the stages before run for real
        real = STAGES[:1] if stage == "stage-a-no-point" else STAGES[:2]

        def no_point_once_started(solve, highs, kind, work):
            if work.stage in real:
                return solve()
            if kind == "lp":
                return HighsModelStatus.kUnknown
            return HighsModelStatus.kInfeasible

        work = record_work(monkeypatch, no_point_once_started)
        with pytest.raises(SolverError, match="no point at the optimum 1410") as err:
            optimize(base_spec(), small_series())
        assert err.type is SolverError
        # the first faked block's LP, MILP and recheck, after the real first
        # solve, whose root LP is integral (and, for Stage B, the real
        # Stage-A block, settled by its LP)
        faked = [run.kind for run in work.runs if run.stage not in real]
        assert faked == ["lp", "milp", "recheck"]
        real_kinds = [run.kind for run in work.runs if run.stage in real]
        assert real_kinds == (["lp"] if stage == "stage-a-no-point" else ["lp", "lp"])

    def test_feasible_run_makes_an_lp_per_stage_and_a_milp_only_after_one(
        self, monkeypatch
    ):
        # one LP for the first solve and one per refine block, and a MILP
        # only after an LP whose optimum is not integral: Stage A and Stage
        # B start from known optimal points; on these small series each
        # stage is one block, unless a stage's slots all sit at their lower
        # bounds
        cases = [(base_spec(), small_series()), *seeded_strategies(90125, 30)]
        work = record_work(monkeypatch)
        feasible = milps = 0
        for spec, series in cases:
            work.runs.clear()
            if isinstance(optimize(spec, series), Infeasible):
                continue
            feasible += 1
            kinds = work.kinds()
            assert kinds["lp"] <= 3
            assert kinds["milp"] <= kinds["lp"]
            milps += kinds["milp"]
        assert feasible >= 5
        assert milps == 4


# corpus-small's seed; its strategy 0 has an infeasible root LP, strategy 1 is
# feasible and strategy 2 is settled by the row check
CORPUS_SEED = 20260823
# the strategies of each case below, from the fixture's (spec, series)
GUARD_CASES = {
    "fixture": lambda fixture: [fixture],
    "fixture-100-lots": lambda fixture: [
        (dataclasses.replace(fixture[0], lower=-100, upper=100), fixture[1])
    ],
    "row-check": lambda _: list(seeded_strategies(CORPUS_SEED, 3))[2:],
    "root-lp-infeasible": lambda _: list(seeded_strategies(CORPUS_SEED, 1)),
    "corpus-slice": lambda _: list(seeded_strategies(CORPUS_SEED, 12)),
}


class TestStdoutGuard:
    """``optimize`` points fd 1 at the null device once per call, around
    every HiGHS load and run, so that no solver output reaches stdout."""

    @pytest.fixture
    def fixture_strategy(self, fixture_run_config, fixture_series):
        return fixture_run_config.strategy, fixture_series

    @pytest.mark.parametrize("case", ["fixture", "fixture-100-lots", "corpus-slice"])
    def test_solver_output_stays_off_stdout(
        self, case, fixture_strategy, monkeypatch, capfd
    ):
        # each run writes a byte to fd 1 first, as HiGHS's diagnostics do
        work = record_work(monkeypatch, marking)
        for spec, series in GUARD_CASES[case](fixture_strategy):
            optimize(spec, series)
        assert work.runs
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize(
        "case, entries",
        [
            ("fixture", 1),
            ("row-check", 0),
            ("root-lp-infeasible", 1),
            ("corpus-slice", 6),
        ],
    )
    def test_one_guard_per_loaded_program(
        self, case, entries, fixture_strategy, monkeypatch
    ):
        guards, guard = [], payoffopt.optimizer._stdout_discarded

        def counting():
            guards.append(None)
            return guard()

        monkeypatch.setattr(payoffopt.optimizer, "_stdout_discarded", counting)
        work = record_work(monkeypatch)
        results = [optimize(*s) for s in GUARD_CASES[case](fixture_strategy)]
        assert len(guards) == len(work.loads) == entries
        if case == "row-check":
            assert work.proofs["unreachable_row"] is not None
        if case == "root-lp-infeasible":
            assert isinstance(results[0], Infeasible)
            assert [run.kind for run in work.runs] == ["lp"]


def solved(spec, series):
    """The solution of one optimize run, or ``None`` when it is infeasible:
    what a sweep point holds."""
    got = optimize(spec, series)
    return None if isinstance(got, Infeasible) else got


class TestSweeps:
    def test_cost_sweep_points(self):
        report = sweep(SweepAxis.COST, base_spec(), small_series(), [90, 30, 60])
        assert report.axis is SweepAxis.COST
        assert [p.value for p in report.points] == [30, 60, 90]
        assert [p.solution.objective for p in report.points] == [470, 940, 1410]
        assert all(p.error is None for p in report.points)

    def test_cost_sweep_matches_standalone_runs(self):
        report = sweep(SweepAxis.COST, base_spec(), small_series(), [60, 120])
        for point in report.points:
            spec = base_spec(cost_target=CostTarget(Relation.EQ, point.value))
            assert point.solution == solved(spec, small_series())
        assert report.points[1].solution is None  # cost 1.20 has no portfolio

    def test_cost_sweep_keeps_comparator(self):
        spec = base_spec(cost_target=CostTarget(Relation.LE, 90))
        report = sweep(SweepAxis.COST, spec, small_series(), [30, 90, 150])
        assert [p.solution.objective for p in report.points] == [1230, 1410, 1410]

    def test_liquidity_sweep_points(self):
        report = sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), [3, 1, 2])
        assert report.axis is SweepAxis.LIQUIDITY
        assert [p.value for p in report.points] == [1, 2, 3]
        assert [p.solution.objective for p in report.points] == [470, 940, 1410]
        for point in report.points:
            spec = base_spec(lower=-point.value, upper=point.value)
            assert point.solution == solved(spec, small_series())

    @pytest.mark.parametrize("values", [[], [0], [2, -1]])
    def test_liquidity_values_validated(self, values):
        with pytest.raises(ValueError):
            sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), values)

    def test_cost_values_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(SweepAxis.COST, base_spec(), small_series(), [])

    def test_resource_errors_captured_per_point(self, monkeypatch):
        fake_milp_runs(monkeypatch, HighsModelStatus.kSolutionLimit)
        report = sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), [1, 2])
        for point in report.points:
            assert point.solution is None
            assert "node budget" in point.error

    def test_numerical_errors_captured_per_point(self, monkeypatch):
        fake_milp_runs(monkeypatch, HighsModelStatus.kSolveError)
        report = sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), [1, 2])
        for point in report.points:
            assert point.solution is None
            assert point.error.startswith("MILP backend failed")

    def test_defect_fails_only_its_point(self, monkeypatch):
        real = optimize

        def broken(spec, series):
            if spec.upper == 2:
                raise AssertionError("pnl identity broken")
            return real(spec, series)

        monkeypatch.setattr("payoffopt.optimizer.optimize", broken)
        report = sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), [3, 2, 1])
        assert [p.error for p in report.points] == [
            None, "internal:AssertionError: pnl identity broken", None,
        ]
        assert [p.solution is None for p in report.points] == [False, True, False]

    def test_strategy_that_does_not_fit_stops_the_sweep(self):
        with pytest.raises(SpecError, match="inflection-not-in-K"):
            sweep(SweepAxis.COST, base_spec(inflection=105), small_series(), [60])


class TestSerialization:
    def test_dict_fields(self, small_solution):
        data = solution_to_dict(small_solution)
        assert data["objective"] == "14.10"
        assert data["initial_cost"] == "0.90"
        assert data["total_contracts"] == 12
        assert data["combination"] == "1010"
        assert data["quantities"] == {
            "call": {"100": 3, "110": -3},
            "put": {"90": 3, "100": -3},
        }

    def test_json_parses_and_ends_with_newline(self, small_solution):
        text = solution_to_json(small_solution)
        assert text.endswith("\n")
        assert json.loads(text)["combination"] == "1010"

    def test_round_trip_restores_portfolio(self, small_solution):
        data = solution_to_dict(small_solution)
        portfolio, combo = solution_from_dict(data, small_series())
        assert portfolio == small_solution.portfolio
        assert combo == small_solution.combination
        problem = build_subproblem(base_spec(), small_series(), combo)
        assert check_feasible(portfolio, problem) == []

    def test_missing_key_rejected(self, small_solution):
        data = solution_to_dict(small_solution)
        del data["quantities"]
        with pytest.raises(ValueError, match="missing"):
            solution_from_dict(data, small_series())

    def test_wrong_bitstring_length_rejected(self, small_solution):
        data = solution_to_dict(small_solution)
        data["combination"] = "10"
        with pytest.raises(ValueError, match="does not fit"):
            solution_from_dict(data, small_series())

    def test_sweep_dict_and_json(self):
        report = sweep(SweepAxis.COST, base_spec(), small_series(), [60, 120])
        data = sweep_to_dict(report)
        assert data["axis"] == "cost"
        assert [p["value"] for p in data["points"]] == ["0.60", "1.20"]
        assert data["points"][0]["solution"]["objective"] == "9.40"
        assert data["points"][1]["solution"] is None
        assert json.loads(sweep_to_json(report)) == data


class TestRendering:
    def test_solution_table(self, small_solution):
        assert solution_to_table(small_solution) == (
            "Strike                      Call  Put\n"
            "90                                  3\n"
            "100                            3   -3\n"
            "110                           -3\n"
            "max F                            14.1\n"
            "Total number of contracts          12\n"
        )

    def test_sweep_table_columns(self):
        report = sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), [2, 1])
        text = sweep_to_table(report)
        lines = text.splitlines()
        assert "|L|=1" in lines[0] and "|L|=2" in lines[0]
        assert lines[1].count("Call") == 2 and lines[1].count("Put") == 2
        assert lines[-2].startswith("max F") and "4.7" in lines[-2]
        assert lines[-1].startswith("Total number of contracts")
        # a label wider than every other cell of its block sets the width
        spec = base_spec(cost_target=CostTarget(Relation.GE, 0))
        report = sweep(SweepAxis.COST, spec, small_series(), [-123456, 10000])
        assert sweep_to_table(report) == (
            "                            C=-1234.56     C=100\n"
            "Strike                      Call   Put   Call   Put\n"
            "90                                   3\n"
            "100                            3    -3\n"
            "110                           -3\n"
            "max F                             14.1   infeasible\n"
            "Total number of contracts           12\n"
        )

    def test_sweep_table_marks_infeasible(self):
        report = sweep(SweepAxis.COST, base_spec(), small_series(), [120])
        text = sweep_to_table(report)
        assert "infeasible" in text.splitlines()[-2]

    def test_point_labels(self):
        assert sweep_point_label(SweepAxis.COST, 300) == "C=3"
        assert sweep_point_label(SweepAxis.LIQUIDITY, 2) == "|L|=2"

    def test_solution_csv(self, small_solution):
        assert solution_to_csv(small_solution) == (
            "strike,call,put\n"
            "90,,3\n"
            "100,3,-3\n"
            "110,-3,\n"
            "max_F,14.1\n"
            "total_contracts,12\n"
        )

    def test_sweep_csv(self):
        report = sweep(SweepAxis.LIQUIDITY, base_spec(), small_series(), [2, 1])
        assert sweep_to_csv(report) == (
            "value,strike,call,put\n"
            "1,90,,1\n"
            "1,100,1,-1\n"
            "1,110,-1,\n"
            "1,max_F,4.7,\n"
            "1,total_contracts,4,\n"
            "2,90,,2\n"
            "2,100,2,-2\n"
            "2,110,-2,\n"
            "2,max_F,9.4,\n"
            "2,total_contracts,8,\n"
        )

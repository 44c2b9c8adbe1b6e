import dataclasses
import json
import random

import pytest
from scipy.optimize import OptimizeResult

import payoffopt.ilp_solver
import payoffopt.optimizer
from payoffopt import (
    CostTarget,
    Relation,
    SolverNumericalError,
    SolverResourceError,
    SweepAxis,
    build_subproblem,
    check_feasible,
    optimize,
    solution_from_dict,
    solution_to_dict,
    solution_to_json,
    sweep_cost,
    sweep_liquidity,
    sweep_to_dict,
    sweep_to_json,
)
from payoffopt.optimizer import (
    solution_to_csv,
    solution_to_table,
    sweep_point_label,
    sweep_to_csv,
    sweep_to_table,
)
from support import (
    base_spec,
    count_solver_calls,
    random_series,
    random_spec,
    reference_optimize,
    small_series,
)


@pytest.fixture(scope="module")
def small_solution():
    return optimize(base_spec(), small_series())


class TestOptimize:
    def test_small_instance_optimum(self, small_solution):
        sol = small_solution
        assert sol is not None
        assert sol.objective == 1410
        assert sol.combination.bitstring == "1010"
        assert sol.portfolio.calls == (3, -3)
        assert sol.portfolio.puts == (3, -3)
        assert sol.initial_cost == 90
        assert sol.total_contracts == 12

    def test_infeasible_run_returns_none(self):
        # with both tails pinned this instance has no solution
        spec = base_spec(balance_left_tail=True, balance_right_tail=True)
        assert optimize(spec, small_series()) is None

    def test_deterministic(self):
        first = optimize(base_spec(), small_series())
        second = optimize(base_spec(), small_series())
        assert first == second

    def test_matches_exhaustive_reference_on_random_instances(self):
        rng = random.Random(90125)
        feasible = 0
        for _ in range(30):
            series = random_series(rng)
            spec = random_spec(rng, series)
            expected = reference_optimize(spec, series)
            got = optimize(spec, series)
            if expected is None:
                assert got is None
                continue
            feasible += 1
            objective, index, x = expected
            assert got is not None
            assert got.objective == objective
            assert got.combination.index == index
            assert got.portfolio.calls + got.portfolio.puts == x
        assert feasible >= 5

    def test_solution_is_feasible_for_its_own_subproblem(self, small_solution):
        problem = build_subproblem(
            base_spec(), small_series(), small_solution.combination
        )
        assert check_feasible(small_solution.portfolio, problem) == []

    def test_resource_error_names_combination(self, monkeypatch):
        def explode(problem, **kwargs):
            raise SolverResourceError("node budget of 3 exhausted")

        monkeypatch.setattr("payoffopt.optimizer.solve_ilp", explode)
        with pytest.raises(SolverResourceError, match="node budget"):
            optimize(base_spec(), small_series())

    def test_numerical_error_names_combination(self, monkeypatch):
        def explode(problem, **kwargs):
            raise SolverNumericalError("MILP backend failed (status 4)")

        monkeypatch.setattr("payoffopt.optimizer.solve_ilp", explode)
        with pytest.raises(SolverNumericalError, match="MILP backend"):
            optimize(base_spec(), small_series())

    @pytest.mark.parametrize("stage", ["stage-a-no-point", "stage-b-seed"])
    def test_stage_missing_the_optimum_is_a_solver_error(self, monkeypatch, stage):
        # a later stage that misses the first optimum is a backend failure,
        # not a verdict
        if stage == "stage-a-no-point":
            # every MILP after the first solve, the Stage-A block's included,
            # answers infeasible
            real = payoffopt.ilp_solver.milp
            calls = []

            def no_point_after_first(*args, **kwargs):
                if kwargs.get("integrality") is None:  # the root LP
                    return real(*args, **kwargs)
                calls.append(1)
                if len(calls) == 1:
                    return real(*args, **kwargs)
                return OptimizeResult(status=2, x=None, message="infeasible")

            monkeypatch.setattr(payoffopt.ilp_solver, "milp", no_point_after_first)
            message = "no point at the optimum"
        else:
            # Stage B's subproblem disagrees with the combined program by
            # one cent, so the seed decoded from Stage A misses its optimum
            real = payoffopt.optimizer.build_subproblem

            def shifted(*args):
                problem = real(*args)
                return dataclasses.replace(
                    problem, objective_constant=problem.objective_constant - 1
                )

            monkeypatch.setattr(payoffopt.optimizer, "build_subproblem", shifted)
            message = "seed point misses"
        with pytest.raises(SolverNumericalError, match=message):
            optimize(base_spec(), small_series())

    def test_feasible_run_makes_one_lp_and_at_most_three_milps(self, monkeypatch):
        # the first solve's root LP is the only LP: Stage A and Stage B
        # start from known optimal points; on these small series each stage
        # is one block
        rng = random.Random(90125)
        cases = [(base_spec(), small_series())]
        for _ in range(30):
            series = random_series(rng)
            cases.append((random_spec(rng, series), series))
        calls = count_solver_calls(monkeypatch)
        feasible = 0
        for spec, series in cases:
            calls.clear()
            if optimize(spec, series) is None:
                continue
            feasible += 1
            assert calls["root_lp"] == 1
            assert calls["milp"] <= 3
        assert feasible >= 5


class TestSweeps:
    def test_cost_sweep_points(self):
        report = sweep_cost(base_spec(), small_series(), [90, 30, 60])
        assert report.axis is SweepAxis.COST
        assert [p.value for p in report.points] == [30, 60, 90]
        assert [p.solution.objective for p in report.points] == [470, 940, 1410]
        assert all(p.error is None for p in report.points)

    def test_cost_sweep_matches_standalone_runs(self):
        report = sweep_cost(base_spec(), small_series(), [60, 120])
        for point in report.points:
            spec = base_spec(cost_target=CostTarget(Relation.EQ, point.value))
            assert point.solution == optimize(spec, small_series())
        assert report.points[1].solution is None  # cost 1.20 has no portfolio

    def test_cost_sweep_keeps_comparator(self):
        spec = base_spec(cost_target=CostTarget(Relation.LE, 90))
        report = sweep_cost(spec, small_series(), [30, 90, 150])
        assert [p.solution.objective for p in report.points] == [1230, 1410, 1410]

    def test_liquidity_sweep_points(self):
        report = sweep_liquidity(base_spec(), small_series(), [3, 1, 2])
        assert report.axis is SweepAxis.LIQUIDITY
        assert [p.value for p in report.points] == [1, 2, 3]
        assert [p.solution.objective for p in report.points] == [470, 940, 1410]
        for point in report.points:
            spec = base_spec(lower=-point.value, upper=point.value)
            assert point.solution == optimize(spec, small_series())

    @pytest.mark.parametrize("values", [[], [0], [2, -1]])
    def test_liquidity_values_validated(self, values):
        with pytest.raises(ValueError):
            sweep_liquidity(base_spec(), small_series(), values)

    def test_cost_values_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_cost(base_spec(), small_series(), [])

    def test_resource_errors_captured_per_point(self, monkeypatch):
        def explode(problem, **kwargs):
            raise SolverResourceError("node budget of 3 exhausted")

        monkeypatch.setattr("payoffopt.optimizer.solve_ilp", explode)
        report = sweep_liquidity(base_spec(), small_series(), [1, 2])
        for point in report.points:
            assert point.solution is None
            assert "node budget" in point.error

    def test_numerical_errors_captured_per_point(self, monkeypatch):
        def explode(problem, **kwargs):
            raise SolverNumericalError("MILP backend failed (status 4)")

        monkeypatch.setattr("payoffopt.optimizer.solve_ilp", explode)
        report = sweep_liquidity(base_spec(), small_series(), [1, 2])
        for point in report.points:
            assert point.solution is None
            assert point.error.startswith("MILP backend failed")


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
        report = sweep_cost(base_spec(), small_series(), [60, 120])
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
        report = sweep_liquidity(base_spec(), small_series(), [2, 1])
        text = sweep_to_table(report, small_series())
        lines = text.splitlines()
        assert "|L|=1" in lines[0] and "|L|=2" in lines[0]
        assert lines[1].count("Call") == 2 and lines[1].count("Put") == 2
        assert lines[-2].startswith("max F") and "4.7" in lines[-2]
        assert lines[-1].startswith("Total number of contracts")

    def test_sweep_table_marks_infeasible(self):
        report = sweep_cost(base_spec(), small_series(), [120])
        text = sweep_to_table(report, small_series())
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
        report = sweep_liquidity(base_spec(), small_series(), [2, 1])
        assert sweep_to_csv(report, small_series()) == (
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

from fractions import Fraction

import pytest

from payoffopt import (
    CostTarget,
    IlpProblem,
    Portfolio,
    PriceCombination,
    Relation,
    Row,
    Side,
    SpecError,
    StrategySpec,
    TailLossMode,
    build_subproblem,
    check_feasible,
)
from support import (
    REFERENCE_COLUMNS,
    combo_for,
    reference_series,
    small_series,
)

COLUMN_1 = REFERENCE_COLUMNS[0]


class TestPriceCombination:
    def test_index_zero_is_all_bids(self):
        combo = PriceCombination.from_index(2, 0)
        assert combo.call_sides == (Side.BID, Side.BID)
        assert combo.put_sides == (Side.BID, Side.BID)
        assert combo.bitstring == "0000"

    def test_first_call_slot_is_most_significant(self):
        combo = PriceCombination.from_index(2, 0b1000)
        assert combo.call_sides == (Side.ASK, Side.BID)
        assert combo.put_sides == (Side.BID, Side.BID)

    def test_bitstring_round_trip(self):
        combo = PriceCombination.from_index(2, 10)
        assert combo.bitstring == "1010"
        assert combo.call_sides == (Side.ASK, Side.BID)
        assert combo.put_sides == (Side.ASK, Side.BID)

    @pytest.mark.parametrize("index", [-1, 16])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="outside"):
            PriceCombination.from_index(2, index)

    def test_mismatched_index_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            PriceCombination(
                index=3, call_sides=(Side.BID,), put_sides=(Side.BID,)
            )

    def test_from_bits_round_trip(self):
        combo = PriceCombination.from_index(3, 0b101100)
        assert PriceCombination.from_bits((1, 0, 1, 1, 0, 0)) == combo
        assert PriceCombination.from_bits(()) == PriceCombination.from_index(0, 0)

    def test_contract_prices_pick_sides(self):
        prices = PriceCombination.from_index(2, 10).contract_prices(small_series())
        assert prices.call_prices == (420, 100)
        assert prices.put_prices == (90, 380)

    def test_contract_prices_length_check(self):
        with pytest.raises(ValueError, match="share one length"):
            PriceCombination.from_index(3, 0).contract_prices(small_series())


class TestRow:
    def test_fractions_scaled_to_integers(self):
        row = Row.of("r", [1, Fraction(1, 2)], Relation.LE, Fraction(5, 2))
        assert row.coeffs == (2, 1)
        assert row.rhs == 5

    def test_integer_coeffs_kept_verbatim(self):
        row = Row.of("r", [3, -6], Relation.GE, 9)
        assert row.coeffs == (3, -6)
        assert row.rhs == 9

    def test_mixed_denominators_use_lcm(self):
        row = Row.of("r", [Fraction(1, 3), Fraction(1, 4)], Relation.EQ, 1)
        assert row.coeffs == (4, 3)
        assert row.rhs == 12

    @pytest.mark.parametrize(
        "relation,x,ok",
        [
            (Relation.LE, (1, 1), True),
            (Relation.LE, (3, 1), False),
            (Relation.GE, (3, 1), True),
            (Relation.GE, (1, 1), False),
            (Relation.EQ, (2, 1), True),
            (Relation.EQ, (2, 2), False),
        ],
    )
    def test_satisfied(self, relation, x, ok):
        row = Row.of("r", [1, 1], relation, 3)
        assert row.satisfied(x) is ok
        assert row.residual(x) == sum(x) - 3


def tent_spec(**overrides):
    base = dict(
        expected_price=10500,
        inflection=100,
        max_loss=-500,
        lower=-3,
        upper=3,
    )
    base.update(overrides)
    return StrategySpec(**base)


class TestStrategySpecValidation:
    def test_bounds_must_straddle_zero(self):
        with pytest.raises(SpecError, match="straddle"):
            tent_spec(lower=1)
        with pytest.raises(SpecError, match="straddle"):
            tent_spec(upper=0)

    def test_positive_fields(self):
        with pytest.raises(SpecError, match="expected price"):
            tent_spec(expected_price=0)
        with pytest.raises(SpecError, match="inflection"):
            tent_spec(inflection=-5)
        with pytest.raises(SpecError, match="epsilon"):
            tent_spec(epsilon=0)


class TestBuildSubproblem:
    def test_small_problem_layout(self):
        problem = build_subproblem(
            tent_spec(), small_series(), PriceCombination.from_index(2, 10)
        )
        assert problem.objective == (80, -100, -90, -380)
        assert problem.objective_constant == 0
        assert problem.bounds == ((0, 3), (-3, 0), (0, 3), (-3, 0))
        assert [r.name for r in problem.rows] == [
            "tail_calls",
            "tail_puts",
            "slope[90,100]",
            "slope[100,110]",
            "balance_left",
            "balance_right",
            "positivity",
        ]

    def test_small_problem_rows(self):
        problem = build_subproblem(
            tent_spec(), small_series(), PriceCombination.from_index(2, 10)
        )
        assert [(r.coeffs, r.relation.value, r.rhs) for r in problem.rows] == [
            ((1, 1, 0, 0), "=", 0),
            ((0, 0, 1, 1), "=", 0),
            ((0, 0, 0, -1), ">=", 0),
            ((1, 0, 0, 0), ">=", 0),
            ((-420, -100, 8910, 9620), "=", -500),
            ((-10420, -11100, -90, -380), "=", -500),
            ((80, -100, -90, -380), ">=", 1),
        ]

    def test_slope_relation_flips_after_inflection(self):
        problem = build_subproblem(
            tent_spec(inflection=90), small_series(), PriceCombination.from_index(2, 0)
        )
        slopes = {r.name: r.relation for r in problem.rows if r.name.startswith("slope")}
        assert slopes == {
            "slope[90,100]": Relation.GE,
            "slope[100,110]": Relation.LE,
        }

    def test_all_bid_combo_bounds(self):
        problem = build_subproblem(
            tent_spec(), small_series(), PriceCombination.from_index(2, 0)
        )
        assert problem.bounds == ((-3, 0),) * 4

    def test_payoff_only_balance_rows(self):
        problem = build_subproblem(
            tent_spec(tail_loss_mode=TailLossMode.PAYOFF_ONLY),
            small_series(),
            PriceCombination.from_index(2, 0),
        )
        by_name = {r.name: r for r in problem.rows}
        assert by_name["balance_left"].coeffs == (0, 0, 9000, 10000)
        assert by_name["balance_left"].rhs == 500
        assert by_name["balance_right"].coeffs == (-10000, -11000, 0, 0)
        assert by_name["balance_right"].rhs == 500
        # positivity switches to gross intrinsic value
        assert by_name["positivity"].coeffs == (500, 0, 0, 0)

    def test_balance_rows_optional(self):
        problem = build_subproblem(
            tent_spec(balance_left_tail=False, balance_right_tail=False),
            small_series(),
            PriceCombination.from_index(2, 0),
        )
        names = [r.name for r in problem.rows]
        assert "balance_left" not in names
        assert "balance_right" not in names

    def test_cost_row_appended_last(self):
        problem = build_subproblem(
            tent_spec(cost_target=CostTarget(Relation.LE, 250)),
            small_series(),
            PriceCombination.from_index(2, 10),
        )
        cost = problem.rows[-1]
        assert cost.name == "cost"
        assert cost.coeffs == (420, 100, 90, 380)
        assert cost.relation is Relation.LE
        assert cost.rhs == 250

    def test_inflection_must_be_a_listed_strike(self):
        with pytest.raises(SpecError, match="not among strikes"):
            build_subproblem(
                tent_spec(inflection=105),
                small_series(),
                PriceCombination.from_index(2, 0),
            )

    def test_combo_length_checked(self):
        with pytest.raises(ValueError, match="share one length"):
            build_subproblem(
                tent_spec(), small_series(), PriceCombination.from_index(3, 0)
            )

    def test_fixture_problem_rows(self, fixture_run_config, fixture_series):
        problem = build_subproblem(
            fixture_run_config.strategy,
            fixture_series,
            PriceCombination.from_index(6, 0),
        )
        assert problem.num_vars == 12
        assert [r.name for r in problem.rows] == [
            "tail_calls",
            "tail_puts",
            "slope[7850,7950]",
            "slope[7950,8050]",
            "slope[8050,8150]",
            "slope[8150,8250]",
            "slope[8250,8350]",
            "slope[8350,8400]",
            "slope[8400,8500]",
            "balance_left",
            "balance_right",
            "positivity",
            "cost",
        ]
        relations = [r.relation for r in problem.rows[2:9]]
        assert relations == [Relation.GE] * 5 + [Relation.LE] * 2


class TestIlpProblemValidation:
    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="wrong width"):
            IlpProblem(
                objective=(1, 2),
                objective_constant=0,
                rows=(Row.of("r", [1], Relation.LE, 0),),
                bounds=((0, 1), (0, 1)),
            )

    def test_empty_bound_interval(self):
        with pytest.raises(ValueError, match="empty bound"):
            IlpProblem(
                objective=(1,),
                objective_constant=0,
                rows=(),
                bounds=((2, 1),),
            )

    def test_objective_value_includes_constant(self):
        problem = IlpProblem(
            objective=(3, -2), objective_constant=7, rows=(), bounds=((0, 5), (-5, 0))
        )
        assert problem.objective_value((2, -1)) == 3 * 2 + 2 + 7


def _column_problem(inflection):
    spec = StrategySpec(
        expected_price=840000,
        inflection=inflection,
        max_loss=20000,
        lower=-10,
        upper=10,
        tail_loss_mode=TailLossMode.PAYOFF_ONLY,
    )
    combo = combo_for(COLUMN_1.calls, COLUMN_1.puts)
    return build_subproblem(spec, reference_series(), combo)


class TestCheckFeasible:
    def test_reference_column_satisfies_its_shape(self):
        portfolio = Portfolio(
            series=reference_series(), calls=COLUMN_1.calls, puts=COLUMN_1.puts
        )
        assert check_feasible(portfolio, _column_problem(8250)) == []

    def test_moved_inflection_flags_ascending_intervals(self):
        portfolio = Portfolio(
            series=reference_series(), calls=COLUMN_1.calls, puts=COLUMN_1.puts
        )
        report = check_feasible(portfolio, _column_problem(8050))
        assert [(v.kind, v.name, v.residual) for v in report] == [
            ("row", "slope[8150,8250]", 1),
            ("row", "slope[8250,8350]", 6),
        ]

    def test_bound_and_row_violations_reported(self):
        problem = build_subproblem(
            tent_spec(), small_series(), PriceCombination.from_index(2, 10)
        )
        portfolio = Portfolio(series=small_series(), calls=(4, -3), puts=(0, 0))
        report = check_feasible(portfolio, problem)
        kinds = [(v.kind, v.name) for v in report]
        assert ("bound", "slot 0") in kinds
        assert ("row", "tail_calls") in kinds
        bound = next(v for v in report if v.kind == "bound")
        assert bound.residual == 1

    def test_width_mismatch(self):
        portfolio = Portfolio(series=small_series(), calls=(0, 0), puts=(0, 0))
        problem = IlpProblem(
            objective=(1,), objective_constant=0, rows=(), bounds=((0, 1),)
        )
        with pytest.raises(ValueError, match="slots"):
            check_feasible(portfolio, problem)


import itertools

import pytest
from hypothesis import given, strategies as st

import payoffopt.model_builder as model_builder
from payoffopt import SpecError
from payoffopt.market_data import SeriesSelection
from payoffopt.model_builder import (
    CostTarget,
    IlpProblem,
    PriceCombination,
    Relation,
    Row,
    StrategySpec,
    TailLossMode,
    build_combined,
    build_subproblem,
    combination_bounds,
    decode_combined,
    equality_rows,
    unreachable_row,
)
from payoffopt.payoff_engine import Portfolio
from support import (
    REFERENCE_COLUMNS,
    check_feasible,
    combination_from_index,
    combination_index,
    combo_for,
    reference_series,
    residual,
    seeded_strategies,
    small_series,
)

COLUMN_1 = REFERENCE_COLUMNS[0]


class TestPriceCombination:
    def test_index_zero_is_all_bids(self):
        combo = combination_from_index(2, 0)
        assert combo.bits == (0, 0, 0, 0)
        assert combo.bitstring == "0000"
        assert combo.prices(small_series()) == (400, 100, 80, 380)

    def test_first_call_slot_is_most_significant(self):
        assert combination_from_index(2, 0b1000).bits == (1, 0, 0, 0)
        assert combination_index(PriceCombination((1, 0, 1, 1, 0, 0))) == 0b101100

    def test_from_bits_round_trip(self):
        # the side bits are the constructor; from_index must rebuild them
        combo = combination_from_index(3, 0b101100)
        assert PriceCombination((1, 0, 1, 1, 0, 0)) == combo
        assert PriceCombination(()) == combination_from_index(0, 0)
        assert combination_from_index(3, combination_index(combo)) == combo

    def test_bitstring_round_trip(self):
        combo = combination_from_index(2, 10)
        assert combo.bitstring == "1010"
        assert PriceCombination.parse("1010", 2) == combo

    @pytest.mark.parametrize("index", [-1, 16])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="outside"):
            combination_from_index(2, index)

    @pytest.mark.parametrize("text", ["101", "10100", "1021", "1 10", 1010, None])
    def test_parse_rejects_what_does_not_fit(self, text):
        with pytest.raises(ValueError, match="does not fit a series of 2"):
            PriceCombination.parse(text, 2)

    def test_prices_pick_sides(self):
        prices = combination_from_index(2, 10).prices(small_series())
        assert prices == (420, 100, 90, 380)

    def test_prices_length_check(self):
        with pytest.raises(ValueError, match="share one length"):
            combination_from_index(3, 0).prices(small_series())

    @given(st.data())
    def test_index_bits_text_and_prices_agree(self, data):
        n = data.draw(st.integers(1, 7))
        index = data.draw(st.integers(0, (1 << (2 * n)) - 1))
        combo = combination_from_index(n, index)
        assert combination_index(combo) == index
        assert len(combo.bitstring) == 2 * n
        assert PriceCombination.parse(combo.bitstring, n).bits == combo.bits
        series = SeriesSelection(
            n=n,
            call_strikes=tuple(range(100, 100 + n)),
            put_strikes=tuple(range(100, 100 + n)),
            call_asks=tuple(range(1000, 1000 + n)),
            call_bids=tuple(range(10, 10 + n)),
            put_asks=tuple(range(2000, 2000 + n)),
            put_bids=tuple(range(20, 20 + n)),
        )
        asks = series.call_asks + series.put_asks
        at_ask = tuple(int(p == a) for p, a in zip(combo.prices(series), asks))
        assert at_ask == combo.bits


class TestRow:
    def test_integer_coeffs_kept_verbatim(self):
        # every compiled row holds plain ints, so the exact check of a solver
        # point never rounds
        cost = CostTarget(Relation.LE, 150)
        payoff_only = TailLossMode.PAYOFF_ONLY
        for problem in (
            build_subproblem(
                tent_spec(cost_target=cost, tail_loss_mode=payoff_only),
                small_series(),
                combination_from_index(2, 10),
            ),
            build_subproblem(
                tent_spec(), small_series(), combination_from_index(2, 5)
            ),
            build_combined(tent_spec(cost_target=cost), small_series()),
        ):
            for row in problem.rows:
                assert isinstance(row.coeffs, tuple)
                assert all(type(c) is int for c in (*row.coeffs, row.rhs)), row

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
        row = Row("r", (1, 1), relation, 3)
        assert row.satisfied(x) is ok
        assert residual(row, x) == sum(x) - 3


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
            tent_spec(), small_series(), combination_from_index(2, 10)
        )
        assert problem.objective == (80, -100, -90, -380)
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
            tent_spec(), small_series(), combination_from_index(2, 10)
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
            tent_spec(inflection=90), small_series(), combination_from_index(2, 0)
        )
        slopes = {r.name: r.relation for r in problem.rows if r.name.startswith("slope")}
        assert slopes == {
            "slope[90,100]": Relation.GE,
            "slope[100,110]": Relation.LE,
        }

    def test_all_bid_combo_bounds(self):
        problem = build_subproblem(
            tent_spec(), small_series(), combination_from_index(2, 0)
        )
        assert problem.bounds == ((-3, 0),) * 4

    def test_payoff_only_balance_rows(self):
        problem = build_subproblem(
            tent_spec(tail_loss_mode=TailLossMode.PAYOFF_ONLY),
            small_series(),
            combination_from_index(2, 0),
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
            combination_from_index(2, 0),
        )
        names = [r.name for r in problem.rows]
        assert "balance_left" not in names
        assert "balance_right" not in names

    def test_cost_row_appended_last(self):
        problem = build_subproblem(
            tent_spec(cost_target=CostTarget(Relation.LE, 250)),
            small_series(),
            combination_from_index(2, 10),
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
                combination_from_index(2, 0),
            )

    def test_combo_length_checked(self):
        with pytest.raises(ValueError, match="share one length"):
            build_subproblem(
                tent_spec(), small_series(), combination_from_index(3, 0)
            )

    def test_fixture_problem_rows(self, fixture_run_config, fixture_series):
        problem = build_subproblem(
            fixture_run_config.strategy,
            fixture_series,
            combination_from_index(6, 0),
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
                rows=(Row("r", (1,), Relation.LE, 0),),
                bounds=((0, 1), (0, 1)),
            )

    def test_empty_bound_interval(self):
        with pytest.raises(ValueError, match="empty bound"):
            IlpProblem(
                objective=(1,),
                rows=(),
                bounds=((2, 1),),
            )

    def test_zero_variables_rejected(self):
        with pytest.raises(ValueError, match="at least one variable"):
            IlpProblem(objective=(), rows=(), bounds=())


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
            tent_spec(), small_series(), combination_from_index(2, 10)
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
        problem = IlpProblem(objective=(1,), rows=(), bounds=((0, 1),))
        with pytest.raises(ValueError, match="slots"):
            check_feasible(portfolio, problem)



class TestBuildCombined:
    def test_link_rows_per_slot(self):
        # after the subproblem's rows, each slot i has its ask row
        # p_i - U z_i <= 0, its bid row r_i + L z_i >= L and its side row
        # z_i - p_i <= 0, over [z_0..z_3, p_0, r_0, ..., p_3, r_3]
        spec = tent_spec(lower=-2, upper=5)
        series = small_series()
        bid = build_subproblem(spec, series, combination_from_index(2, 0))
        link = build_combined(spec, series).rows[len(bid.rows) :]
        assert [(r.name, r.relation, r.rhs) for r in link] == [
            (f"{kind}[{i}]", relation, rhs)
            for i in range(4)
            for kind, relation, rhs in (
                ("ask", Relation.LE, 0),
                ("bid", Relation.GE, -2),
                ("side", Relation.LE, 0),
            )
        ]
        for i in range(4):
            ask, bid, side = (list(r.coeffs) for r in link[3 * i : 3 * i + 3])
            expected = [0] * 12
            expected[i], expected[4 + 2 * i] = -5, 1
            assert ask == expected
            expected = [0] * 12
            expected[i], expected[4 + 2 * i + 1] = -2, 1
            assert bid == expected
            expected = [0] * 12
            expected[i], expected[4 + 2 * i] = 1, -1
            assert side == expected


    def test_combination_bounds_leave_the_combination_buying_each_ask(self):
        # within combination_bounds the combined program's points are those
        # of the combination's subproblem that buy at least one lot in every
        # ask slot, each once, with the forced columns at their lower bounds
        spec = tent_spec(
            lower=-2, upper=3, balance_left_tail=False, balance_right_tail=False
        )
        series = small_series()
        combined = build_combined(spec, series)
        assert combination_bounds(2, combined, (1, 0, 0, 1)) == (
            (1, 1), (0, 0), (0, 0), (1, 1),
            (1, 3), (0, 0), (0, 0), (-2, 0), (0, 0), (-2, 0), (1, 3), (0, 0),
        )
        kept = idle = 0
        for index in range(16):
            combo = combination_from_index(2, index)
            subproblem = build_subproblem(spec, series, combo)
            feasible = [
                x
                for x in itertools.product(*(range(lo, hi + 1) for lo, hi in subproblem.bounds))
                if all(row.satisfied(x) for row in subproblem.rows)
            ]
            expected = [
                x for x in feasible if all(v >= 1 for v, bit in zip(x, combo.bits) if bit)
            ]
            kept += len(expected)
            idle += len(feasible) - len(expected)
            bounds = combination_bounds(2, combined, combo.bits)
            points = [
                point
                for point in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
                if all(row.satisfied(point) for row in combined.rows)
            ]
            assert [decode_combined(2, point) for point in points] == [
                (combo, x) for x in expected
            ], index
        # points of three combinations kept; points with an idle ask slot,
        # which the side rows leave to a lower combination, left out
        assert (kept, idle) == (8, 12)


class TestEqualityRows:
    def test_rows_reading_no_price_share_one_tuple(self):
        spec = tent_spec(cost_target=CostTarget(Relation.EQ, 150))
        shared = {
            name: ask is bid for name, ask, bid, _ in equality_rows(spec, small_series())
        }
        assert shared == {
            "tail_calls": True,
            "tail_puts": True,
            "balance_left": False,
            "balance_right": False,
            "cost": False,
        }

    def test_inflection_must_be_a_listed_strike(self):
        with pytest.raises(SpecError, match="inflection-not-in-K"):
            equality_rows(tent_spec(inflection=105), small_series())


class TestUnreachableRow:
    def test_cost_row_is_unreachable_exactly_when_no_quantities_meet_it(self):
        # every slot in [-2, 1] lots, long at its ask, short at its bid; the
        # tail rows hold at zero lots, so only the cost row can be unreachable
        series = small_series()
        asks = series.call_asks + series.put_asks
        bids = series.call_bids + series.put_bids
        totals = {
            sum((a if x > 0 else b) * x for x, a, b in zip(xs, asks, bids))
            for xs in itertools.product(range(-2, 2), repeat=4)
        }
        unreachable = 0
        for value in range(min(totals) - 2, max(totals) + 3):
            spec = tent_spec(
                lower=-2,
                upper=1,
                cost_target=CostTarget(Relation.EQ, value),
                balance_left_tail=False,
                balance_right_tail=False,
            )
            expected = None if value in totals else "cost"
            rows = equality_rows(spec, series)
            assert unreachable_row(rows, -2, 1) == expected, value
            unreachable += expected is not None
        assert len(totals) > 100 and unreachable > 1000

    def test_only_equalities_without_side_bits_are_read(self):
        # the proofs read the equality rows of the combined program without
        # side-bit coefficients, computed without building it: ask on each
        # p_i, bid on each r_i, in build order, on every corpus strategy
        strategies = list(seeded_strategies(20260823, 220))
        modes = {spec.tail_loss_mode for spec, _ in strategies}
        assert modes == set(TailLossMode)
        for spec, series in strategies:
            slots = 2 * series.n
            lifted = [
                (name, (0,) * slots + tuple(itertools.chain(*zip(ask, bid))), rhs)
                for name, ask, bid, rhs in equality_rows(spec, series)
            ]
            combined = build_combined(spec, series)
            assert lifted == [
                (row.name, row.coeffs, row.rhs)
                for row in combined.rows
                if row.relation is Relation.EQ
            ]

    def test_first_unreachable_row_is_named(self):
        # rows are read in order; a row far past every total is named unless
        # an earlier one is, and a zero row with a right-hand side is never met
        rows = equality_rows(
            tent_spec(balance_left_tail=False, balance_right_tail=False), small_series()
        )
        far = ("far", (1,) * 4, (1,) * 4, 10**6)
        empty = ("empty", (0,) * 4, (0,) * 4, 1)
        assert unreachable_row(rows, -3, 3) is None
        assert unreachable_row(rows + (far,), -3, 3) == "far"
        assert unreachable_row(rows + (empty, far), -3, 3) == "empty"

    def test_zero_right_hand_side_is_never_enumerated(self, monkeypatch):
        # the zero vector lies in every box, so a row with right-hand side 0
        # is skipped before its halves are enumerated, however small its box
        enumerated = []
        monkeypatch.setattr(
            model_builder, "_sums", lambda *args: enumerated.append(args) or {0}
        )
        rows = (("zero", (1, 2), (3, 4), 0), ("one", (1, 2), (3, 4), 1))
        assert unreachable_row(rows[:1], -1, 1) is None
        assert enumerated == []
        unreachable_row(rows, -1, 1)
        assert enumerated == [([(1, 3)], -1, 1), ([(2, 4)], -1, 1)]

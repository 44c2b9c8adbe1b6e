import pytest
from hypothesis import given, strategies as st

from payoffopt.market_data import SeriesSelection
from payoffopt.payoff_engine import (
    Portfolio,
    curve_to_csv,
    initial_cost,
    interval_slope,
    payoff,
    payoff_curve,
    pnl,
)
from support import (
    REFERENCE_COLUMNS,
    combination_from_index,
    reference_series,
    small_series,
)

COLUMN_1 = REFERENCE_COLUMNS[0]


@pytest.fixture(scope="module")
def column_1_portfolio():
    return Portfolio(
        series=reference_series(), calls=COLUMN_1.calls, puts=COLUMN_1.puts
    )


@pytest.mark.parametrize(
    "price,value",
    [
        (780000, -20000),
        (785000, -20000),
        (795000, -20000),
        (805000, -20000),
        (815000, -10000),
        (825000, 0),
        (835000, 60000),
        (840000, 50000),
        (850000, -20000),
        (860000, -20000),
    ],
)
def test_column_payoff_values(column_1_portfolio, price, value):
    assert payoff(column_1_portfolio, price) == value


def test_column_interval_slopes(column_1_portfolio):
    slopes = [interval_slope(column_1_portfolio, q) for q in range(9)]
    assert slopes == [0, 0, 0, 1, 1, 6, -2, -7, 0]


def test_column_curve(column_1_portfolio):
    curve = payoff_curve(column_1_portfolio)
    assert curve.breakpoints == (7850, 7950, 8050, 8150, 8250, 8350, 8400, 8500)
    assert curve.values == (
        -20000,
        -20000,
        -20000,
        -10000,
        0,
        60000,
        50000,
        -20000,
    )
    assert curve.interval_slopes == (0, 0, 1, 1, 6, -2, -7)
    assert curve.left_tail_slope == 0
    assert curve.right_tail_slope == 0


def test_column_curve_csv(column_1_portfolio):
    assert curve_to_csv(payoff_curve(column_1_portfolio)) == (
        "price,value\n"
        "7750,-200.00\n"
        "7850,-200.00\n"
        "7950,-200.00\n"
        "8050,-200.00\n"
        "8150,-100.00\n"
        "8250,0.00\n"
        "8350,600.00\n"
        "8400,500.00\n"
        "8500,-200.00\n"
        "8600,-200.00\n"
    )


def test_initial_cost_and_pnl():
    portfolio = Portfolio(series=small_series(), calls=(3, -3), puts=(3, -3))
    combo = combination_from_index(2, 0b1010)
    # long at ask, short at bid: 3*4.20 - 3*1.00 + 3*0.90 - 3*3.80
    assert initial_cost(portfolio, combo) == 90
    assert payoff(portfolio, 10500) == 1500
    assert pnl(portfolio, combo, 10500) == 1410


def test_zero_quantity_lands_on_bid():
    # a zero quantity is accepted on either side and costs nothing there
    portfolio = Portfolio(series=small_series(), calls=(0, 2), puts=(-1, 0))
    for index in (0b0100, 0b1101):  # zero slots at bid, then at ask
        combo = combination_from_index(2, index)
        assert initial_cost(portfolio, combo) == 2 * 110 - 80


def test_inconsistent_sides_rejected():
    # long at bid and short at ask, in each leg; zero slots fit either side
    cases = [
        ((3, -3), (0, 0), 0b0000, "long call slot 0 priced at bid"),
        ((3, -3), (0, 0), 0b1111, "short call slot 1 priced at ask"),
        ((0, 0), (0, 2), 0b0000, "long put slot 1 priced at bid"),
        ((0, 0), (-2, 0), 0b0011, "short put slot 0 priced at ask"),
    ]
    for calls, puts, index, message in cases:
        portfolio = Portfolio(series=small_series(), calls=calls, puts=puts)
        combo = combination_from_index(2, index)
        with pytest.raises(ValueError, match=f"^{message}$"):
            initial_cost(portfolio, combo)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pnl(portfolio, combo, 10500)


def test_slope_index_bounds(column_1_portfolio):
    with pytest.raises(IndexError):
        interval_slope(column_1_portfolio, -1)
    with pytest.raises(IndexError):
        interval_slope(column_1_portfolio, 9)


@st.composite
def portfolios(draw):
    n = draw(st.integers(1, 3))
    pool = draw(
        st.lists(
            st.integers(40, 400), min_size=2 * n, max_size=2 * n, unique=True
        )
    )
    pool.sort()
    series = SeriesSelection(
        n=n,
        call_strikes=tuple(pool[n:]),
        put_strikes=tuple(pool[:n]),
        call_asks=(10,) * n,
        call_bids=(5,) * n,
        put_asks=(10,) * n,
        put_bids=(5,) * n,
    )
    quantities = st.integers(-6, 6)
    calls = tuple(draw(quantities) for _ in range(n))
    puts = tuple(draw(quantities) for _ in range(n))
    return Portfolio(series=series, calls=calls, puts=puts)


@given(portfolios(), st.data())
def test_finite_difference_matches_interval_slope(portfolio, data):
    strikes = portfolio.series.unique_strikes
    m = len(strikes)
    q = data.draw(st.integers(0, m))
    if q == 0:
        lo, hi = max(1, strikes[0] * 100 - 5000), strikes[0] * 100
    elif q == m:
        lo, hi = strikes[-1] * 100, strikes[-1] * 100 + 5000
    else:
        lo, hi = strikes[q - 1] * 100, strikes[q] * 100
    a = data.draw(st.integers(lo, hi))
    b = data.draw(st.integers(lo, hi))
    expected = interval_slope(portfolio, q) * (b - a)
    assert payoff(portfolio, b) - payoff(portfolio, a) == expected


@given(portfolios(), st.data(), st.integers(1, 50000))
def test_payoff_additivity(p1, data, price):
    quantities = st.integers(-6, 6)
    n = p1.series.n
    p2 = Portfolio(
        series=p1.series,
        calls=tuple(data.draw(quantities) for _ in range(n)),
        puts=tuple(data.draw(quantities) for _ in range(n)),
    )
    merged = Portfolio(
        series=p1.series,
        calls=tuple(a + b for a, b in zip(p1.calls, p2.calls)),
        puts=tuple(a + b for a, b in zip(p1.puts, p2.puts)),
    )
    assert payoff(merged, price) == payoff(p1, price) + payoff(p2, price)


@given(portfolios())
def test_curve_slopes_consistent_with_values(portfolio):
    curve = payoff_curve(portfolio)
    assert curve.values == tuple(
        payoff(portfolio, k * 100) for k in curve.breakpoints
    )
    for i, slope in enumerate(curve.interval_slopes):
        gap = (curve.breakpoints[i + 1] - curve.breakpoints[i]) * 100
        assert curve.values[i + 1] - curve.values[i] == slope * gap

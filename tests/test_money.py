import pytest
from hypothesis import given, strategies as st

from payoffopt import MoneyError, format_money, parse_money


@pytest.mark.parametrize(
    "text,cents",
    [
        ("0", 0),
        ("0.00", 0),
        ("8067.60", 806760),
        ("8067.6", 806760),
        ("174.5", 17450),
        ("-100.00", -10000),
        ("+2.5", 250),
        ("  12.34 ", 1234),
        ("7", 700),
    ],
)
def test_parse_strings(text, cents):
    assert parse_money(text) == cents


def test_parse_ints_are_whole_units():
    assert parse_money(700) == 70000
    assert parse_money(-100) == -10000


def test_parse_floats_via_repr():
    assert parse_money(8067.6) == 806760
    assert parse_money(-0.5) == -50


@pytest.mark.parametrize(
    "bad", ["", ".", "12.", "1.234", "1e3", "abc", "12,5", None, [1], True, 0.1 + 0.2]
)
def test_parse_rejects(bad):
    with pytest.raises(MoneyError):
        parse_money(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "\u00b2",  # superscript two
        "8067.6\u00b2",
        "\u0661\u0662.5",  # Arabic-Indic twelve
        "\uff11\uff12",  # fullwidth twelve
        "1.\u0665",
    ],
)
def test_parse_rejects_non_ascii_digits(bad):
    with pytest.raises(MoneyError):
        parse_money(bad)


def test_parse_rejects_too_many_digits_with_money_error():
    with pytest.raises(MoneyError, match="too many digits"):
        parse_money("9" * 5000)


def test_format_two_places():
    assert format_money(806760) == "8067.60"
    assert format_money(-10000) == "-100.00"
    assert format_money(5) == "0.05"
    assert format_money(0) == "0.00"


def test_format_trim():
    assert format_money(70000, trim=True) == "700"
    assert format_money(17450, trim=True) == "174.5"
    assert format_money(1234, trim=True) == "12.34"
    assert format_money(-50, trim=True) == "-0.5"


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_format_parse_round_trip(cents):
    assert parse_money(format_money(cents)) == cents
    assert parse_money(format_money(cents, trim=True)) == cents

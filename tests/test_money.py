import pytest
from hypothesis import given, strategies as st

from payoffopt.money import format_money, parse_money


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
    with pytest.raises(
        ValueError, match="^(not a money amount|more than two decimal places): "
    ):
        parse_money(bad)


@pytest.mark.parametrize(
    "value, message",
    [
        (0.1 + 0.2, "more than two decimal places: 0.30000000000000004"),
        (1e400, "not a money amount: inf"),
        (float("nan"), "not a money amount: nan"),
        ("0.30000000000000004", "more than two decimal places: '0.30000000000000004'"),
        ("inf", "not a money amount: 'inf'"),
    ],
)
def test_errors_show_floats_bare_and_quote_strings(value, message):
    with pytest.raises(ValueError) as err:
        parse_money(value)
    assert str(err.value) == message


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
    with pytest.raises(ValueError, match=f"^not a money amount: {bad!r}$"):
        parse_money(bad)


def test_parse_rejects_too_many_digits_with_money_error():
    with pytest.raises(ValueError, match="^amount has too many digits: 5000$"):
        parse_money("9" * 5000)


# each amount's cents, or the exact message it is refused with
MONEY_LANGUAGE = [
    ("+5", 500),
    ("-0", 0),
    ("-0.00", 0),
    ("5.", "not a money amount: '5.'"),
    (".5", "not a money amount: '.5'"),
    ("5.5.5", "not a money amount: '5.5.5'"),
    # int() reads "1_000" and the other scripts' digits; money does not
    ("1_000", "not a money amount: '1_000'"),
    ("\u0663", "not a money amount: '\u0663'"),  # Arabic-Indic three
    ("\uff11", "not a money amount: '\uff11'"),  # fullwidth one
    (" 5 ", 500),
    ("5 .00", "not a money amount: '5 .00'"),
    ("+-5", "not a money amount: '+-5'"),
    ("1e3", "not a money amount: '1e3'"),
    ("5.000", "more than two decimal places: '5.000'"),
    ("9" * 5000, "amount has too many digits: 5000"),
    (1e16, "not a money amount: 1e+16"),
    (0.1 + 0.2, "more than two decimal places: 0.30000000000000004"),
]


@pytest.mark.parametrize(
    "value, result", MONEY_LANGUAGE, ids=[repr(v)[:12] for v, _ in MONEY_LANGUAGE]
)
def test_the_money_language(value, result):
    if isinstance(result, int):
        assert parse_money(value) == result
    else:
        with pytest.raises(ValueError) as err:
            parse_money(value)
        assert str(err.value) == result


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

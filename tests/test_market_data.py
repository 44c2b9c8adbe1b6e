import datetime
import json

import pytest

from payoffopt import (
    DuplicateQuoteError,
    OptionChain,
    OptionQuote,
    ParseError,
    Right,
    SchemaError,
    SelectionError,
    SeriesSelection,
    chain_to_csv,
    chain_to_json,
    parse_chain,
    select_series,
    validate_chain,
)
from conftest import FIXTURES

SMALL_CSV = """\
underlying=99.50
valuation=2026-08-20
expiry=2026-09-16
100,call,4.00,4.20,120
110,call,1.00,1.10,80
90,put,0.80,0.90,60
100,put,3.80,4.00,95
"""


def quote(strike, right, bid, ask, volume=10):
    return OptionQuote(strike=strike, right=right, bid=bid, ask=ask, volume=volume)


def chain_of(*quotes):
    return OptionChain(
        underlying_price=9950,
        valuation_date=datetime.date(2026, 8, 20),
        expiry_date=datetime.date(2026, 9, 16),
        quotes=tuple(quotes),
    )


def test_parse_small_chain():
    chain = parse_chain(SMALL_CSV)
    assert chain.underlying_price == 9950
    assert chain.valuation_date == datetime.date(2026, 8, 20)
    assert chain.expiry_date == datetime.date(2026, 9, 16)
    assert len(chain.quotes) == 4
    q = chain.quote(100, Right.CALL)
    assert (q.bid, q.ask, q.volume) == (400, 420, 120)
    assert chain.strikes(Right.CALL) == (100, 110)
    assert chain.strikes(Right.PUT) == (90, 100)


def test_parse_accepts_bytes_and_streams(tmp_path):
    assert parse_chain(SMALL_CSV.encode()) == parse_chain(SMALL_CSV)
    path = tmp_path / "chain.csv"
    path.write_text(SMALL_CSV)
    with open(path) as fh:
        assert parse_chain(fh) == parse_chain(SMALL_CSV)


def test_missing_side_is_none():
    text = SMALL_CSV + "120,call,,0.55,3\n130,call,0.10,,2\n"
    chain = parse_chain(text)
    assert chain.quote(120, Right.CALL).bid is None
    assert chain.quote(130, Right.CALL).ask is None


def test_missing_header_is_schema_error():
    bad = SMALL_CSV.replace("expiry=2026-09-16\n", "")
    with pytest.raises(SchemaError, match="expiry"):
        parse_chain(bad)


def test_no_quotes_is_schema_error():
    with pytest.raises(SchemaError, match="no quotes"):
        parse_chain("underlying=1.00\nvaluation=2026-01-01\nexpiry=2026-02-01\n")


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("abc,call,1.00,2.00,5", "bad strike"),
        ("100,swap,1.00,2.00,5", "bad right"),
        ("100,call,1.005,2.00,5", "bad bid"),
        ("100,call,1.00,x,5", "bad ask"),
        ("100,call,1.00,2.00,-5", "bad volume"),
        ("\u0661\u0660\u0660,call,1.00,2.00,5", "bad strike"),
        ("100,call,1.00,2.00,\u00b2", "bad volume"),
        ("100,call,1.00,2.0\u00b2,5", "bad ask"),
        ("100,call,1.00,2.00", "expected 5 fields"),
        # a dict is one quote of a JSON chain, overriding a well-formed one
        pytest.param({"strike": 7950.7}, "bad strike", id="json-fractional-strike"),
        pytest.param({"volume": 12.9}, "bad volume", id="json-fractional-volume"),
        pytest.param(
            {"strike": "\u0661\u0660\u0660"}, "bad strike", id="json-arabic-indic-strike"
        ),
        pytest.param({"strike": True}, "bad strike", id="json-bool-strike"),
        pytest.param({"volume": "12.9"}, "bad volume", id="json-decimal-text-volume"),
    ],
)
def test_malformed_record_names_row(row, fragment):
    if isinstance(row, dict):
        quote = {"strike": 100, "right": "call", "bid": "1.00", "ask": "2.00", "volume": 5}
        document = json.dumps(
            {
                "underlying_price": "99.50",
                "valuation_date": "2026-08-20",
                "expiry_date": "2026-09-16",
                "quotes": [{**quote, **row}],
            }
        )
        with pytest.raises(ParseError, match="quote 1") as err:
            parse_chain(document, "json")
    else:
        with pytest.raises(ParseError, match="row 4") as err:
            parse_chain("\n".join(SMALL_CSV.splitlines()[:3]) + "\n" + row + "\n")
    assert fragment in str(err.value)


def test_non_utf8_bytes_are_a_parse_error():
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_chain(SMALL_CSV.encode() + b"100,put,4.\xe9,4.30,3\n")


def test_duplicate_quote_rejected():
    with pytest.raises(DuplicateQuoteError):
        parse_chain(SMALL_CSV + "100,call,4.10,4.30,3\n")


def test_header_after_records_rejected():
    lines = SMALL_CSV.splitlines()
    shuffled = lines[1:4] + [lines[0]] + lines[4:]
    with pytest.raises(ParseError, match="header"):
        parse_chain("\n".join(shuffled) + "\n")


def test_expiry_before_valuation_rejected():
    bad = SMALL_CSV.replace("expiry=2026-09-16", "expiry=2026-08-01")
    with pytest.raises(SchemaError):
        parse_chain(bad)


def test_csv_round_trip_is_byte_exact():
    chain = parse_chain(SMALL_CSV)
    assert chain_to_csv(chain) == SMALL_CSV
    fixture_text = (FIXTURES / "chain.csv").read_text()
    assert chain_to_csv(parse_chain(fixture_text)) == fixture_text


def test_json_round_trip():
    chain = parse_chain(SMALL_CSV)
    text = chain_to_json(chain)
    assert parse_chain(text, "json") == chain
    data = json.loads(text)
    assert data["underlying_price"] == "99.50"
    assert {q["strike"] for q in data["quotes"]} == {90, 100, 110}


def test_json_strike_and_volume_may_be_digit_strings():
    chain = parse_chain(SMALL_CSV)
    data = json.loads(chain_to_json(chain))
    for item in data["quotes"]:
        item["strike"], item["volume"] = str(item["strike"]), str(item["volume"])
    assert parse_chain(json.dumps(data), "json") == chain


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        parse_chain(SMALL_CSV, "xml")


def test_validate_clean_chain_is_empty():
    assert validate_chain(parse_chain(SMALL_CSV)) == []
    assert validate_chain(parse_chain((FIXTURES / "chain.csv").read_text())) == []


def test_validate_reports_crossed_quote():
    chain = chain_of(
        quote(100, Right.CALL, bid=450, ask=420),
        quote(90, Right.PUT, bid=80, ask=90),
    )
    report = validate_chain(chain)
    assert [v.kind for v in report] == ["crossed"]
    assert report[0].strike == 100
    assert "bid 4.50 >= ask 4.20" in report[0].message


def test_validate_reports_ladder_breaks():
    chain = chain_of(
        quote(100, Right.CALL, bid=400, ask=420),
        quote(110, Right.CALL, bid=405, ask=430),  # both sides rise with strike
    )
    kinds = [(v.kind, v.strike) for v in validate_chain(chain)]
    assert kinds == [("monotonicity", 110), ("monotonicity", 110)]


def test_validate_skips_missing_sides():
    chain = chain_of(
        quote(100, Right.CALL, bid=None, ask=420),
        quote(110, Right.CALL, bid=None, ask=110),
    )
    assert validate_chain(chain) == []


def test_select_series_happy_path():
    series = select_series(parse_chain(SMALL_CSV), 2, 100, 90)
    assert series == SeriesSelection(
        n=2,
        call_strikes=(100, 110),
        put_strikes=(90, 100),
        call_asks=(420, 110),
        call_bids=(400, 100),
        put_asks=(90, 400),
        put_bids=(80, 380),
    )


def test_select_series_fixture_grid(fixture_series):
    assert fixture_series.call_strikes == (8050, 8150, 8250, 8350, 8400, 8500)
    assert fixture_series.put_strikes == (7850, 7950, 8050, 8150, 8250, 8350)
    assert fixture_series.unique_strikes == (
        7850,
        7950,
        8050,
        8150,
        8250,
        8350,
        8400,
        8500,
    )


@pytest.mark.parametrize(
    "n,call_anchor,put_anchor,fragment",
    [
        (2, 105, 90, "anchor 105 not listed"),
        (3, 100, 90, "only 2 call strikes"),
        (0, 100, 90, "positive"),
    ],
)
def test_select_series_errors(n, call_anchor, put_anchor, fragment):
    with pytest.raises(SelectionError, match=fragment):
        select_series(parse_chain(SMALL_CSV), n, call_anchor, put_anchor)


def test_select_series_names_missing_side():
    text = SMALL_CSV.replace("110,call,1.00,1.10,80", "110,call,,1.10,80")
    with pytest.raises(SelectionError, match="call bid missing at strike 110"):
        select_series(parse_chain(text), 2, 100, 90)


def test_quote_type_errors():
    with pytest.raises(ValueError):
        quote(0, Right.CALL, bid=100, ask=110)
    with pytest.raises(ValueError):
        quote(100, Right.CALL, bid=-1, ask=110)
    with pytest.raises(ValueError):
        quote(100, Right.CALL, bid=100, ask=0)
    with pytest.raises(ValueError):
        OptionQuote(strike=100, right=Right.CALL, bid=1, ask=2, volume=-1)

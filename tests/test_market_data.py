import datetime
import json
import random

import pytest

from payoffopt import parse_chain, select_series
from payoffopt.market_data import (
    MarketDataError,
    OptionChain,
    OptionQuote,
    Right,
    SeriesSelection,
    validate_chain,
)
from conftest import FIXTURES
from support import chain_to_csv, chain_to_json

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
    q = chain.ladder(Right.CALL)[0]
    assert (q.strike, q.bid, q.ask, q.volume) == (100, 400, 420, 120)
    assert [q.strike for q in chain.ladder(Right.CALL)] == [100, 110]
    assert [q.strike for q in chain.ladder(Right.PUT)] == [90, 100]


def test_parse_accepts_bytes():
    assert parse_chain(SMALL_CSV.encode()) == parse_chain(SMALL_CSV)


@pytest.mark.parametrize("format", ["csv", "json"])
def test_text_byte_order_mark_is_skipped(format):
    # text read without the utf-8-sig codec keeps the mark as U+FEFF
    text = (FIXTURES / f"chain.{format}").read_text(encoding="utf-8")
    assert parse_chain("\ufeff" + text, format) == parse_chain(text, format)


def test_missing_side_is_none():
    text = SMALL_CSV + "120,call,,0.55,3\n130,call,0.10,,2\n"
    chain = parse_chain(text)
    calls = {q.strike: q for q in chain.ladder(Right.CALL)}
    assert calls[120].bid is None
    assert calls[130].ask is None


def test_missing_header_is_schema_error():
    bad = SMALL_CSV.replace("expiry=2026-09-16\n", "")
    with pytest.raises(MarketDataError, match="^missing header: expiry$"):
        parse_chain(bad)


def test_no_quotes_is_schema_error():
    with pytest.raises(MarketDataError, match="^no quotes$"):
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
        with pytest.raises(MarketDataError, match="quote 1") as err:
            parse_chain(document, "json")
    else:
        with pytest.raises(MarketDataError, match="row 4") as err:
            parse_chain("\n".join(SMALL_CSV.splitlines()[:3]) + "\n" + row + "\n")
    assert fragment in str(err.value)


RECORD = {"strike": 100, "right": "call", "bid": "1.00", "ask": "2.00", "volume": 5}


def one_record_chain(format, **fields):
    """A chain of one quote in ``format``; ``fields`` override the record,
    and a field set to ``...`` is left out. CSV writes every value with
    ``str`` (``True`` as ``true``), JSON keeps its type."""
    record = {**RECORD, **fields}
    if format == "csv":
        cells = [
            str(v).lower() if isinstance(v, bool) else str(v)
            for v in record.values() if v is not ...
        ]
        return "\n".join(SMALL_CSV.splitlines()[:3] + [",".join(cells)]) + "\n"
    return json.dumps(
        {
            "underlying_price": "99.50",
            "valuation_date": "2026-08-20",
            "expiry_date": "2026-09-16",
            "quotes": [{k: v for k, v in record.items() if v is not ...}],
        }
    )


@pytest.mark.parametrize(
    "fields,fragment",
    [
        ({"strike": 7950.5}, "bad strike"),
        ({"strike": True}, "bad strike"),
        ({"strike": "١٠٠"}, "bad strike"),
        ({"strike": 0}, "strike must be positive"),
        ({"right": "fwd"}, "bad right 'fwd'"),
        ({"bid": "1.234"}, "bad bid '1.234'"),
        ({"ask": "abc"}, "bad ask 'abc'"),
        ({"volume": 2.5}, "bad volume"),
        (
            {"volume": ...},
            {"csv": "expected 5 fields", "json": "missing field 'volume'"},
        ),
    ],
    ids=[
        "fractional-strike", "bool-strike", "arabic-indic-strike", "zero-strike",
        "right-fwd", "bid-three-decimals", "ask-text", "fractional-volume",
        "missing-volume",
    ],
)
@pytest.mark.parametrize("format", ["csv", "json"])
def test_both_readers_reject_a_field_alike(format, fields, fragment):
    # one record converter serves both formats: the fault names the record
    # by its label in that format, then the field
    if isinstance(fragment, dict):
        fragment = fragment[format]
    label = "row 4" if format == "csv" else "quote 1"
    with pytest.raises(MarketDataError) as err:
        parse_chain(one_record_chain(format, **fields), format)
    assert str(err.value).startswith(f"{label}: ")
    assert fragment in str(err.value)


def test_json_strike_text_is_not_stripped():
    with pytest.raises(MarketDataError, match="quote 1: bad strike ' 100'"):
        parse_chain(one_record_chain("json", strike=" 100"), "json")


def test_csv_fields_are_stripped():
    text = one_record_chain("csv")
    spaced = text.replace("100,call,1.00,2.00,5", " 100 , call ,1.00 , 2.00,5 ")
    assert parse_chain(spaced) == parse_chain(text)


def test_non_utf8_bytes_are_a_parse_error():
    with pytest.raises(MarketDataError, match="^chain is not UTF-8 text: "):
        parse_chain(SMALL_CSV.encode() + b"100,put,4.\xe9,4.30,3\n")


def test_duplicate_quote_rejected():
    with pytest.raises(MarketDataError, match="^duplicate quote for strike 100 call$"):
        parse_chain(SMALL_CSV + "100,call,4.10,4.30,3\n")


def test_first_repeat_in_file_order_is_named():
    # two repeated pairs listed out of strike order: 110 call repeats first,
    # though 100 call is the lower strike
    records = ["110,call,1.00,1.10,80", "100,call,4.00,4.20,120", "90,put,0.80,0.90,60"]
    text = "\n".join(SMALL_CSV.splitlines()[:3] + records + records[:2]) + "\n"
    with pytest.raises(MarketDataError, match="^duplicate quote for strike 110 call$"):
        parse_chain(text)


def test_header_after_records_rejected():
    lines = SMALL_CSV.splitlines()
    shuffled = lines[1:4] + [lines[0]] + lines[4:]
    with pytest.raises(
        MarketDataError, match="^row 4: header 'underlying' after records$"
    ):
        parse_chain("\n".join(shuffled) + "\n")


def test_expiry_before_valuation_rejected():
    bad = SMALL_CSV.replace("expiry=2026-09-16", "expiry=2026-08-01")
    with pytest.raises(
        MarketDataError, match="^expiry 2026-08-01 precedes valuation 2026-08-20$"
    ):
        parse_chain(bad)


def test_csv_round_trip_is_byte_exact():
    chain = parse_chain(SMALL_CSV)
    assert chain_to_csv(chain) == SMALL_CSV
    fixture_text = (FIXTURES / "chain.csv").read_text()
    assert chain_to_csv(parse_chain(fixture_text)) == fixture_text


def out_of_order(text: str, seed: int | None) -> str:
    """``text`` with its records after the three header lines reversed, or
    shuffled with ``seed``."""
    header, records = text.splitlines()[:3], text.splitlines()[3:]
    if seed is None:
        records.reverse()
    else:
        random.Random(seed).shuffle(records)
    return "\n".join(header + records) + "\n"


# SMALL_CSV plus a call ask that rises with strike, and a crossed 80 put
# quoted above the 90 put
FAULTY_CSV = SMALL_CSV + "120,call,0.50,1.20,5\n80,put,0.95,0.90,5\n"


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["reversed", "shuffled-1", "shuffled-2"])
def test_record_order_does_not_matter(seed):
    # each right is read in strike order; the chain keeps the file's order
    fixture = (FIXTURES / "chain.csv").read_text()
    spec = json.loads((FIXTURES / "spec.json").read_text())
    anchors = spec["n"], spec["call_anchor"], spec["put_anchor"]
    text = out_of_order(fixture, seed)
    assert text != fixture
    assert chain_to_csv(parse_chain(text)) == text
    assert select_series(parse_chain(text), *anchors) == select_series(
        parse_chain(fixture), *anchors
    )
    report = validate_chain(parse_chain(FAULTY_CSV))
    assert {v.kind for v in report} == {"crossed", "monotonicity"}
    assert validate_chain(parse_chain(out_of_order(FAULTY_CSV, seed))) == report


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


@pytest.mark.parametrize(
    "key, what", [("valuation_date", "valuation"), ("expiry_date", "expiry")]
)
def test_json_date_must_be_a_string(key, what):
    data = json.loads(chain_to_json(parse_chain(SMALL_CSV)))
    data[key] = 20260820
    with pytest.raises(MarketDataError) as err:
        parse_chain(json.dumps(data), "json")
    assert str(err.value) == f"bad {what} date: 20260820"


# the same days in the basic and the week form, which ``date.fromisoformat``
# takes from Python 3.11 on; a chain takes only YYYY-MM-DD on every Python
OTHER_ISO_FORMS = {
    "valuation": {"basic": "20260820", "week": "2026-W34-4"},
    "expiry": {"basic": "20260916", "week": "2026-W38-3"},
}


@pytest.mark.parametrize("form", ["basic", "week"])
@pytest.mark.parametrize("what", ["valuation", "expiry"])
@pytest.mark.parametrize("format", ["csv", "json"])
def test_date_must_be_year_month_day(format, what, form):
    chain = parse_chain(SMALL_CSV)
    day = getattr(chain, f"{what}_date").isoformat()
    text = SMALL_CSV if format == "csv" else chain_to_json(chain)
    assert text.count(day) == 1
    other = OTHER_ISO_FORMS[what][form]
    with pytest.raises(MarketDataError) as err:
        parse_chain(text.replace(day, other), format)
    assert str(err.value) == f"bad {what} date: {other!r}"
    # surrounding space is stripped, as before
    assert parse_chain(text.replace(day, f" {day} "), format) == chain


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
    with pytest.raises(MarketDataError, match=fragment):
        select_series(parse_chain(SMALL_CSV), n, call_anchor, put_anchor)


def test_select_series_names_missing_side():
    text = SMALL_CSV.replace("110,call,1.00,1.10,80", "110,call,,1.10,80")
    with pytest.raises(MarketDataError, match="call bid missing at strike 110"):
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

"""Option-chain market data: parsing, validation, and series selection.

A chain is a snapshot of call and put quotes for one underlying and expiry.
Two interchangeable on-disk formats are supported:

* CSV: three ``key=value`` header lines (``underlying``, ``valuation``,
  ``expiry``), then one ``strike,right,bid,ask,volume`` record per line.
  Each field is stripped; an empty bid or ask field means that side is not
  quoted.
* JSON: an object with ``underlying_price``, ``valuation_date``,
  ``expiry_date`` and a ``quotes`` array of objects with the record fields;
  a strike or volume is an integer or a string of ASCII digits, money may be
  a number or an exact decimal string, a missing side is null.

Both readers hand every record to one converter: a malformed record is a
:class:`MarketDataError` that names ``row N`` (CSV) or ``quote N`` (JSON) and
the field.

Quote-quality problems (crossed quotes, non-monotone price ladders) are data,
not failures: they are reported by :func:`validate_chain` and never block
parsing or selection.
"""

from __future__ import annotations

import contextlib
import datetime
import enum
import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .money import format_money, is_digits, parse_money


class Right(enum.Enum):
    """Option right: call or put."""

    CALL = "call"
    PUT = "put"


class MarketDataError(ValueError):
    """A chain that cannot be parsed, or a series it cannot supply; the
    message names the record, field or strike at fault."""


@dataclass(frozen=True)
class OptionQuote:
    """One quoted option: strike in index points, prices in cents.

    ``bid``/``ask`` are ``None`` when that side is not quoted. A crossed
    quote (bid >= ask) is constructible on purpose; it surfaces through
    :func:`validate_chain`.
    """

    strike: int
    right: Right
    bid: int | None
    ask: int | None
    volume: int

    def __post_init__(self) -> None:
        if self.strike <= 0:
            raise ValueError(f"strike must be positive: {self.strike}")
        if self.ask is not None and self.ask <= 0:
            raise ValueError(f"ask must be positive: {self.ask}")
        if self.bid is not None and self.bid < 0:
            raise ValueError(f"bid must be non-negative: {self.bid}")
        if self.volume < 0:
            raise ValueError(f"volume must be non-negative: {self.volume}")


@dataclass(frozen=True)
class OptionChain:
    """Immutable quote snapshot for one underlying and expiry.

    ``quotes`` keeps the order the records were read in; :meth:`ladder`
    gives one right's quotes in strike order.
    """

    underlying_price: int
    valuation_date: datetime.date
    expiry_date: datetime.date
    quotes: tuple[OptionQuote, ...]

    def __post_init__(self) -> None:
        if self.underlying_price <= 0:
            raise MarketDataError(
                f"underlying price must be positive: {format_money(self.underlying_price)}"
            )
        if self.expiry_date < self.valuation_date:
            raise MarketDataError(
                f"expiry {self.expiry_date} precedes valuation {self.valuation_date}"
            )
        seen: set[tuple[int, Right]] = set()
        for q in self.quotes:  # in file order: the first repeat is named
            if (q.strike, q.right) in seen:
                raise MarketDataError(
                    f"duplicate quote for strike {q.strike} {q.right.value}"
                )
            seen.add((q.strike, q.right))

    def ladder(self, right: Right) -> tuple[OptionQuote, ...]:
        """The quotes of the given right in strike order."""
        quotes = (q for q in self.quotes if q.right is right)
        return tuple(sorted(quotes, key=lambda q: q.strike))


@dataclass(frozen=True)
class SeriesSelection:
    """Aligned call and put series feeding the optimizer.

    Holds n strictly increasing strikes per right and both quote sides for
    every slot, all in cents. Price ordering across strikes is deliberately
    not enforced here; feed the chain through :func:`validate_chain` first if
    you care.
    """

    n: int
    call_strikes: tuple[int, ...]
    put_strikes: tuple[int, ...]
    call_asks: tuple[int, ...]
    call_bids: tuple[int, ...]
    put_asks: tuple[int, ...]
    put_bids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("series length must be positive")
        for name in (
            "call_strikes",
            "put_strikes",
            "call_asks",
            "call_bids",
            "put_asks",
            "put_bids",
        ):
            if len(getattr(self, name)) != self.n:
                raise ValueError(f"{name} must have length {self.n}")
        for strikes in (self.call_strikes, self.put_strikes):
            if any(a >= b for a, b in zip(strikes, strikes[1:])):
                raise ValueError(f"strikes must be strictly increasing: {strikes}")

    @cached_property
    def unique_strikes(self) -> tuple[int, ...]:
        """Sorted union of call and put strikes."""
        return tuple(sorted(set(self.call_strikes) | set(self.put_strikes)))


@dataclass(frozen=True)
class Violation:
    """One quote-quality finding from :func:`validate_chain`."""

    kind: str
    message: str
    strike: int
    right: Right


_HEADER_KEYS = ("underlying", "valuation", "expiry")
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_chain(source: str | bytes, format: str = "csv") -> OptionChain:
    """Parse a chain from CSV or JSON text, or its UTF-8 bytes; one leading
    byte-order mark (U+FEFF) is skipped in either.

    Raises :class:`MarketDataError` for a missing header field, an empty
    quote section, a malformed record (the message names the row and field)
    or a repeated (strike, right) pair.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise MarketDataError(f"chain is not UTF-8 text: {exc}") from exc
    else:
        source = source.removeprefix("\ufeff")
    if format == "csv":
        return _parse_csv(source)
    if format == "json":
        return _parse_json(source)
    raise ValueError(f"unknown chain format: {format!r}")


# a required field that a JSON quote leaves out
_MISSING = object()


def _count(value: object, name: str) -> int:
    """A strike or volume: an integer (not a bool), or a string of ASCII
    digits; a fraction, a sign or surrounding space is an error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and is_digits(value):
        return int(value)  # past the int-string digit limit: a ValueError
    if value is _MISSING:
        raise MarketDataError(f"missing field {name!r}")
    raise MarketDataError(f"bad {name} {value!r}")


def _money(value: object, name: str) -> int:
    try:
        return parse_money(value)
    except ValueError as exc:
        raise MarketDataError(f"bad {name} {value!r}") from exc


_RIGHTS = {right.value: right for right in Right}


def _right(value: object) -> Right:
    text = str(value)
    right = _RIGHTS.get(text.strip().lower())
    if right is not None:
        return right
    if value is _MISSING:
        raise MarketDataError("missing field 'right'")
    raise MarketDataError(f"bad right {text!r} (expected call or put)")


def _quote(
    label: str, strike: object, right: object, bid: object, ask: object, volume: object
) -> OptionQuote:
    """The quote of one record's fields, in either format; any fault is one
    :class:`MarketDataError` that starts with the record's ``label``, and the
    fields are checked in this order. A bid or ask of ``None`` is a side that
    is not quoted; a required field of ``_MISSING`` is one the record leaves
    out."""
    try:
        return OptionQuote(
            strike=_count(strike, "strike"),
            right=_right(right),
            bid=None if bid is None else _money(bid, "bid"),
            ask=None if ask is None else _money(ask, "ask"),
            volume=_count(volume, "volume"),
        )
    except ValueError as exc:
        raise MarketDataError(f"{label}: {exc}") from exc


def _parse_date(value: object, what: str) -> datetime.date:
    """A ``YYYY-MM-DD`` date from a string, surrounding space stripped; a
    JSON number, or another form ``date.fromisoformat`` accepts on newer
    Pythons (``20111104``, ``2011-W44-5``), is not a date."""
    text = value.strip() if isinstance(value, str) else ""
    if _DATE.fullmatch(text):
        with contextlib.suppress(ValueError):  # a month or day out of range
            return datetime.date.fromisoformat(text)
    raise MarketDataError(f"bad {what} date: {value!r}")


def _chain(
    header: Mapping[str, object], keys: tuple[str, str, str], quotes: list[OptionQuote]
) -> OptionChain:
    """The chain of ``quotes`` under the underlying price, valuation date and
    expiry date that ``header`` holds at ``keys``."""
    price, valuation, expiry = (header[key] for key in keys)
    return OptionChain(
        underlying_price=_money(price, keys[0]),
        valuation_date=_parse_date(valuation, "valuation"),
        expiry_date=_parse_date(expiry, "expiry"),
        quotes=tuple(quotes),
    )


def unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """``json.loads``'s ``object_pairs_hook``: a key given twice raises
    ``ValueError`` rather than silently keep its last value. The message
    names the first key seen a second time."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def _parse_csv(text: str) -> OptionChain:
    headers: dict[str, str] = {}
    quotes: list[OptionQuote] = []
    for row, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if eq and key in _HEADER_KEYS:
            if quotes:
                raise MarketDataError(f"row {row}: header {key!r} after records")
            if key in headers:
                raise MarketDataError(f"row {row}: repeated header {key!r}")
            headers[key] = value.strip()
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise MarketDataError(f"row {row}: expected 5 fields, got {len(fields)}")
        strike, right, bid, ask, volume = [field.strip() for field in fields]
        # an empty bid or ask field is a side that is not quoted
        quotes.append(
            _quote(f"row {row}", strike, right, bid or None, ask or None, volume)
        )
    for key in _HEADER_KEYS:
        if key not in headers:
            raise MarketDataError(f"missing header: {key}")
    if not quotes:
        raise MarketDataError("no quotes")
    return _chain(headers, _HEADER_KEYS, quotes)


def _parse_json(text: str) -> OptionChain:
    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # malformed, a repeated key, or too long an integer
        raise MarketDataError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MarketDataError("chain JSON must be an object")
    header_keys = ("underlying_price", "valuation_date", "expiry_date")
    for key in (*header_keys, "quotes"):
        if key not in data:
            raise MarketDataError(f"missing header: {key}")
    raw_quotes = data["quotes"]
    if not isinstance(raw_quotes, list) or not raw_quotes:
        raise MarketDataError("no quotes")
    quotes: list[OptionQuote] = []
    for row, item in enumerate(raw_quotes, start=1):
        if not isinstance(item, dict):
            raise MarketDataError(f"quote {row}: expected an object")
        quotes.append(
            _quote(
                f"quote {row}",
                item.get("strike", _MISSING),
                item.get("right", _MISSING),
                item.get("bid"),
                item.get("ask"),
                item.get("volume", _MISSING),
            )
        )
    return _chain(data, header_keys, quotes)


def validate_chain(chain: OptionChain) -> list[Violation]:
    """Report quote-quality violations; an empty report means a clean chain.

    Checked per quote: bid < ask. Checked per ladder (only strikes quoting the
    side in question): call asks and call bids strictly decreasing in strike,
    put asks and put bids strictly increasing.
    """
    report: list[Violation] = []
    for q in sorted(chain.quotes, key=lambda q: (q.strike, q.right.value)):
        if q.bid is not None and q.ask is not None and q.bid >= q.ask:
            report.append(
                Violation(
                    kind="crossed",
                    message=(
                        f"{q.right.value} bid {format_money(q.bid)} >= "
                        f"ask {format_money(q.ask)} at strike {q.strike}"
                    ),
                    strike=q.strike,
                    right=q.right,
                )
            )
    for right in (Right.CALL, Right.PUT):
        quotes = chain.ladder(right)
        direction = "decreasing" if right is Right.CALL else "increasing"
        for side in ("ask", "bid"):
            ladder = [(q.strike, getattr(q, side)) for q in quotes]
            ladder = [(s, p) for s, p in ladder if p is not None]
            for (_, prev), (strike, price) in zip(ladder, ladder[1:]):
                if price >= prev if right is Right.CALL else price <= prev:
                    report.append(
                        Violation(
                            kind="monotonicity",
                            message=(
                                f"{right.value} {side} not strictly "
                                f"{direction} at strike {strike}"
                            ),
                            strike=strike,
                            right=right,
                        )
                    )
    return report


def select_series(
    chain: OptionChain, n: int, call_anchor: int, put_anchor: int
) -> SeriesSelection:
    """Pick n consecutive listed strikes per right, starting at each anchor.

    "Consecutive" means adjacent in the chain's listed ladder for that right,
    whatever the strike spacing. Every selected slot must quote both sides;
    otherwise a :class:`MarketDataError` names the gap.
    """
    if n <= 0:
        raise MarketDataError(f"series length must be positive: {n}")

    def pick(right: Right, anchor: int) -> tuple[OptionQuote, ...]:
        ladder = chain.ladder(right)
        listed = [q.strike for q in ladder]
        if anchor not in listed:
            raise MarketDataError(f"{right.value} anchor {anchor} not listed")
        start = listed.index(anchor)
        quotes = ladder[start : start + n]
        if len(quotes) < n:
            raise MarketDataError(
                f"only {len(quotes)} {right.value} strikes listed from "
                f"anchor {anchor}, need {n}"
            )
        for q in quotes:
            for side in ("ask", "bid"):
                if getattr(q, side) is None:
                    raise MarketDataError(
                        f"{right.value} {side} missing at strike {q.strike}"
                    )
        return quotes

    calls = pick(Right.CALL, call_anchor)
    puts = pick(Right.PUT, put_anchor)
    return SeriesSelection(
        n=n,
        call_strikes=tuple(q.strike for q in calls),
        put_strikes=tuple(q.strike for q in puts),
        call_asks=tuple(q.ask for q in calls),  # type: ignore[misc]
        call_bids=tuple(q.bid for q in calls),  # type: ignore[misc]
        put_asks=tuple(q.ask for q in puts),  # type: ignore[misc]
        put_bids=tuple(q.bid for q in puts),  # type: ignore[misc]
    )

"""Option-chain market data: parsing, validation, and series selection.

A chain is a snapshot of call and put quotes for one underlying and expiry.
Two interchangeable on-disk formats are supported:

* CSV: three ``key=value`` header lines (``underlying``, ``valuation``,
  ``expiry``), then one ``strike,right,bid,ask,volume`` record per line.
  An empty bid or ask field means that side is not quoted.
* JSON: an object with ``underlying_price``, ``valuation_date``,
  ``expiry_date`` and a ``quotes`` array of objects with the record fields;
  money may be a number or an exact decimal string, a missing side is null.

Quote-quality problems (crossed quotes, non-monotone price ladders) are data,
not failures: they are reported by :func:`validate_chain` and never block
parsing or selection.
"""

from __future__ import annotations

import datetime
import enum
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .money import MoneyError, format_money, is_digits, parse_money


class Right(enum.Enum):
    """Option right: call or put."""

    CALL = "call"
    PUT = "put"


class MarketDataError(ValueError):
    """Base class for chain parsing, schema, and selection failures."""


class ParseError(MarketDataError):
    """A record or field could not be decoded; the message names it."""


class SchemaError(MarketDataError):
    """The input is structurally unusable (missing header, no quotes, ...)."""


class DuplicateQuoteError(MarketDataError):
    """Two quotes share one (strike, right) key."""


class SelectionError(MarketDataError):
    """The requested strike series cannot be assembled from the chain."""


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
    """Immutable quote snapshot for one underlying and expiry."""

    underlying_price: int
    valuation_date: datetime.date
    expiry_date: datetime.date
    quotes: tuple[OptionQuote, ...]

    def __post_init__(self) -> None:
        if self.underlying_price <= 0:
            raise SchemaError(
                f"underlying price must be positive: {format_money(self.underlying_price)}"
            )
        if self.expiry_date < self.valuation_date:
            raise SchemaError(
                f"expiry {self.expiry_date} precedes valuation {self.valuation_date}"
            )
        seen: set[tuple[int, Right]] = set()
        for q in self.quotes:
            key = (q.strike, q.right)
            if key in seen:
                raise DuplicateQuoteError(
                    f"duplicate quote for strike {q.strike} {q.right.value}"
                )
            seen.add(key)

    @cached_property
    def _by_key(self) -> Mapping[tuple[int, Right], OptionQuote]:
        return {(q.strike, q.right): q for q in self.quotes}

    def quote(self, strike: int, right: Right) -> OptionQuote | None:
        return self._by_key.get((strike, right))

    def strikes(self, right: Right) -> tuple[int, ...]:
        """Sorted strikes that carry a quote of the given right."""
        return tuple(sorted(q.strike for q in self.quotes if q.right is right))


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


def _read_text(source: str | bytes) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"chain is not UTF-8 text: {exc}") from exc
    return source


def _parse_date(text: str, what: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"bad {what} date: {text!r}") from exc


def _parse_side(text: str, row: int, name: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        return parse_money(text)
    except MoneyError as exc:
        raise ParseError(f"row {row}: bad {name} {text!r}") from exc


def _parse_right(text: str) -> Right:
    try:
        return Right(text.strip().lower())
    except ValueError as exc:
        raise ParseError(f"bad right {text!r} (expected call or put)") from exc


def parse_chain(source: str | bytes, format: str = "csv") -> OptionChain:
    """Parse a chain from CSV or JSON text, or its UTF-8 bytes.

    Raises :class:`SchemaError` for a missing header field or an empty quote
    section, :class:`ParseError` for a malformed record (the message names the
    row and field), and :class:`DuplicateQuoteError` for a repeated
    (strike, right) pair.
    """
    text = _read_text(source)
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise ValueError(f"unknown chain format: {format!r}")


def _parse_csv(text: str) -> OptionChain:
    headers: dict[str, str] = {}
    quotes: list[OptionQuote] = []
    for row, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if eq and key.strip() in _HEADER_KEYS and "," not in key:
            if quotes:
                raise ParseError(f"row {row}: header {key.strip()!r} after records")
            headers[key.strip()] = value.strip()
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise ParseError(f"row {row}: expected 5 fields, got {len(fields)}")
        raw_strike, raw_right, raw_bid, raw_ask, raw_volume = fields
        if not is_digits(raw_strike):
            raise ParseError(f"row {row}: bad strike {raw_strike!r}")
        if not is_digits(raw_volume):
            raise ParseError(f"row {row}: bad volume {raw_volume!r}")
        try:
            right = _parse_right(raw_right)
        except ParseError as exc:
            raise ParseError(f"row {row}: {exc}") from None
        try:
            quotes.append(
                OptionQuote(
                    strike=int(raw_strike),
                    right=right,
                    bid=_parse_side(raw_bid, row, "bid"),
                    ask=_parse_side(raw_ask, row, "ask"),
                    volume=int(raw_volume),
                )
            )
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"row {row}: {exc}") from exc
    for key in _HEADER_KEYS:
        if key not in headers:
            raise SchemaError(f"missing header: {key}")
    if not quotes:
        raise SchemaError("no quotes")
    try:
        underlying = parse_money(headers["underlying"])
    except MoneyError as exc:
        raise ParseError(f"bad underlying {headers['underlying']!r}") from exc
    return OptionChain(
        underlying_price=underlying,
        valuation_date=_parse_date(headers["valuation"], "valuation"),
        expiry_date=_parse_date(headers["expiry"], "expiry"),
        quotes=tuple(quotes),
    )


def _json_count(item: dict, key: str, row: int) -> int:
    """A quote's strike or volume: a JSON integer, or a string of ASCII
    digits as in the CSV form; a fraction, a bool or other text is an error."""
    value = item[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and is_digits(value):
        return int(value)
    raise ParseError(f"quote {row}: bad {key} {value!r}")


def _parse_json(text: str) -> OptionChain:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("chain JSON must be an object")
    for key in ("underlying_price", "valuation_date", "expiry_date", "quotes"):
        if key not in data:
            raise SchemaError(f"missing header: {key}")
    raw_quotes = data["quotes"]
    if not isinstance(raw_quotes, list) or not raw_quotes:
        raise SchemaError("no quotes")
    quotes: list[OptionQuote] = []
    for row, item in enumerate(raw_quotes, start=1):
        if not isinstance(item, dict):
            raise ParseError(f"quote {row}: expected an object")
        try:
            bid = item.get("bid")
            ask = item.get("ask")
            quotes.append(
                OptionQuote(
                    strike=_json_count(item, "strike", row),
                    right=_parse_right(str(item["right"])),
                    bid=None if bid is None else parse_money(bid),
                    ask=None if ask is None else parse_money(ask),
                    volume=_json_count(item, "volume", row),
                )
            )
        except KeyError as exc:
            raise ParseError(f"quote {row}: missing field {exc.args[0]!r}") from exc
        except (MoneyError, TypeError) as exc:
            raise ParseError(f"quote {row}: {exc}") from exc
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"quote {row}: {exc}") from exc
    try:
        underlying = parse_money(data["underlying_price"])
    except MoneyError as exc:
        raise ParseError(f"bad underlying_price {data['underlying_price']!r}") from exc
    return OptionChain(
        underlying_price=underlying,
        valuation_date=_parse_date(str(data["valuation_date"]), "valuation"),
        expiry_date=_parse_date(str(data["expiry_date"]), "expiry"),
        quotes=tuple(quotes),
    )


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
        for side in ("ask", "bid"):
            ladder = [
                (s, getattr(chain.quote(s, right), side)) for s in chain.strikes(right)
            ]
            ladder = [(s, p) for s, p in ladder if p is not None]
            for (_, prev), (strike, price) in zip(ladder, ladder[1:]):
                bad = price >= prev if right is Right.CALL else price <= prev
                if bad:
                    direction = (
                        "decreasing" if right is Right.CALL else "increasing"
                    )
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
    otherwise a :class:`SelectionError` names the gap.
    """
    if n <= 0:
        raise SelectionError(f"series length must be positive: {n}")

    def pick(right: Right, anchor: int) -> list[OptionQuote]:
        listed = chain.strikes(right)
        if anchor not in listed:
            raise SelectionError(f"{right.value} anchor {anchor} not listed")
        start = listed.index(anchor)
        strikes = listed[start : start + n]
        if len(strikes) < n:
            raise SelectionError(
                f"only {len(strikes)} {right.value} strikes listed from "
                f"anchor {anchor}, need {n}"
            )
        out = []
        for s in strikes:
            q = chain.quote(s, right)
            assert q is not None
            for side in ("ask", "bid"):
                if getattr(q, side) is None:
                    raise SelectionError(f"{right.value} {side} missing at strike {s}")
            out.append(q)
        return out

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

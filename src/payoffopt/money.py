"""Exact money arithmetic on integer hundredths.

Every monetary amount in this package is an ``int`` counting hundredths of the
quote currency (cents). Strikes stay in plain index points; converting a strike
to money is a multiplication by :data:`CENTS`. Parsing rejects anything finer
than two decimal places so equality stays exact end to end.
"""

from __future__ import annotations

CENTS = 100


class MoneyError(ValueError):
    """Raised for text that does not denote an exact two-decimal amount."""


def parse_money(value: int | float | str) -> int:
    """Return ``value`` in integer cents.

    Accepts ints (whole currency units), two-decimal strings like ``"174.5"``
    or ``"-100.00"``, and floats whose shortest repr is such a string.
    """
    if isinstance(value, bool):
        raise MoneyError(f"not a money amount: {value!r}")
    if isinstance(value, int):
        return value * CENTS
    if isinstance(value, float):
        value = repr(value)
    if not isinstance(value, str):
        raise MoneyError(f"not a money amount: {value!r}")
    text = value.strip()
    sign = 1
    if text.startswith(("+", "-")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    whole, dot, frac = text.partition(".")
    if not is_digits(whole) or (dot and not is_digits(frac)):
        raise MoneyError(f"not a money amount: {value!r}")
    if len(frac) > 2:
        raise MoneyError(f"more than two decimal places: {value!r}")
    try:
        cents = int(whole) * CENTS + int(frac.ljust(2, "0"))
    except ValueError as exc:  # beyond Python's int-string digit limit
        raise MoneyError(f"amount has too many digits: {len(whole)}") from exc
    return sign * cents


def is_digits(text: str) -> bool:
    """True for a non-empty run of ASCII digits ``0``-``9`` only;
    :meth:`str.isdigit` also accepts ``"²"`` and other scripts' digits."""
    return text.isascii() and text.isdigit()


def format_money(cents: int, *, trim: bool = False) -> str:
    """Render cents as a decimal string, two places by default.

    With ``trim`` trailing zeros in the fraction are dropped (``700.00`` ->
    ``700``, ``174.50`` -> ``174.5``), matching tabular report style.
    """
    sign = "-" if cents < 0 else ""
    whole, frac = divmod(abs(cents), CENTS)
    if trim:
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:02d}".rstrip("0")
    return f"{sign}{whole}.{frac:02d}"

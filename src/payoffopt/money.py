"""Exact money arithmetic on integer hundredths.

Every monetary amount in this package is an ``int`` counting hundredths of the
quote currency (cents). Strikes stay in plain index points; converting a strike
to money is a multiplication by :data:`CENTS`. Parsing rejects anything finer
than two decimal places so equality stays exact end to end.
"""

from __future__ import annotations

import re

CENTS = 100

# an optional sign, ASCII digits, and optionally a point and more of them
_AMOUNT = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+))?")


def parse_money(value: int | float | str) -> int:
    """Return ``value`` in integer cents.

    Accepts ints (whole currency units), two-decimal strings like ``"174.5"``
    or ``"-100.00"``, and floats whose shortest repr is such a string; any
    other value raises :class:`ValueError`.
    """
    # errors show the value's repr: a string quoted, a float bare
    if isinstance(value, str):
        text = value
    elif isinstance(value, float):
        text = repr(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value * CENTS
    else:
        raise ValueError(f"not a money amount: {value!r}")
    match = _AMOUNT.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a money amount: {value!r}")
    sign, whole, frac = match.groups("")
    if len(frac) > 2:
        raise ValueError(f"more than two decimal places: {value!r}")
    try:
        cents = int(whole) * CENTS + int(frac.ljust(2, "0"))
    except ValueError as exc:  # beyond Python's int-string digit limit
        raise ValueError(f"amount has too many digits: {len(whole)}") from exc
    return -cents if sign == "-" else cents


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

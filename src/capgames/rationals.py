"""Strict parsing and rendering of exact rationals.

Only integer literals and p/q fractions are accepted; decimal notation is
rejected on purpose so no value ever passes through binary floating point.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import OutOfRange

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal into a Fraction.

    Raises ValueError for anything else, including decimals like "0.5".
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal (use p/q or an integer): {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(x: Fraction, decimal: bool = False) -> str:
    """Render a Fraction as "p/q" (bare integer when q == 1), or decimal on
    request; a decimal past float range, or a value with more digits than
    str() converts, raises ``OutOfRange``."""
    try:
        return repr(float(x)) if decimal else str(x)
    except (OverflowError, ValueError):
        what = " as a decimal" if decimal else ""
        raise OutOfRange(f"value too large to render{what}") from None


def spell(value, conv=str) -> str:
    """``conv(value)``; past the digits str() converts, an integer by its bit
    length, also in a Fraction, tuple or list, and anything else by its type."""
    try:
        return conv(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{value.bit_length()}-bit integer>"
        if isinstance(value, Fraction):
            den = "" if value.denominator == 1 else f"/{spell(value.denominator)}"
            return spell(value.numerator) + den
        if isinstance(value, (tuple, list)):
            inner = ", ".join(spell(v, conv) for v in value)
            return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
        return f"<{type(value).__name__}>"


def _is_boolean(value) -> bool:
    """A Python bool, or a numpy one (its dtype kind is "b"), without importing numpy."""
    return type(value) is not int and (
        isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", "") == "b")


def as_integer(value) -> int:
    """``operator.index`` that refuses booleans, as ``as_fraction`` does."""
    if _is_boolean(value):
        raise TypeError("booleans are not integers")
    return operator.index(value)


def as_fraction(value) -> Fraction:
    """Coerce Fractions, rational strings and whatever ``as_integer`` takes
    (numpy integers included) to Fraction; refuse floats and booleans."""
    if _is_boolean(value):
        raise TypeError("booleans are not rationals")
    if isinstance(value, str):
        return parse_rational(value)
    try:
        return value if isinstance(value, Fraction) else Fraction(as_integer(value))
    except TypeError:
        raise TypeError(f"expected an exact rational, got {type(value).__name__}") from None


def scaled(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values as exact integers over their common denominator: ``(ints,
    den)`` with ``ints[i] == values[i] * den`` and ``den`` the lcm of the
    values' denominators."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den

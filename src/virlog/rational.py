"""Exact rational scalars.

The scalar type is the stdlib Fraction: arbitrary precision, always in lowest
terms with positive denominator, and `str()` already renders the canonical
"p/q" (or "p" when q == 1).  This module adds the strict parser used at every
external boundary: only integer or p/q literals are accepted, never floats,
so no value in the package can silently pass through binary floating point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DomainError, ParseError

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; anything else raises ParseError."""
    if isinstance(text, Fraction):
        return text
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ParseError(f"not an exact rational literal: {text!r}")
    try:
        num = int(m.group(1))
        den = 1 if m.group(2) is None else int(m.group(2))
    except ValueError:
        # CPython refuses to convert strings of more digits than its limit
        digits = max(len(g.lstrip("+-")) for g in m.groups() if g)
        raise ParseError(
            f"rational literal of {digits} digits is above the limit {sys.get_int_max_str_digits()}"
        ) from None
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _integer(value, what: str) -> int:
    """value as an int.  A string or float that int() reads exactly passes;
    a bool, a value with a fractional part or a non-number is refused."""
    try:
        out = int(value)
    except (ValueError, OverflowError, TypeError) as exc:
        raise ParseError(f"{what} must be an integer: {exc}") from None
    if isinstance(value, bool) or (out != value and not isinstance(value, str)):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return out


def _too_long() -> DomainError:
    return DomainError(
        f"a result of more than {sys.get_int_max_str_digits()} digits cannot be printed"
    )


def render_rational(q: Fraction) -> str:
    # Fraction.__str__ is already the canonical form.
    try:
        return str(q)
    except ValueError:
        # CPython refuses to convert ints of more digits than its limit
        raise _too_long() from None


def require_printable(values) -> None:
    """Raise render_rational's error if one of the rationals in values
    certainly has more digits than it can print.  An int of bit length n
    is at least 2^(n-1), and 3 (n - 1) >= 10 d puts that above 10^d, so a
    value near the limit passes and is left to render_rational."""
    limit = sys.get_int_max_str_digits()
    if limit and any(3 * (max(q.numerator.bit_length(), q.denominator.bit_length()) - 1)
                     >= 10 * limit for q in values):
        raise _too_long()

"""Scalar helpers: the exact/float backend split, parsing and serialization.

Exact scalars are ``fractions.Fraction`` (plain ``int`` is accepted and
coerced).  Float scalars are Python ``float``.  Mixing the two kinds inside
one polynomial or matrix is an error everywhere in this package.  Fractions
are immutable, so the exact identities are shared module constants.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def kind_of(value):
    """Classify a scalar as EXACT or FLOAT."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return EXACT
    if isinstance(value, float):
        return FLOAT
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def zero(kind):
    """Additive identity of a backend (EXACT or FLOAT)."""
    return _ZERO if kind == EXACT else 0.0


def one(kind):
    """Multiplicative identity of a backend (EXACT or FLOAT)."""
    return _ONE if kind == EXACT else 1.0


def as_kind(value, kind):
    """A rational or float ``value`` as a scalar of backend ``kind``; an
    exact Fraction is returned as it is."""
    if kind == EXACT:
        return value if type(value) is Fraction else Fraction(value)
    return float(value)


def rounded(value):
    """The float nearest the rational ``value``, or an infinity of its sign
    where ``value`` passes the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def to_fraction(value) -> Fraction:
    """Parse an exact scalar: int, Fraction or a 'p/q' / 'p' string.

    A string with a zero denominator is a ValueError, like any other string
    that names no rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def scalar_to_json(value):
    """Fractions serialize as 'p/q' (or 'p' for integers); floats pass through."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return float(value)


def scalar_from_json(value):
    """Inverse of :func:`scalar_to_json`: strings are rationals, numbers floats."""
    if isinstance(value, str):
        return to_fraction(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    return float(value)


def sqrt_exact(value: Fraction):
    """Exact rational square root, or None when the value is not a perfect square."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


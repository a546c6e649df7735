"""Exact rational scalars.

A scalar is a plain ``int`` or a ``fractions.Fraction``; both are exact,
hash/compare equal when numerically equal, and interoperate in arithmetic.
Integers are preferred wherever possible because CPython int arithmetic is
an order of magnitude faster than Fraction arithmetic, which matters in the
identity-checking hot loops.  No floating point is used anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import NonassocError

Scalar = Union[int, Fraction]


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction or string like ``"p/q"`` to a canonical scalar."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return canonical(value)
    if isinstance(value, str):
        try:
            return canonical(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def canonical(x: Scalar) -> Scalar:
    """Collapse integral Fractions to int; pass everything else through."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def format_scalar(x: Scalar) -> str:
    """Render as ``"p"`` or ``"p/q"`` in lowest terms with positive q."""
    f = Fraction(x)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # an integer past Python's 4300-digit limit for str()
        raise NonassocError(f"cannot print an exact value: {exc}") from exc


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b as an exact rational (b nonzero)."""
    return canonical(Fraction(a) / Fraction(b))


def rational_sqrt(x: Scalar) -> Scalar | None:
    """The exact square root of x over the rationals, or None if there is none."""
    f = Fraction(x)
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return canonical(Fraction(rn, rd))
    return None

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
    if f.denominator == 1:
        return _decimal(f.numerator)
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


# 10^1000: a remainder below it prints within CPython's default limit of
# 4,300 digits per int-to-str conversion.
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """The exact decimal digits of ``n``, of any length.

    Past one chunk the digits are converted 1,000 at a time, low chunks
    zero-padded, so the interpreter's str() limit never applies and is
    never changed.
    """
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


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

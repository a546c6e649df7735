"""Exact rational scalars, polynomials over them in named parameters, and the
named kinds whose parameters are scalars.

A scalar is a plain ``int`` or a ``fractions.Fraction``; both are exact,
hash/compare equal when numerically equal, and interoperate in arithmetic.
Integers are preferred wherever possible because CPython int arithmetic is
an order of magnitude faster than Fraction arithmetic, which matters in the
identity-checking hot loops.  No floating point is used anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Sequence, Union

from .errors import MalformedPropertyError

Scalar = Union[int, Fraction]

# "p" or "p/q" in ASCII digits, with an optional sign and surrounding
# whitespace.  Fraction's own parser would also take decimals and exponents,
# and expands "1e99999999" digit by digit.
_SCALAR_TEXT = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction or string like ``"p/q"`` to a canonical scalar."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return canonical(value)
    if isinstance(value, str):
        match = _SCALAR_TEXT.fullmatch(value)
        if match:
            p, q = match.groups()
            try:
                return int(p) if q is None else canonical(Fraction(int(p), int(q)))
            except (ValueError, ZeroDivisionError):  # past int's digit limit, or q = 0
                pass
        raise ValueError(f"cannot parse scalar {value!r}")
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def bind(kind: str, names: Sequence[str], args: Sequence) -> dict:
    """``args`` keyed by ``names``: positional, or ``k=v`` strings that give
    each name once.  Only a string can be a ``k=v`` pair."""
    pairs = [arg.partition("=") if isinstance(arg, str) else (arg, "", "") for arg in args]
    if any(sep for _, sep, _ in pairs):
        keyed = {k.strip(): v.strip() for k, sep, v in pairs if sep}
        if len(keyed) != len(args) or set(keyed) != set(names):
            got = [a if isinstance(a, str) else format_scalar(a) for a in args]
            raise MalformedPropertyError(f"{kind} has parameters {list(names)}, got {got}")
        args = [keyed[name] for name in names]
    if len(args) != len(names):
        raise MalformedPropertyError(f"{kind} takes {len(names)} argument(s), got {len(args)}")
    return dict(zip(names, args))


class NamedKind:
    """A frozen dataclass ``(kind, *parameters)`` whose ``kind`` names a row
    of the class's ``KINDS`` table; ``WHAT`` says what a kind is.

    A row declares its scalar parameters as ``params`` (and, through a true
    ``unit``, an ambient unit element).  Construction checks that exactly
    the declared parameters are set and coerces each scalar one with
    ``as_scalar``, so a float, a bool or a malformed string fails here, not
    in a check.
    """

    KINDS: dict
    WHAT: str

    def __post_init__(self):
        row = self.row(self.kind)
        needs = ("kind",) + row.params + (("unit",) if getattr(row, "unit", False) else ())
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is None:
                if name in needs:
                    raise MalformedPropertyError(f"{self.kind} requires parameter {name}")
            elif name not in needs:
                raise MalformedPropertyError(f"{self.kind} takes no parameter {name}")
            elif name in row.params:
                try:
                    object.__setattr__(self, name, as_scalar(value))
                except (TypeError, ValueError) as exc:
                    raise MalformedPropertyError(f"bad argument for {self.kind}: {exc}") from exc

    @classmethod
    def row(cls, kind: str):
        """The table row of ``kind``."""
        if kind not in cls.KINDS:
            raise MalformedPropertyError(
                f"unknown {cls.WHAT} {kind!r}; choose from {', '.join(sorted(cls.KINDS))}"
            )
        return cls.KINDS[kind]

    @classmethod
    def parse(cls, kind: str, args: Sequence, **fixed):
        """The record of ``kind`` with ``args`` bound to its parameters by
        ``bind``; ``fixed`` gives the other fields as they are."""
        return cls(kind, **bind(kind, cls.row(kind).params, args), **fixed)

    def label(self) -> str:
        """``kind``, or ``kind(v1,v2)`` with the parameter values in row order."""
        params = self.KINDS[self.kind].params
        if not params:
            return self.kind
        return f"{self.kind}({','.join(format_scalar(getattr(self, n)) for n in params)})"


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
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return canonical(Fraction(a) / Fraction(b))


class Poly:
    """A sparse polynomial over Q in named parameters: the sum of its
    ``(monomial, coefficient)`` pairs.

    ``terms`` maps each monomial, the sorted tuple of its parameter names
    with each repeated by its exponent (x^2 y is ``("x", "x", "y")``), to its
    nonzero coefficient.  ``+``, ``-`` and ``*`` take Polys and scalars (``of``
    reads a scalar as a constant), and a Poly called at a point (parameter
    name -> scalar) evaluates exactly.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        terms: dict = {}
        for m, c in pairs:
            terms[m] = terms.get(m, 0) + c
        self.terms = {m: canonical(c) for m, c in terms.items() if c}

    @staticmethod
    def var(name: str) -> Poly:
        return Poly([((name,), 1)])

    @staticmethod
    def of(x) -> Poly:
        return x if isinstance(x, Poly) else Poly([((), as_scalar(x))])

    def __add__(self, other) -> Poly:
        return Poly([*self.terms.items(), *Poly.of(other).terms.items()])

    def __mul__(self, other) -> Poly:
        pairs = Poly.of(other).terms.items()
        return Poly((tuple(sorted(m + n)), c * d) for m, c in self.terms.items() for n, d in pairs)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> Poly:
        return self * -1

    def __sub__(self, other) -> Poly:
        return self + -Poly.of(other)

    def __rsub__(self, other) -> Poly:
        return -self + other

    def __call__(self, point) -> Scalar:
        total = 0
        for m, c in self.terms.items():
            for name in m:
                c *= point[name]
            total += c
        return total if type(total) is int else canonical(total)

    def __repr__(self) -> str:
        return f"Poly({list(self.terms.items())!r})"


def rational_sqrt(x: Scalar) -> Scalar | None:
    """The exact square root of x over the rationals, or None if there is none."""
    f = Fraction(x)
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return canonical(Fraction(rn, rd))
    return None

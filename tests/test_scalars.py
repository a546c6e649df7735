import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonassoc.errors import MalformedPropertyError
from nonassoc.scalars import (
    Poly,
    as_scalar,
    bind,
    canonical,
    exact_div,
    format_scalar,
    rational_sqrt,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def test_as_scalar_parses_strings():
    assert as_scalar("3") == 3
    assert as_scalar("-7/2") == Fraction(-7, 2)
    assert as_scalar("4/2") == 2 and isinstance(as_scalar("4/2"), int)
    assert as_scalar(" +3/6 ") == Fraction(1, 2)


def test_as_scalar_rejects_junk():
    with pytest.raises(ValueError):
        as_scalar("3/0")
    with pytest.raises(TypeError):
        as_scalar(1.5)
    with pytest.raises(TypeError):
        as_scalar(True)
    # only "p" or "p/q" in ASCII digits: Fraction would take all of these,
    # and would spend minutes expanding "1e99999999"
    for text in ("1e5", "1.5", "1_000", "\u0661\u0662", "1e99999999", "1/-2", "/2", ""):
        with pytest.raises(ValueError):
            as_scalar(text)


@given(rationals)
def test_format_roundtrip(q):
    assert as_scalar(format_scalar(q)) == q


@given(rationals)
def test_canonical_preserves_value(q):
    c = canonical(q)
    assert c == q
    if q.denominator == 1:
        assert isinstance(c, int)


def test_format_lowest_terms_positive_denominator():
    assert format_scalar(Fraction(4, -6)) == "-2/3"
    assert format_scalar(Fraction(0, 5)) == "0"


def test_format_prints_integers_past_the_str_limit():
    limit = sys.get_int_max_str_digits()
    assert format_scalar(10**5000) == "1" + "0" * 5000
    assert format_scalar(-(10**5000) - 7) == "-1" + "0" * 4999 + "7"
    # a zero chunk in the middle, and a chunk boundary exactly
    assert format_scalar(10**3000 * (10**1000 + 1)) == "1" + "0" * 999 + "1" + "0" * 3000
    assert format_scalar(10**1000) == "1" + "0" * 1000
    assert format_scalar(Fraction(10**5000 - 1, 7)) == "9" * 5000 + "/7"
    assert format_scalar(Fraction(-3, 10**5000 + 1)) == "-3/1" + "0" * 4999 + "1"
    assert sys.get_int_max_str_digits() == limit


def test_bind_reads_only_strings_as_pairs():
    """A non-string argument is positional and never turned into text."""
    big = 2**14300  # past CPython's int-to-text limit
    assert bind("k", ("lam", "beta"), [big, Fraction(1, 2)]) == {"lam": big, "beta": Fraction(1, 2)}
    assert bind("k", ("lam", "beta"), ["beta = 2", "lam=1"]) == {"lam": "1", "beta": "2"}
    for args in ([big, "beta=2"], ["lam=1", 2], ["lam=1", "lam=2"]):
        with pytest.raises(MalformedPropertyError):
            bind("k", ("lam", "beta"), args)


def test_exact_div():
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(Fraction(1, 2), Fraction(1, 4)) == 2


@given(rationals)
def test_rational_sqrt_of_squares(q):
    s = rational_sqrt(q * q)
    assert s is not None and s * s == q * q


def test_rational_sqrt_rejects_nonsquares():
    assert rational_sqrt(2) is None
    assert rational_sqrt(Fraction(1, 2)) is None
    assert rational_sqrt(-4) is None
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_poly_arithmetic_collects_and_drops_terms():
    x, y = Poly.var("x"), Poly.var("y")
    assert ((x + 1) * (x - 1)).terms == (x * x - 1).terms == {("x", "x"): 1, (): -1}
    assert (x * y - y * x).terms == {}
    assert (2 * x * y * x).terms == {("x", "x", "y"): 2}
    assert (x * Fraction(1, 2) * 2).terms == {("x",): 1}  # an int, not Fraction(1)
    assert (1 - x)({"x": Fraction(1, 3)}) == Fraction(2, 3)
    assert Poly.of(x) is x and Poly.of(3).terms == Poly([((), 1), ((), 2)]).terms == {(): 3}


_leaves = st.one_of(
    st.sampled_from("xyz"),
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
_expressions = st.recursive(
    _leaves, lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub), max_leaves=10
)


def _evaluate(expression, leaf):
    if isinstance(expression, tuple):
        op, left, right = expression
        left, right = _evaluate(left, leaf), _evaluate(right, leaf)
        return left + right if op == "+" else left - right if op == "-" else left * right
    return leaf(expression)


@given(_expressions, st.fixed_dictionaries({name: rationals for name in "xyz"}))
def test_poly_evaluates_as_the_same_expression_in_fractions(expression, point):
    poly = _evaluate(expression, lambda v: Poly.var(v) if isinstance(v, str) else v)
    expected = _evaluate(expression, lambda v: Fraction(point[v] if isinstance(v, str) else v))
    value = Poly.of(poly)(point)
    assert value == expected and type(value) is type(canonical(expected))

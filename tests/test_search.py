import random
from fractions import Fraction

import pytest

from nonassoc.algebra import (
    Element,
    element_from_matrix,
    induce_subalgebra,
    matrix_algebra,
    matrix_identity_element,
    matrix_unit,
)
from nonassoc.errors import MalformedPropertyError, SearchStrategyError
from nonassoc.operators import (
    OperatorProperty,
    check_operator_property,
    left_multiplication_operator,
)
from nonassoc.search import (
    GridStrategy,
    LinearConstraint,
    QuadraticConstraint,
    UnivariateStrategy,
    find_special,
    solve_linear,
    verify_element,
)
from test_algebra import E1, E2, E3


@pytest.fixture(scope="module")
def row_span():
    ambient = matrix_algebra(3)
    basis = [element_from_matrix(m) for m in (E1, E2, E3)]
    sub, emb = induce_subalgebra(ambient, basis)
    return ambient, sub, emb


@pytest.fixture(scope="module")
def column_plane():
    ambient = matrix_algebra(2)
    sub, emb = induce_subalgebra(ambient, [matrix_unit(2, 0, 1), matrix_unit(2, 1, 1)])
    return ambient, sub, emb


def test_solve_linear_right_identity_family(row_span):
    ambient, _, emb = row_span
    space = solve_linear(ambient, [
        LinearConstraint("right_identity", emb),
        LinearConstraint("stabilize", emb),
    ])
    assert not space.is_empty
    # regression value: the family has six free parameters
    assert space.dimension == 6
    # every member satisfies the constraints exactly, at random parameters
    rng = random.Random(2)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(6)]
        u = space.point(coeffs)
        checks = verify_element(emb, u, [
            LinearConstraint("right_identity", emb),
            LinearConstraint("stabilize", emb),
        ])
        assert all(v.passed for _, v in checks)


def test_solve_linear_annihilator_contains_negated_row_family(row_span):
    ambient, _, emb = row_span
    space = solve_linear(ambient, [LinearConstraint("right_annihilator", emb)])
    assert space.dimension == 6
    # the family with second row the negation of the first lies inside
    u = element_from_matrix([[2, 3, 5], [-2, -3, -5], [7, 11, 13]])
    checks = verify_element(emb, u, [LinearConstraint("right_annihilator", emb)])
    assert all(v.passed for _, v in checks)
    # and a generic member reproduces that shape: row2 = -row1
    w = space.point([1, 2, 3, 4, 5, 6])
    rows = [w.coords[0:3], w.coords[3:6], w.coords[6:9]]
    assert all(rows[1][j] == -rows[0][j] for j in range(3))


def test_solve_linear_contradiction_is_empty(row_span):
    ambient, _, emb = row_span
    space = solve_linear(ambient, [
        LinearConstraint("right_identity", emb),
        LinearConstraint("right_annihilator", emb),
    ])
    assert space.is_empty


def test_solve_linear_requires_constraints(row_span):
    ambient, _, _ = row_span
    with pytest.raises(MalformedPropertyError):
        solve_linear(ambient, [])


def test_find_special_grid_examples(column_plane):
    ambient, _, emb = column_plane
    lin = [LinearConstraint("stabilize", emb)]

    found = find_special(ambient, lin, QuadraticConstraint("nilpotent2"),
                         GridStrategy.of([(1, -1, 1, -1)]))
    assert list(found) == [element_from_matrix([[1, -1], [1, -1]])]

    found = find_special(ambient, lin, QuadraticConstraint("skew_idempotent"),
                         GridStrategy.of([(0, 1, 0, -1), (1, 1, 1, 1)]))
    assert list(found) == [element_from_matrix([[0, 1], [0, -1]])]

    quad = QuadraticConstraint("rb_weighted", lam=1, beta=2, unit=matrix_identity_element(2))
    found = find_special(ambient, lin, quad, GridStrategy.of([(0, 1, -2, -1)]))
    assert list(found) == [element_from_matrix([[0, 1], [-2, -1]])]


def test_find_special_grid_formula_admits_zero(column_plane):
    # the quadratic conditions are checked as formulas; the zero matrix
    # satisfies u^2 = 0 and is returned when the grid contains it
    ambient, _, emb = column_plane
    found = find_special(ambient, [LinearConstraint("stabilize", emb)],
                         QuadraticConstraint("nilpotent2"), GridStrategy.of([(0, 0, 0, 0)]))
    assert len(found) == 1 and found[0].is_zero()


def test_find_special_univariate_rational_roots(column_plane):
    ambient, _, emb = column_plane
    lin = [LinearConstraint("stabilize", emb)]
    # all four ambient directions free; pin all but E11: u = t E11, u^2 = u
    # forces t in {0, 1}
    uni = UnivariateStrategy.of({1: 0, 2: 0, 3: 0})
    found = find_special(ambient, lin, QuadraticConstraint("idempotent"), uni)
    assert sorted(tuple(e.coords) for e in found) == [(0, 0, 0, 0), (1, 0, 0, 0)]


def test_find_special_univariate_irrational_reported(column_plane):
    ambient, _, emb = column_plane
    lin = [LinearConstraint("stabilize", emb)]
    # u = t E11 with u^2 = 2 E11 has only irrational solutions t = +-sqrt(2);
    # encode u^2 - 2 E11 = 0 as rb_weighted with unit E11: u^2 + 0 u - 2 E11
    quad = QuadraticConstraint("rb_weighted", lam=0, beta=-2, unit=matrix_unit(2, 0, 0))
    result = find_special(ambient, lin, quad, UnivariateStrategy.of({1: 0, 2: 0, 3: 0}))
    assert len(result) == 0
    assert any("irrational" in note for note in result.notes)


def test_find_special_univariate_filters_roots_by_other_coordinates(column_plane):
    # line u(t) = E12 + t E11: the leading coordinate polynomial t^2 - t has
    # roots {0, 1}, but t = 0 violates the residual in the E12 coordinate
    # (u - u^2 keeps a bare E12 term), so only t = 1 survives
    ambient, _, emb = column_plane
    lin = [LinearConstraint("stabilize", emb)]
    uni = UnivariateStrategy.of({1: 1, 2: 0, 3: 0})
    found = find_special(ambient, lin, QuadraticConstraint("idempotent"), uni)
    assert [tuple(e.coords) for e in found] == [(1, 1, 0, 0)]


def test_find_special_univariate_rejects_two_free(column_plane):
    ambient, _, emb = column_plane
    with pytest.raises(SearchStrategyError):
        find_special(ambient, [LinearConstraint("stabilize", emb)],
                     QuadraticConstraint("idempotent"), UnivariateStrategy.of({1: 0, 2: 0}))


def test_find_special_univariate_checks_the_pin_range_first(column_plane):
    ambient, _, emb = column_plane
    with pytest.raises(SearchStrategyError, match="^pin index out of range$"):
        find_special(ambient, [LinearConstraint("stabilize", emb)],
                     QuadraticConstraint("idempotent"), UnivariateStrategy.of({9: 0}))


def test_find_special_univariate_detects_infinite_family(column_plane):
    # nilpotent2 along the direction E12 (inside the plane, square zero):
    # every t works, which the strategy must refuse to enumerate
    ambient, _, emb = column_plane
    with pytest.raises(SearchStrategyError):
        find_special(ambient, [LinearConstraint("stabilize", emb)],
                     QuadraticConstraint("nilpotent2"), UnivariateStrategy.of({0: 0, 2: 0, 3: 0}))


def test_quadratic_constraint_validation():
    unit = matrix_identity_element(2)
    with pytest.raises(MalformedPropertyError):
        QuadraticConstraint("idempotent", gamma=1)
    with pytest.raises(MalformedPropertyError):
        QuadraticConstraint("rb_weighted", lam=1, beta=2)   # missing unit
    with pytest.raises(MalformedPropertyError):
        QuadraticConstraint("idempotent", unit=unit)        # stray unit
    with pytest.raises(MalformedPropertyError):
        QuadraticConstraint("not_a_kind")
    for bad in (1.5, True):
        with pytest.raises(MalformedPropertyError):
            QuadraticConstraint("scaled", gamma=bad)
        with pytest.raises(MalformedPropertyError):
            QuadraticConstraint("rb_weighted", lam=1, beta=bad, unit=unit)
    assert QuadraticConstraint("scaled", gamma=6).label() == "scaled(6)"
    assert QuadraticConstraint("rb_weighted", lam=1, beta=2, unit=unit).label() == "rb_weighted(1,2)"
    half = QuadraticConstraint("scaled", gamma="1/2")
    assert half.gamma == Fraction(1, 2) and type(half.gamma) is Fraction
    assert half.label() == QuadraticConstraint("scaled", gamma=Fraction(1, 2)).label() == "scaled(1/2)"


def test_verify_element_itemized(row_span):
    ambient, _, emb = row_span
    # idempotent right identity of the F3 geometry transplanted here fails,
    # while the family member passes: itemization keeps them separate
    u = element_from_matrix([[1, 2, 2], [0, -1, -2], [0, 1, 2]])
    rows = verify_element(
        emb, u,
        [LinearConstraint("right_identity", emb), LinearConstraint("stabilize", emb)],
        QuadraticConstraint("idempotent"),
    )
    labels = [label for label, _ in rows]
    assert labels == ["right_identity", "stabilize", "idempotent"]
    assert all(v.passed for _, v in rows)

    zero = Element.zero(9)
    rows = verify_element(emb, zero, [LinearConstraint("right_identity", emb)])
    assert not rows[0][1].passed


def test_verify_element_scaled_rank_one(row_span):
    """u = (a,b,1)^T (1,beta,lam*beta) with a = -beta b satisfies u^2 = (lam beta) u."""
    ambient, _, _ = row_span
    a, b, beta, lam = -2, 1, 2, 3
    col = (a, b, 1)
    row = (1, beta, lam * beta)
    u = element_from_matrix([[c * r for r in row] for c in col])
    u2 = ambient.product(u, u)
    assert u2 == (lam * beta) * u  # oracle: rank-one factorization
    sub_basis = [element_from_matrix([[c * r for r in (1, 1, 1)] for c in col])]
    _, emb1 = induce_subalgebra(ambient, sub_basis)
    rows = verify_element(
        emb1, u,
        [LinearConstraint("right_annihilator", emb1), LinearConstraint("stabilize", emb1)],
        QuadraticConstraint("scaled", gamma=lam * beta),
    )
    assert all(v.passed for _, v in rows)


def test_found_elements_pass_verify_and_chain(row_span):
    """find_special output satisfies its constraints, and a right identity
    with u^2 = u induces a multiplicative idempotent operator."""
    ambient, sub, emb = row_span
    lin = [LinearConstraint("right_identity", emb), LinearConstraint("stabilize", emb)]
    space = solve_linear(ambient, lin)
    # the idempotent slice is thin; recover the affine coordinates of a known
    # idempotent member exactly and offer them on the grid among noise points
    from nonassoc.linalg import SpanSolver

    target = element_from_matrix([[1, 2, 2], [0, -1, -2], [0, 1, 2]])
    solver = SpanSolver([list(d.coords) for d in space.directions])
    coeffs = solver.coordinates(
        [a - b for a, b in zip(target.coords, space.offset.coords)]
    )
    assert coeffs is not None
    pts = [tuple(coeffs)]
    rng = random.Random(9)
    for _ in range(40):
        pts.append(tuple(rng.randint(-2, 2) for _ in range(space.dimension)))
    found = find_special(ambient, lin, QuadraticConstraint("idempotent"), GridStrategy.of(pts))
    assert len(found) >= 1
    for u in found:
        rows = verify_element(emb, u, lin, QuadraticConstraint("idempotent"))
        assert all(v.passed for _, v in rows)
        r = left_multiplication_operator(emb, u)
        assert check_operator_property(sub, r, OperatorProperty("endomorphism")).passed
        assert check_operator_property(sub, r, OperatorProperty("idempotent_op")).passed

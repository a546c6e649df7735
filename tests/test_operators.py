import itertools
import random
from fractions import Fraction

import pytest

from nonassoc.algebra import (
    Element,
    Embedding,
    element_from_matrix,
    induce_subalgebra,
    make_algebra,
    matrix_algebra,
    matrix_unit,
)
from nonassoc.errors import (
    DimensionMismatchError,
    ImageNotInSpanError,
    MalformedPropertyError,
)
from nonassoc.fixtures import list_fixtures, load_fixture, materialize
from nonassoc.linalg import SpanSolver
from nonassoc.operators import (
    LinearOperator,
    OperatorProperty,
    PROPERTY_KINDS,
    check_operator_property,
    left_multiplication_operator,
    make_operator,
)
from nonassoc.scalars import canonical
from nonassoc.verdicts import Verdict, Witness
from test_algebra import E1, E2, E3, mat_mul


def row_span_embedding():
    ambient = matrix_algebra(3)
    basis = [element_from_matrix(m) for m in (E1, E2, E3)]
    return induce_subalgebra(ambient, basis)


def test_make_operator_identity_and_zero(null2):
    sub, _ = row_span_embedding()
    ident = make_operator(sub, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert check_operator_property(sub, ident, OperatorProperty("endomorphism")).passed
    assert check_operator_property(sub, ident, OperatorProperty("idempotent_op")).passed

    zero = make_operator(null2, [[0, 0], [0, 0]])
    assert check_operator_property(null2, zero, OperatorProperty("derivation")).passed


def test_make_operator_dimension_check(null2):
    with pytest.raises(DimensionMismatchError):
        make_operator(null2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_left_mult_operator_matches_matrix_oracle():
    """R from u at b=2 must agree with exact ambient matrix products."""
    sub, emb = row_span_embedding()
    b = 2
    u = [[1, b, b], [0, 1 - b, -b], [0, b - 1, b]]
    r = left_multiplication_operator(emb, element_from_matrix(u))
    # oracle: multiply u against each basis matrix, re-express in the basis
    mats = [E1, E2, E3]
    for j, m in enumerate(mats):
        img = element_from_matrix(mat_mul(u, m))
        assert emb.to_ambient(r.columns[j]) == img
    assert r.columns[0] == Element((1, 0, 0))
    assert r.columns[1] == Element((2, -1, 1))
    assert r.columns[2] == Element((2, -2, 2))


def test_left_mult_operator_row_swap():
    """The involutive permutation swaps the second and third matrix rows."""
    ambient = matrix_algebra(3)
    basis = [
        element_from_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        element_from_matrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]]),
        element_from_matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
        element_from_matrix([[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
        element_from_matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
        element_from_matrix([[0, 0, 0], [0, 0, 0], [0, 1, 1]]),
    ]
    sub, emb = induce_subalgebra(ambient, basis)
    u = element_from_matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    r = left_multiplication_operator(emb, u)
    # basis order (x, y, w, k, m, n): swapping rows 2,3 exchanges w<->m, k<->n
    perm = {0: 0, 1: 1, 2: 4, 3: 5, 4: 2, 5: 3}
    for j, target in perm.items():
        assert r.columns[j] == Element.basis_vector(6, target)
    assert check_operator_property(sub, r, OperatorProperty("involution_op")).passed


def test_left_mult_operator_stays_defined_for_left_ideal():
    # the row span is a left ideal: even E13 and E23 induce valid operators
    _, emb = row_span_embedding()
    for u in (matrix_unit(3, 0, 2), matrix_unit(3, 1, 2)):
        r = left_multiplication_operator(emb, u)
        assert r.dim == 3


def test_left_mult_operator_escape_reports_residual():
    # the diagonal-block subalgebra is not a left ideal; E21 pushes e1 out
    ambient = matrix_algebra(3)
    basis = [
        element_from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        element_from_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        element_from_matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    ]
    _, emb = induce_subalgebra(ambient, basis)
    with pytest.raises(ImageNotInSpanError) as exc:
        left_multiplication_operator(emb, matrix_unit(3, 1, 0))
    assert exc.value.basis_index == 0
    assert any(v != 0 for v in exc.value.residual)


def test_compose_matches_u_squared():
    """R_u o R_u = R_{u^2} whenever both are defined."""
    rng = random.Random(11)
    ambient = matrix_algebra(3)
    _, emb = row_span_embedding()
    for _ in range(10):
        u = Element(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(9)))
        r_u = left_multiplication_operator(emb, u)
        u2 = ambient.product(u, u)
        r_u2 = left_multiplication_operator(emb, u2)
        assert LinearOperator(r_u.dim, tuple(r_u.apply(c) for c in r_u.columns)) == r_u2


def test_right_identity_idempotent_chain():
    """x u = x and u^2 = u make the induced operator idempotent and multiplicative."""
    sub, emb = row_span_embedding()
    for b in (0, 1, 2, 5, Fraction(1, 2)):
        u = element_from_matrix([
            [1, b, b],
            [0, 1 - b, -b],
            [0, b - 1, b],
        ])
        amb = emb.ambient
        assert amb.product(u, u) == u  # u^2 = u in the ambient
        r = left_multiplication_operator(emb, u)
        assert check_operator_property(sub, r, OperatorProperty("endomorphism")).passed
        assert check_operator_property(sub, r, OperatorProperty("idempotent_op")).passed


def test_property_param_validation():
    with pytest.raises(MalformedPropertyError):
        OperatorProperty("rota_baxter")                    # missing lam
    with pytest.raises(MalformedPropertyError):
        OperatorProperty("endomorphism", lam=1)            # stray param
    with pytest.raises(MalformedPropertyError):
        OperatorProperty("no_such_property")
    for bad in (1.5, True):
        with pytest.raises(MalformedPropertyError):
            OperatorProperty("rota_baxter", lam=bad)
        with pytest.raises(MalformedPropertyError):
            OperatorProperty("rota_baxter_weighted", lam=1, beta=bad)
    half = OperatorProperty("rota_baxter", lam="1/2")
    assert half.lam == Fraction(1, 2) and type(half.lam) is Fraction
    assert half.label() == "rota_baxter(1/2)"
    assert half == OperatorProperty("rota_baxter", lam=Fraction(1, 2))
    assert OperatorProperty("rota_baxter", lam=1).label() == "rota_baxter(1)"
    weighted = OperatorProperty("rota_baxter_weighted", lam=1, beta=Fraction(1, 2))
    assert weighted.label() == "rota_baxter_weighted(1,1/2)"
    assert OperatorProperty("scaled_idempotent_op", alpha=6).label() == "scaled_idempotent_op(6)"


def test_rb_weight0_example_and_perturbation():
    ambient = matrix_algebra(2)
    sub, emb = induce_subalgebra(ambient, [matrix_unit(2, 0, 1), matrix_unit(2, 1, 1)])
    u = element_from_matrix([[1, -1], [1, -1]])
    assert ambient.product(u, u).is_zero()  # u^2 = 0
    r = left_multiplication_operator(emb, u)
    assert check_operator_property(sub, r, OperatorProperty("rota_baxter", lam=0)).passed

    bumped = r + LinearOperator.identity(2)
    verdict = check_operator_property(sub, bumped, OperatorProperty("rota_baxter", lam=0))
    assert not verdict.passed
    # the witness reproduces the inequality when re-evaluated
    i, j = verdict.witness.indices
    x, y = sub.basis_vector(i), sub.basis_vector(j)
    lhs = sub.product(bumped.apply(x), bumped.apply(y))
    rhs = bumped.apply(
        sub.product(bumped.apply(x), y) + sub.product(x, bumped.apply(y))
    )
    assert lhs == verdict.witness.lhs and rhs == verdict.witness.rhs and lhs != rhs


def test_scaled_variants_distinguish():
    # R = 2 * identity: R^2 = 2 R and R^2 = 4 id, so both scaled kinds pass
    # with their own constants and fail with swapped ones
    a = make_algebra(2, [])
    r = make_operator(a, [[2, 0], [0, 2]])

    def holds(kind, alpha):
        return check_operator_property(a, r, OperatorProperty(kind, alpha=alpha)).passed

    assert holds("scaled_idempotent_op", 2) and holds("scaled_involution_op", 4)
    assert not holds("scaled_idempotent_op", 4) and not holds("scaled_involution_op", 2)


# ---------------------------------------------------------------------------
# Oracle: operator identities evaluated on elements, kind by kind
# ---------------------------------------------------------------------------

_ORACLE_UNARY = {"idempotent_op", "involution_op", "scaled_idempotent_op", "scaled_involution_op"}


def oracle_sides(a, r, p, x, y=None):
    """lhs and rhs of ``p`` at elements x (and y), by rational evaluation."""
    kind = p.kind
    rx = r.apply(x)
    if kind == "idempotent_op":
        return r.apply(rx), rx
    if kind == "involution_op":
        return r.apply(rx), x
    if kind == "scaled_idempotent_op":
        return r.apply(rx), p.alpha * rx
    if kind == "scaled_involution_op":
        return r.apply(rx), p.alpha * x
    ry = r.apply(y)
    if kind == "endomorphism":
        return a.product(rx, ry), r.apply(a.product(x, y))
    if kind == "derivation":
        return a.product(rx, y) + a.product(x, ry), r.apply(a.product(x, y))
    if kind == "left_averaging":
        return a.product(rx, ry), r.apply(a.product(rx, y))
    if kind == "rota_baxter":
        inner = a.product(rx, y) + a.product(x, ry) + p.lam * a.product(x, y)
        return a.product(rx, ry), r.apply(inner)
    if kind == "rota_baxter_weighted":
        inner = a.product(rx, y) + a.product(x, ry) + p.lam * a.product(x, y)
        return a.product(rx, ry), r.apply(inner) + p.beta * a.product(x, y)
    if kind == "rota_baxter0_mirrored":
        return r.apply(a.product(rx, y) + a.product(y, rx)), a.product(rx, ry)
    raise AssertionError(kind)


def oracle_verdict(a, r, p):
    """The first failing basis vector or pair, in lexicographic order."""
    arity = 1 if p.kind in _ORACLE_UNARY else 2
    for tup in itertools.product(range(a.dim), repeat=arity):
        elems = tuple(a.basis_vector(i) for i in tup)
        lhs, rhs = oracle_sides(a, r, p, *elems)
        if lhs != rhs:
            return Verdict.fail(Witness(tup, elems, lhs, rhs))
    return Verdict.ok()


def every_property(values):
    """Every kind, with each parameter running over ``values``."""
    for kind, spec in PROPERTY_KINDS.items():
        for combo in itertools.product(values, repeat=len(spec.params)):
            yield OperatorProperty(kind, **dict(zip(spec.params, combo)))


@pytest.mark.parametrize("prop", [
    OperatorProperty("endomorphism"), OperatorProperty("idempotent_op"),
    OperatorProperty("involution_op"), OperatorProperty("derivation"),
    OperatorProperty("scaled_idempotent_op", alpha=1),
    OperatorProperty("scaled_involution_op", alpha=1),
    OperatorProperty("rota_baxter", lam=0), OperatorProperty("rota_baxter", lam=1),
    OperatorProperty("rota_baxter_weighted", lam=1, beta=2),
    OperatorProperty("left_averaging"),
])
def test_basis_verdict_agrees_with_random_pairs(prop):
    """Linearity: the exact basis verdict matches 100 random exact samples."""
    sub, emb = row_span_embedding()
    u = element_from_matrix([[1, 2, 2], [0, -1, -2], [0, 1, 2]])
    r = left_multiplication_operator(emb, u)
    exact = check_operator_property(sub, r, prop).passed
    rng = random.Random(17)

    def element():
        return Element(tuple(
            canonical(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2)))) for _ in range(3)
        ))

    sampled = all(
        lhs == rhs
        for lhs, rhs in (oracle_sides(sub, r, prop, element(), element()) for _ in range(100))
    )
    assert exact == sampled


_VALUES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def test_table_covers_the_oracle_kinds():
    kinds = set(PROPERTY_KINDS)
    assert _ORACLE_UNARY <= kinds and len(kinds) == 10
    assert {k for k, spec in PROPERTY_KINDS.items() if spec.arity == 1} == _ORACLE_UNARY


def test_fixture_operators_match_oracle(all_materialized):
    """Every kind on every fixture algebra, with the fixture's operator and with
    R + I: the verdict, witness tuple, inputs and sides (coordinate types
    included, through repr) are those of kind-by-kind rational evaluation."""
    passed = failed = 0
    for m in all_materialized.values():
        ops = (m.operator, m.operator + LinearOperator.identity(m.operator.dim))
        for a in (m.algebras[name] for name in m.algebras):
            for r in ops:
                for prop in every_property(_VALUES):
                    verdict = check_operator_property(a, r, prop)
                    assert repr(verdict) == repr(oracle_verdict(a, r, prop)), (m.bundle.name, prop)
                    passed += verdict.passed
                    failed += not verdict.passed
    assert passed >= 100 and failed >= 1000


_BIG = (2, 3, 7, 12, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("denominators", [(1, 2, 3, 7, 12), _BIG], ids=["small", "big"])
def test_mixed_denominator_operators_match_oracle(dim, denominators):
    """Rational algebras, operators and coefficients, 0 included, with lcms of
    structure-constant, operator and coefficient denominators past 2^64."""
    from genalgebras import mixed_denominator_algebra

    rng = random.Random(1000 * dim + len(denominators))

    def scalar():
        return canonical(Fraction(rng.randint(-5, 5), rng.choice(denominators)))

    for _ in range(3):
        a = mixed_denominator_algebra(rng, dim, denominators)
        r = make_operator(a, [[scalar() for _ in range(dim)] for _ in range(dim)])
        diagonal = make_operator(a, [[scalar() if i == j else 0 for i in range(dim)]
                                     for j in range(dim)])
        values = (0, 1, scalar(), scalar(), Fraction(1, 2**61 - 1))
        for op in (r, r + LinearOperator.identity(dim), diagonal, LinearOperator.zero(dim)):
            for prop in every_property(values):
                verdict = check_operator_property(a, op, prop)
                assert repr(verdict) == repr(oracle_verdict(a, op, prop)), prop


def per_column_operator(emb, u):
    """Reference operator: one ambient product and one ``to_sub`` per basis vector."""
    cols = []
    for j, b in enumerate(emb.basis):
        img = emb.ambient.product(u, b)
        coords = emb.to_sub(img)
        if coords is None:
            raise ImageNotInSpanError(j, tuple(emb.residual(img).coords))
        cols.append(coords)
    return LinearOperator(emb.sub_dim, tuple(cols))


def assert_table_operator_matches(emb, u) -> bool:
    """The table path gives the reference's operator (repr-equal, and mapping
    each basis vector to its exact image) or its escape index and residual.
    True when the operator is defined."""
    try:
        expected = per_column_operator(emb, u)
    except ImageNotInSpanError as exc:
        with pytest.raises(ImageNotInSpanError) as got:
            left_multiplication_operator(emb, u)
        assert got.value.basis_index == exc.basis_index
        assert repr(got.value.residual) == repr(exc.residual)
        return False
    r = left_multiplication_operator(emb, u)
    assert repr(r) == repr(expected)
    for col, b in zip(r.columns, emb.basis):
        assert emb.to_ambient(col) == emb.ambient.product(u, b)
    return True


def test_table_operator_matches_per_column_on_fixture_grids():
    """Every grid point of every certified fixture row, every sample point, and
    the sample u plus each ambient basis vector (several leave the span)."""
    defined = escaped = 0
    for name in list_fixtures():
        bundle = load_fixture(name)
        axes = [p.axis for p in bundle.params] if bundle.certified_rows else []
        for combo in itertools.product(*axes):
            m = materialize(bundle, {p.name: v for p, v in zip(bundle.params, combo)})
            assert assert_table_operator_matches(m.embedding, m.u)
            defined += 1
        m = materialize(bundle)
        assert assert_table_operator_matches(m.embedding, m.u)
        for k in range(m.ambient.dim):
            if assert_table_operator_matches(m.embedding, m.u + m.ambient.basis_vector(k)):
                defined += 1
            else:
                escaped += 1
    assert defined > 1956 and escaped >= 10


@pytest.mark.parametrize("denominators", [(1, 2, 3, 7, 12), _BIG], ids=["small", "big"])
def test_table_operator_matches_per_column_on_rational_subspaces(denominators):
    """Mixed-denominator ambients with rational u: the Krylov subspace of
    x -> u x, which u stabilizes, and random subspaces, which u mostly leaves,
    with rational bases."""
    from genalgebras import mixed_denominator_algebra

    rng = random.Random(len(denominators))

    def vector(n):
        return Element(tuple(canonical(Fraction(rng.randint(-5, 5), rng.choice(denominators)))
                             for _ in range(n)))

    def independent_prefix(vectors):
        """The vectors up to the first one that depends on those before it."""
        basis = []
        for v in vectors:
            if not SpanSolver([list(b.coords) for b in basis + [v]]).independent:
                break
            basis.append(v)
        return basis

    defined = escaped = 0
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a = mixed_denominator_algebra(rng, n, denominators)
            u = vector(n)
            krylov = [vector(n)]
            while krylov[0].is_zero():
                krylov = [vector(n)]
            for _ in range(n - 1):
                krylov.append(a.product(u, krylov[-1]))
            stable = Embedding.build(a, independent_prefix(krylov))
            assert assert_table_operator_matches(stable, u)
            for basis in (independent_prefix([vector(n) for _ in range(rng.randint(1, n))]),
                          independent_prefix([vector(n) for _ in range(n)])):
                if not basis:
                    continue
                emb = Embedding.build(a, basis)
                for w in (u, u + vector(n), Element.zero(n)):
                    if assert_table_operator_matches(emb, w):
                        defined += 1
                    else:
                        escaped += 1
    assert defined >= 40 and escaped >= 10

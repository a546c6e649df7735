import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.algebra import (
    Element,
    Embedding,
    element_from_matrix,
    induce_subalgebra,
    is_associative,
    is_commutative,
    make_algebra,
    matrix_algebra,
    matrix_unit,
)
from nonassoc.constructions import construction, derive, hadamard_algebra
from nonassoc.errors import (
    DependentBasisError,
    DimensionMismatchError,
    DuplicateEntryError,
    SpanNotClosedError,
)
from nonassoc.scalars import canonical
from nonassoc.serial import algebra_content_hash, algebra_to_dict
from nonassoc.verdicts import Verdict, Witness

from genalgebras import algebra_from_table


def mat_mul(a, b):
    """Independent oracle: plain exact matrix multiplication."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


# matrices of the three-dimensional row-span subalgebra used across fixtures
E1 = [[1, 1, 0], [0, 0, 0], [0, 0, 0]]
E2 = [[0, 0, 0], [1, 1, 0], [0, 0, 0]]
E3 = [[0, 0, 0], [0, 0, 0], [1, 1, 0]]


def test_make_algebra_field_and_null():
    field = make_algebra(1, [(0, 0, 0, 1)])
    one = field.basis_vector(0)
    assert field.product(one, one) == one

    null = make_algebra(2, [])
    x = Element((1, 2))
    y = Element((3, Fraction(1, 2)))
    assert null.product(x, y).is_zero()


def test_make_algebra_f1_constants_match_matrix_oracle():
    # oracle: exact products of the defining 3x3 matrices
    mats = [E1, E2, E3]
    expected = {}
    for i, j in product(range(3), repeat=2):
        prod = mat_mul(mats[i], mats[j])
        coeffs = [0, 0, 0]
        for k, m in enumerate(mats):
            # each basis matrix has a single distinguished row; read it off
            r = k
            if prod[r][0] != 0:
                coeffs[k] = prod[r][0]
        expected[(i, j)] = tuple(coeffs)
        # confirm the readback actually reconstructs the product
        rebuilt = [[sum(coeffs[k] * mats[k][r][c] for k in range(3)) for c in range(3)]
                   for r in range(3)]
        assert rebuilt == prod

    entries = []
    for (i, j), coeffs in expected.items():
        for k, v in enumerate(coeffs):
            if v:
                entries.append((i, j, k, v))
    a = make_algebra(3, entries)
    assert is_associative(a).passed
    # spec of the family: e1 e1 = e1, e1 e2 = e1, e2 e1 = e2, e3 e1 = e3,
    # right factor e3 annihilates
    assert a.basis_product(0, 0) == a.basis_vector(0)
    assert a.basis_product(0, 1) == a.basis_vector(0)
    assert a.basis_product(1, 0) == a.basis_vector(1)
    assert a.basis_product(2, 0) == a.basis_vector(2)
    for i in range(3):
        assert a.basis_product(i, 2).is_zero()


def test_make_algebra_rejects_bad_entries():
    with pytest.raises(IndexError):
        make_algebra(2, [(0, 0, 2, 1)])
    with pytest.raises(DuplicateEntryError):
        make_algebra(2, [(0, 0, 0, 1), (0, 0, 0, 2)])
    # a zero entry is still an entry
    with pytest.raises(DuplicateEntryError):
        make_algebra(2, [(0, 0, 0, 0), (0, 0, 0, 1)])
    with pytest.raises(IndexError):
        make_algebra(2, [(0, 2, 0, 0)])
    with pytest.raises(ValueError):
        make_algebra(0, [])


def test_make_algebra_shares_one_tuple_among_empty_rows():
    a = make_algebra(5, [(1, 3, 2, 1), (3, 0, 0, Fraction(1, 2))])
    assert a.sparse_rows[0] is a.sparse_rows[2] is a.sparse_rows[4] == ((),) * 5
    assert a.sparse_rows[1] == ((), (), (), ((2, 1),), ())
    assert a.sparse_rows[3] == (((0, Fraction(1, 2)),), (), (), (), ())


def test_make_algebra_of_dim_10000_builds_in_bounded_memory():
    """The null algebra of dim 10^4 (10^8 cells) builds in a child process
    whose address space is capped at 512 MiB."""
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("from nonassoc.algebra import make_algebra\n"
             "a = make_algebra(10**4, [])\n"
             "print(a.dim, len(a.sparse_rows), a.sparse_rows[-1] == ((),) * 10**4)\n")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["10000", "10000", "True"]


def _stored_form_cases():
    from genalgebras import mixed_denominator_algebra

    rng = random.Random(29)
    return [("M3", matrix_algebra(3))] + [
        (f"mixed{n}", mixed_denominator_algebra(rng, n, (1, 2, 3, 7, 12))) for n in (1, 2, 3, 4)
    ]


def _same_algebra(a, b):
    assert a == b and hash(a) == hash(b)
    assert repr(a.sparse_rows) == repr(b.sparse_rows)
    assert algebra_to_dict(a) == algebra_to_dict(b)
    assert algebra_content_hash(a) == algebra_content_hash(b)


@pytest.mark.parametrize("name, a", _stored_form_cases())
def test_sparse_rows_are_the_stored_form(name, a):
    for row in a.sparse_rows:
        for entries in row:
            ks = [k for k, _ in entries]
            assert ks == sorted(set(ks)) and all(c != 0 for _, c in entries)
    # every slot given once, shuffled, the zero ones in three spellings
    rng = random.Random(name)
    zeros = (0, Fraction(0), "0/7")
    entries = [
        (i, j, k, c if c != 0 else rng.choice(zeros))
        for i in range(a.dim) for j in range(a.dim) for k, c in enumerate(a.sc[i][j])
    ]
    rng.shuffle(entries)
    _same_algebra(make_algebra(a.dim, entries, a.basis_labels), a)
    _same_algebra(algebra_from_table(a.dim, a.sc, a.basis_labels), a)
    i, j, k, _ = entries[0]
    bumped = [(i, j, k, a.sc[i][j][k] + 1)] + entries[1:]
    assert make_algebra(a.dim, bumped) != a


@pytest.mark.parametrize("name, a", _stored_form_cases())
def test_basis_products_read_the_dense_view(name, a):
    sc = a.sc
    for i, j in product(range(a.dim), repeat=2):
        assert repr(a.basis_product(i, j).coords) == repr(sc[i][j])


def test_matrix_algebra_delta_rule():
    m1 = matrix_algebra(1)
    assert m1.dim == 1
    assert m1.basis_product(0, 0) == m1.basis_vector(0)

    m2 = matrix_algebra(2)
    assert m2.dim == 4
    # E12 E21 = E11 by the delta rule
    assert m2.product(matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)) == matrix_unit(2, 0, 0)
    # oracle: full delta-rule table
    for i, j, k, l in product(range(2), repeat=4):
        got = m2.product(matrix_unit(2, i, j), matrix_unit(2, k, l))
        expected = matrix_unit(2, i, l) if j == k else Element.zero(4)
        assert got == expected


def test_matrix_algebra_m3_associative():
    assert is_associative(matrix_algebra(3)).passed


def test_multiply_examples():
    null = make_algebra(2, [])
    assert null.product(Element((5, 7)), Element((Fraction(1, 3), 2))).is_zero()

    ambient = matrix_algebra(3)
    sub, emb = induce_subalgebra(
        ambient, [element_from_matrix(m) for m in (E1, E2, E3)]
    )
    # fixture product e1 e2 = e1 matches the matrix oracle (E11+E12)(E21+E22)
    oracle = mat_mul(E1, E2)
    assert oracle == E1
    assert sub.product(sub.basis_vector(0), sub.basis_vector(1)) == sub.basis_vector(0)

    m2 = matrix_algebra(2)
    assert m2.product(matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)) == matrix_unit(2, 0, 1)


def test_multiply_dimension_mismatch():
    null = make_algebra(2, [])
    with pytest.raises(DimensionMismatchError):
        null.product(Element((1,)), Element((1, 2)))


def test_induce_subalgebra_f1_constants():
    ambient = matrix_algebra(3)
    sub, emb = induce_subalgebra(
        ambient, [element_from_matrix(m) for m in (E1, E2, E3)]
    )
    mats = [E1, E2, E3]
    for i, j in product(range(3), repeat=2):
        lifted = emb.to_ambient(sub.basis_product(i, j))
        oracle = element_from_matrix(mat_mul(mats[i], mats[j]))
        assert lifted == oracle


def test_induce_subalgebra_column_plane():
    ambient = matrix_algebra(2)
    basis = [matrix_unit(2, 0, 1), matrix_unit(2, 1, 1)]  # E12, E22
    sub, emb = induce_subalgebra(ambient, basis)
    assert sub.basis_product(0, 1) == sub.basis_vector(0)   # E12 E22 = E12
    assert sub.basis_product(1, 1) == sub.basis_vector(1)   # E22 E22 = E22
    assert sub.basis_product(0, 0).is_zero()
    assert sub.basis_product(1, 0).is_zero()


def test_induce_subalgebra_closed_e11_e12():
    # {E11, E12} is closed: E11 E12 = E12, E12 E11 = 0, E12 E12 = 0
    ambient = matrix_algebra(2)
    sub, _ = induce_subalgebra(ambient, [matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)])
    assert sub.basis_product(0, 1) == sub.basis_vector(1)
    assert sub.basis_product(1, 0).is_zero()


def test_induce_subalgebra_not_closed():
    # (E12 + E21)^2 = E11 + E22 escapes the span
    ambient = matrix_algebra(2)
    v = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
    with pytest.raises(SpanNotClosedError) as exc:
        induce_subalgebra(ambient, [v])
    assert exc.value.pair == (0, 0)
    assert any(x != 0 for x in exc.value.residual)


def test_induce_subalgebra_dependent_basis():
    ambient = matrix_algebra(2)
    with pytest.raises(DependentBasisError):
        induce_subalgebra(ambient, [matrix_unit(2, 0, 0), 2 * matrix_unit(2, 0, 0)])


def test_is_associative_examples(m3, null2):
    assert is_associative(m3).passed
    assert is_associative(null2).passed

    # the symmetrized product on the F3 algebra is not associative
    mats = [
        [[1, -1, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [1, -1, 1], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [1, -1, 1]],
    ]
    sub, _ = induce_subalgebra(matrix_algebra(3), [element_from_matrix(m) for m in mats])
    plus = derive(sub, None, construction("jordan_plus"))
    verdict = is_associative(plus)
    assert not verdict.passed
    i, j, k = verdict.witness.indices
    lhs = plus.product(plus.basis_product(i, j), plus.basis_vector(k))
    rhs = plus.product(plus.basis_vector(i), plus.basis_product(j, k))
    assert lhs == verdict.witness.lhs and rhs == verdict.witness.rhs and lhs != rhs


def test_is_commutative_examples():
    assert is_commutative(hadamard_algebra(2, 2)).passed
    assert is_commutative(make_algebra(1, [(0, 0, 0, Fraction(2, 3))])).passed

    ambient = matrix_algebra(3)
    sub, _ = induce_subalgebra(ambient, [element_from_matrix(m) for m in (E1, E2, E3)])
    verdict = is_commutative(sub)
    assert not verdict.passed
    assert verdict.witness.indices == (0, 1)
    assert verdict.witness.lhs == sub.basis_vector(0)  # e1 e2 = e1
    assert verdict.witness.rhs == sub.basis_vector(1)  # e2 e1 = e2


def oracle_associativity(a):
    """(e_i e_j) e_k against e_i (e_j e_k), triples in lexicographic order."""
    for i, j, k in product(range(a.dim), repeat=3):
        left = a.product(a.basis_product(i, j), a.basis_vector(k))
        right = a.product(a.basis_vector(i), a.basis_product(j, k))
        if left != right:
            inputs = (a.basis_vector(i), a.basis_vector(j), a.basis_vector(k))
            return Verdict.fail(Witness((i, j, k), inputs, left, right))
    return Verdict.ok()


def oracle_commutativity(a):
    """e_i e_j against e_j e_i over pairs i < j in lexicographic order."""
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            left, right = a.basis_product(i, j), a.basis_product(j, i)
            if left != right:
                inputs = (a.basis_vector(i), a.basis_vector(j))
                return Verdict.fail(Witness((i, j), inputs, left, right))
    return Verdict.ok()


def test_axiom_predicates_match_basis_loops(all_materialized):
    """is_associative/is_commutative give the verdicts and witnesses (through
    repr, coordinate types included) of plain basis loops."""
    from genalgebras import mixed_denominator_algebra

    algebras = [m.algebras[name] for m in all_materialized.values() for name in m.algebras]
    rng = random.Random(5)
    for dim in (1, 2, 3, 4):
        for denominators in ((1, 2, 3), (2, 7, 2**31 - 1, 2**61 - 1)):
            a = mixed_denominator_algebra(rng, dim, denominators)
            algebras += [a, derive(a, None, construction("jordan_plus"))]
    outcomes = set()
    for a in algebras:
        for predicate, oracle in ((is_associative, oracle_associativity),
                                  (is_commutative, oracle_commutativity)):
            verdict = predicate(a)
            assert repr(verdict) == repr(oracle(a))
            outcomes.add((predicate, verdict.passed))
    assert len(outcomes) == 4


small_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4),
)


@given(
    st.lists(small_scalars, min_size=3, max_size=3),
    st.lists(small_scalars, min_size=3, max_size=3),
    st.lists(small_scalars, min_size=3, max_size=3),
    small_scalars,
    small_scalars,
)
@settings(max_examples=50)
def test_multiply_bilinear(xs, xs2, ys, alpha, beta):
    mats = [E1, E2, E3]
    sub, _ = induce_subalgebra(matrix_algebra(3), [element_from_matrix(m) for m in mats])
    x, x2, y = Element(tuple(xs)), Element(tuple(xs2)), Element(tuple(ys))
    combo = alpha * x + beta * x2
    left = sub.product(combo, y)
    right = alpha * sub.product(x, y) + beta * sub.product(x2, y)
    assert left == right
    # and in the right argument
    assert sub.product(y, combo) == alpha * sub.product(y, x) + beta * sub.product(y, x2)


def dense_sub_rows(emb):
    """``induce_subalgebra``'s rows from one dense ambient product and ``to_sub``
    per entry, zeros dropped."""
    amb = emb.ambient
    return tuple(
        tuple(
            tuple((k, c) for k, c in enumerate(emb.to_sub(amb.product(x, y)).coords) if c != 0)
            for y in emb.basis
        )
        for x in emb.basis
    )


def test_embedding_roundtrip_products(all_materialized):
    from genalgebras import mixed_denominator_algebra, rota_baxter_setup

    rng = random.Random(7)
    ambient = matrix_algebra(3)
    embeddings = [Embedding.build(ambient, [element_from_matrix(m) for m in (E1, E2, E3)])]
    embeddings += [m.embedding for m in all_materialized.values()]
    embeddings += [rota_baxter_setup(rng, w)[2] for w in ("one", "zero", "weighted") * 2]
    # rational constants in a rational basis of the whole space, which is closed
    for n in (2, 3, 4):
        amb = mixed_denominator_algebra(rng, n, (1, 2, 3, 7))
        while True:
            basis = [
                Element(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)))
                for _ in range(n)
            ]
            try:
                embeddings.append(Embedding.build(amb, basis))
                break
            except DependentBasisError:
                pass
    assert len(embeddings) == 1 + 13 + 6 + 3
    for emb in embeddings:
        sub, got = induce_subalgebra(emb.ambient, emb.basis)
        assert got.basis == emb.basis
        assert repr(sub.sparse_rows) == repr(dense_sub_rows(emb))
        assert sub.meta == {"kind": "subalgebra", "ambient_dim": emb.ambient.dim}
        k = sub.dim
        for _ in range(30):
            x = Element(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)))
            y = Element(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)))
            inside = emb.to_ambient(sub.product(x, y))
            outside = emb.ambient.product(emb.to_ambient(x), emb.to_ambient(y))
            assert inside == outside


def dense_left_table(emb):
    """``Embedding.left_table`` from one dense ambient product e_k b_j per entry."""
    amb, transform = emb.ambient, emb._solver.transform
    return tuple(
        tuple(
            tuple((r, canonical(s)) for r, s in enumerate(transform(amb.product(e, b).coords)) if s)
            for e in amb.basis()
        )
        for b in emb.basis
    )


def test_left_table_matches_dense_products(all_materialized):
    from genalgebras import mixed_denominator_algebra, rota_baxter_setup

    embeddings = [m.embedding for m in all_materialized.values()]
    assert len(embeddings) == 13
    rng = random.Random(11)
    embeddings += [rota_baxter_setup(rng, w)[2] for w in ("one", "zero", "weighted") * 2]
    # rational constants and a rational basis; left_table needs no closure
    for n in (2, 3, 4):
        ambient = mixed_denominator_algebra(rng, n, (1, 2, 3, 7))
        while True:
            basis = [
                Element(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)))
                for _ in range(n - 1)
            ]
            try:
                embeddings.append(Embedding.build(ambient, basis))
                break
            except DependentBasisError:
                pass
    for emb in embeddings:
        dense = dense_left_table(emb)
        assert emb.left_table == dense and repr(emb.left_table) == repr(dense)


def test_is_associative_matches_random_triples():
    rng = random.Random(3)
    mats = [E1, E2, E3]
    sub, _ = induce_subalgebra(matrix_algebra(3), [element_from_matrix(m) for m in mats])
    plus = derive(sub, None, construction("jordan_plus"))
    for algebra in (sub, plus):
        basis_verdict = is_associative(algebra).passed
        disagree = False
        for _ in range(100):
            x, y, z = (
                Element(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(3)))
                for _ in range(3)
            )
            lhs = algebra.product(algebra.product(x, y), z)
            rhs = algebra.product(x, algebra.product(y, z))
            if lhs != rhs:
                disagree = True
                break
        assert basis_verdict == (not disagree)

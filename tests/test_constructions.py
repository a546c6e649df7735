import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import serial
from nonassoc.algebra import (
    Element,
    element_from_matrix,
    induce_subalgebra,
    is_associative,
    is_commutative,
    make_algebra,
    matrix_algebra,
    matrix_unit,
)
from nonassoc.constructions import (
    CATALOG,
    ConstructionSpec,
    construction,
    derive,
    hadamard_algebra,
)
from nonassoc.errors import MalformedPropertyError
from nonassoc.identities import IDENTITY_NAMES, check_identity
from nonassoc.operators import LinearOperator, OperatorProperty, make_operator
from nonassoc.scalars import canonical
from nonassoc.serial import algebra_content_hash, operator_content_hash

from genalgebras import algebra_from_table


def test_catalog_complete():
    assert set(CATALOG) == {
        "commutator", "lie_endo", "lie_endo_alt", "jordan_plus",
        "jordan_endo_left", "jordan_endo_right", "jordan_endo_both",
        "leibniz_comm", "leibniz_endo", "prelie_endo", "prelie_endo_alt",
        "prelie_diff", "novikov_affine", "prelie_rb1", "flexible_avg",
    }


def test_spec_validation():
    with pytest.raises(MalformedPropertyError):
        ConstructionSpec("unknown_thing")
    with pytest.raises(MalformedPropertyError):
        ConstructionSpec("novikov_affine")          # missing a
    with pytest.raises(MalformedPropertyError):
        ConstructionSpec("commutator", a=1)         # stray a
    for bad in (1.5, True):
        with pytest.raises(MalformedPropertyError):
            ConstructionSpec("novikov_affine", a=bad)
    half = ConstructionSpec("novikov_affine", a="1/2")
    assert half.a == Fraction(1, 2) and type(half.a) is Fraction
    assert half.label() == construction("novikov_affine", Fraction(1, 2)).label()
    assert half.label() == "novikov_affine(1/2)"
    assert derive(matrix_algebra(1), LinearOperator.identity(1), half).meta["a"] == Fraction(1, 2)
    with pytest.raises(MalformedPropertyError):
        derive(matrix_algebra(2), None, construction("lie_endo"))  # operator required


def test_commutator_on_m2():
    m2 = matrix_algebra(2)
    comm = derive(m2, None, construction("commutator"))
    e11, e12 = 0, 1  # row-major indices of E11, E12
    assert comm.basis_product(e11, e12) == matrix_unit(2, 0, 1)   # [E11, E12] = E12
    assert check_identity(comm, "antisymmetry").passed
    assert check_identity(comm, "jacobi").passed
    assert comm.meta["construction"] == "commutator"
    assert "source" in comm.meta


def test_jordan_plus_on_f3_algebra():
    mats = [
        [[1, -1, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [1, -1, 1], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [1, -1, 1]],
    ]
    sub, _ = induce_subalgebra(matrix_algebra(3), [element_from_matrix(m) for m in mats])
    plus = derive(sub, None, construction("jordan_plus"))
    assert is_commutative(plus).passed
    assert not is_associative(plus).passed
    # symmetrization is the sum of both orders
    for i in range(3):
        for j in range(3):
            assert plus.basis_product(i, j) == (
                sub.basis_product(i, j) + sub.basis_product(j, i)
            )


def test_lie_endo_structure_constants_antisymmetric(f1b_materialized):
    m = f1b_materialized
    lie = m.algebras["lie"]
    for i in range(lie.dim):
        for j in range(lie.dim):
            assert lie.basis_product(i, j) == -lie.basis_product(j, i)


def test_lie_endo_formula(f1b_materialized):
    m = f1b_materialized
    a, r, lie = m.algebras["A"], m.operator, m.algebras["lie"]
    for i in range(a.dim):
        for j in range(a.dim):
            x, y = a.basis_vector(i), a.basis_vector(j)
            expected = a.product(x, r.apply(y)) - a.product(y, r.apply(x))
            assert lie.basis_product(i, j) == expected


def test_prelie_rb1_with_zero_operator_is_negated_product():
    m2 = matrix_algebra(2)
    zero = LinearOperator.zero(4)
    twisted = derive(m2, zero, construction("prelie_rb1"))
    for i in range(4):
        for j in range(4):
            assert twisted.basis_product(i, j) == -m2.basis_product(i, j)
    # the negation of an associative product is left pre-Lie
    assert check_identity(twisted, "left_prelie").passed


def test_novikov_affine_requires_param_and_uses_it():
    a = make_algebra(2, [(i, i, i, 1) for i in range(2)])  # entrywise plane
    d = LinearOperator.zero(2)
    for scale in (0, 1, Fraction(-2, 3)):
        nov = derive(a, d, construction("novikov_affine", a=scale))
        for i in range(2):
            for j in range(2):
                assert nov.basis_product(i, j) == scale * a.basis_product(i, j)


def test_hadamard_examples():
    h22 = hadamard_algebra(2, 2)
    assert h22.dim == 4
    assert is_commutative(h22).passed and is_associative(h22).passed
    ones = Element((1, 1, 1, 1))
    for i in range(4):
        assert h22.product(ones, h22.basis_vector(i)) == h22.basis_vector(i)
        assert h22.product(h22.basis_vector(i), ones) == h22.basis_vector(i)

    h11 = hadamard_algebra(1, 1)
    assert h11.dim == 1 and h11.basis_product(0, 0) == h11.basis_vector(0)

    h21 = hadamard_algebra(2, 1)
    assert h21.dim == 2
    assert h21.basis_product(0, 0) == h21.basis_vector(0)
    assert h21.basis_product(0, 1).is_zero()

    with pytest.raises(ValueError):
        hadamard_algebra(0, 1)


def test_derived_metadata_provenance(f1b_materialized):
    m = f1b_materialized
    lie = m.algebras["lie"]
    assert set(lie.meta) >= {"construction", "source", "operator"}


def test_jordan_chain_from_operator_on_associative_source():
    """An associative algebra with a multiplicative idempotent operator yields
    Jordan structures under all three operator-twisted products.

    The associativity hypothesis is load-bearing: see the companion
    counterexample test for a Jordan-but-not-associative source where the
    chain breaks.
    """
    import random

    from genalgebras import entrywise_algebra_with_retraction, row_algebra_with_projection
    from nonassoc.algebra import is_associative
    from nonassoc.operators import OperatorProperty, check_operator_property

    for i in range(20):
        rng = random.Random(900 + i)
        n = (2, 3, 4)[i % 3]
        if i % 2 == 0:
            a, r = row_algebra_with_projection(rng, n)
        else:
            a, r = entrywise_algebra_with_retraction(rng, n)
        assert is_associative(a).passed
        assert check_operator_property(a, r, OperatorProperty("endomorphism")).passed
        assert check_operator_property(a, r, OperatorProperty("idempotent_op")).passed
        # symmetrization of an associative product is always Jordan
        plus = derive(a, None, construction("jordan_plus"))
        assert check_identity(plus, "jordan_main").passed
        assert check_identity(plus, "jordan_flex").passed
        for name in ("jordan_endo_left", "jordan_endo_right", "jordan_endo_both"):
            twisted = derive(a, r, construction(name))
            assert check_identity(twisted, "jordan_main").passed, (i, name)
            assert check_identity(twisted, "jordan_flex").passed, (i, name)


def test_jordan_hypothesis_alone_is_not_enough():
    """Known-answer counterexample: a Jordan (non-associative) source algebra
    with a multiplicative idempotent operator whose left-twisted product
    violates the main Jordan identity.

    Exactly verified both by the polarized engine and by raw random
    evaluation, so the associativity hypothesis in the chain above cannot
    be weakened to "Jordan".  Specific worked examples (the F3/F3b
    fixtures) do satisfy the chain through the symmetrized product; this
    shows they rely on more than the Jordan property.
    """
    import random

    from genalgebras import row_algebra_with_projection
    from nonassoc.algebra import is_associative
    from nonassoc.identities import check_identity_random
    from nonassoc.operators import OperatorProperty, check_operator_property

    rng = random.Random(800)
    a, r = row_algebra_with_projection(rng, 2)
    plus = derive(a, None, construction("jordan_plus"))
    assert check_identity(plus, "jordan_main").passed
    assert check_identity(plus, "jordan_flex").passed
    assert not is_associative(plus).passed
    assert check_operator_property(plus, r, OperatorProperty("endomorphism")).passed
    assert check_operator_property(plus, r, OperatorProperty("idempotent_op")).passed

    twisted = derive(plus, r, construction("jordan_endo_left"))
    verdict = check_identity(twisted, "jordan_main")
    assert not verdict.passed
    # corroborated on the raw identity at random elements
    assert not check_identity_random(twisted, "jordan_main", 200, 0).passed


def test_all_operator_constructions_run(f1b_materialized):
    m = f1b_materialized
    a, r = m.algebras["A"], m.operator
    for name, cons in CATALOG.items():
        spec = construction(name, a=Fraction(1, 2) if "a" in cons.params else None)
        out = derive(a, r if cons.needs_operator else None, spec)
        assert out.dim == a.dim


# The catalog as it was written before it became words: one product function
# per construction, called as fn(mul, R, a, x, y), with its needs_operator and
# needs_a flags.  ``derive`` must reproduce it exactly.
_ORACLE = {
    "commutator": (False, False, lambda mul, r, a, x, y: mul(x, y) - mul(y, x)),
    "lie_endo": (True, False, lambda mul, r, a, x, y: mul(x, r(y)) - mul(y, r(x))),
    "lie_endo_alt": (True, False, lambda mul, r, a, x, y: mul(r(x), y) - mul(r(y), x)),
    "jordan_plus": (False, False, lambda mul, r, a, x, y: mul(x, y) + mul(y, x)),
    "jordan_endo_left": (True, False, lambda mul, r, a, x, y: mul(r(x), y)),
    "jordan_endo_right": (True, False, lambda mul, r, a, x, y: mul(x, r(y))),
    "jordan_endo_both": (True, False, lambda mul, r, a, x, y: mul(r(x), r(y))),
    "leibniz_comm": (True, False, lambda mul, r, a, x, y: mul(r(x), y) - mul(y, r(x))),
    "leibniz_endo": (True, False, lambda mul, r, a, x, y: mul(r(x), y) - mul(r(y), r(x))),
    "prelie_endo": (True, False, lambda mul, r, a, x, y: mul(r(x), r(y)) - mul(y, r(x))),
    "prelie_endo_alt": (True, False, lambda mul, r, a, x, y: mul(r(x), y) - mul(r(y), r(x))),
    "prelie_diff": (True, False, lambda mul, r, a, x, y: mul(r(x), y)),
    "novikov_affine": (True, True, lambda mul, r, a, x, y: mul(x, r(y)) + a * mul(x, y)),
    "prelie_rb1": (
        True, False, lambda mul, r, a, x, y: mul(r(x), y) - mul(y, r(x)) - mul(x, y)
    ),
    "flexible_avg": (True, False, lambda mul, r, a, x, y: r(mul(x, y))),
}

_A_VALUES = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3))


def _oracle_derive(source, operator, spec):
    fn = _ORACLE[spec.kind][2]
    r = operator.apply if operator is not None else None
    basis = source.basis()
    products = [[fn(source.product, r, spec.a, x, y).coords for y in basis] for x in basis]
    meta = {"construction": spec.kind, "source": algebra_content_hash(source)}
    if operator is not None:
        meta["operator"] = operator_content_hash(operator)
    if spec.a is not None:
        meta["a"] = spec.a
    return algebra_from_table(source.dim, products, source.basis_labels, meta)


def _assert_derive_matches_oracle(source, operator) -> int:
    """Every construction (every ``a`` value) on ``source``; returns the count."""
    count = 0
    for name, (needs_r, needs_a, _) in _ORACLE.items():
        for a in _A_VALUES if needs_a else (None,):
            for op in (operator, None) if not needs_r else (operator,):
                spec = construction(name, a)
                got, want = derive(source, op, spec), _oracle_derive(source, op, spec)
                assert repr(got.sc) == repr(want.sc), (name, a)
                assert repr(got.sparse_rows) == repr(want.sparse_rows), (name, a)
                assert got.basis_labels == want.basis_labels
                assert got.meta == want.meta
                count += 1
    return count


def test_catalog_flags_match_oracle():
    assert list(CATALOG) == list(_ORACLE)
    for name, (needs_r, needs_a, _) in _ORACLE.items():
        assert CATALOG[name].needs_operator == needs_r, name
        assert ("a" in CATALOG[name].params) == needs_a, name


def test_shared_words_are_written_once():
    assert CATALOG["leibniz_endo"].words is CATALOG["prelie_endo_alt"].words
    assert CATALOG["jordan_endo_left"].words is CATALOG["prelie_diff"].words


def test_derive_matches_oracle_on_fixture_algebras(all_materialized):
    count = 0
    for m in all_materialized.values():
        shifted = m.operator + LinearOperator.identity(m.operator.dim)
        for name in m.algebras:
            for op in (m.operator, shifted):
                count += _assert_derive_matches_oracle(m.algebras[name], op)
    assert count == 29 * 2 * (12 + 2 * 2 + len(_A_VALUES))


def test_derive_applies_r_once_per_distinct_element(monkeypatch, all_materialized):
    """R(x) and R(y) cost one ``apply`` per basis vector, and R(x·y) one per
    distinct product, per ``derive`` call."""
    calls = []
    original = LinearOperator.apply
    monkeypatch.setattr(LinearOperator, "apply", lambda r, x: calls.append(x) or original(r, x))
    m = all_materialized["F2"]
    a = m.algebras["A"]
    products = {a.product(x, y) for x in a.basis() for y in a.basis()}
    for name, cons in CATALOG.items():
        if not cons.needs_operator:
            continue
        calls.clear()
        derive(a, m.operator, construction(name, *(("1/2",) if cons.params else ())))
        assert len(calls) == len(set(calls)), name
        assert set(calls) == (products if name == "flexible_avg" else set(a.basis())), name


def test_parity_table():
    """y∘x = parity·(x∘y), read off the words; every other construction is 0."""
    assert {name: c.parity for name, c in CATALOG.items() if c.parity} == {
        "commutator": -1, "lie_endo": -1, "lie_endo_alt": -1, "jordan_plus": 1,
    }
    # the flags are fields, computed once per catalog entry
    assert CATALOG["lie_endo"]._fields == ("params", "words", "needs_operator", "parity")


def test_parity_holds_on_the_oracle(f1b_materialized):
    a, r = f1b_materialized.algebras["A"], f1b_materialized.operator
    basis = a.basis()
    for name, cons in CATALOG.items():
        fn = _ORACLE[name][2]
        for x in basis if cons.parity else ():
            for y in basis:
                assert fn(a.product, r.apply, None, y, x) == cons.parity * fn(
                    a.product, r.apply, None, x, y
                ), name


def test_mirrored_pairs_on_a_dim_1_source():
    for c in (0, 3, Fraction(-2, 5)):
        a = make_algebra(1, [(0, 0, 0, c)] if c else [])
        for entry in (0, 1, Fraction(-3, 7)):
            _assert_derive_matches_oracle(a, make_operator(a, [[entry]]))


def test_mirrored_pairs_negate_fractions():
    m2 = matrix_algebra(2)
    r = make_operator(m2, [[Fraction(1, 2), 0, Fraction(-1, 3), 1],
                           [0, Fraction(2, 3), 0, 0],
                           [Fraction(5, 4), 0, 1, Fraction(-1, 2)],
                           [0, 0, Fraction(1, 7), 0]])
    assert _assert_derive_matches_oracle(m2, r) == 12 + 2 * 2 + len(_A_VALUES)
    lie = derive(m2, r, construction("lie_endo"))
    mirrored = [c for i, row in enumerate(lie.sparse_rows) for j, e in enumerate(row)
                if j < i for _, c in e]
    assert any(type(c) is Fraction and c < 0 for c in mirrored)
    assert any(type(c) is Fraction and c > 0 for c in mirrored)


def _genalgebra(kind: int, seed: int, dim: int):
    from genalgebras import (
        entrywise_algebra_with_retraction,
        entrywise_with_averaging,
        null_algebra_with_root_operator,
        row_algebra_with_projection,
        truncated_poly_with_derivation,
    )

    rng = random.Random(seed)
    return (
        lambda: row_algebra_with_projection(rng, dim),
        lambda: entrywise_algebra_with_retraction(rng, dim),
        lambda: truncated_poly_with_derivation(rng, dim)[:2],
        lambda: null_algebra_with_root_operator(rng, 2 * (1 + dim // 3))[:2],
        lambda: entrywise_with_averaging(rng, dim),
    )[kind]()


@given(st.integers(0, 4), st.integers(0, 2**32), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_mirrored_pairs_match_the_oracle_on_genalgebras(kind, seed, dim):
    a, r = _genalgebra(kind, seed, dim)
    assert _assert_derive_matches_oracle(a, r) == 12 + 2 * 2 + len(_A_VALUES)
    _assert_derive_matches_oracle(a, r + LinearOperator.identity(a.dim))


def _counting_operator_hash(monkeypatch) -> list:
    calls = []
    original = serial.operator_content_hash
    monkeypatch.setattr(serial, "operator_content_hash",
                        lambda op: calls.append(op) or original(op))
    return calls


def test_operator_hash_is_computed_on_first_read_of_meta(monkeypatch, f1b_materialized):
    calls = _counting_operator_hash(monkeypatch)
    a, r = f1b_materialized.algebras["A"], f1b_materialized.operator
    for name, cons in CATALOG.items():
        spec = construction(name, a=Fraction(-1, 2) if cons.params else None)
        got = derive(a, r, spec)
        assert calls == []
        want = {"construction": name, "source": algebra_content_hash(a),
                "operator": operator_content_hash(r)}
        if cons.params:
            want["a"] = Fraction(-1, 2)
        calls.clear()
        assert repr(got.meta) == repr(want) and str(got.meta) == str(want)
        assert f"{got.meta}" == f"{want}"
        assert got.meta == want and want == got.meta and dict(got.meta) == want
        assert list(got.meta) == list(want) and list(got.meta.items()) == list(want.items())
        assert got.meta["operator"] == want["operator"] and len(got.meta) == len(want)
        assert "operator" in got.meta and got.meta.get("a") == want.get("a")
        assert len(calls) == 1, name
        calls.clear()


@pytest.mark.parametrize("name,with_operator", [
    ("commutator", False), ("lie_endo", True), ("novikov_affine", True),
])
def test_unread_meta_pickles_copies_and_merges_as_its_dict(
    monkeypatch, f1b_materialized, name, with_operator
):
    a, r = f1b_materialized.algebras["A"], f1b_materialized.operator
    if not with_operator:
        a, r = matrix_algebra(2), None
    spec = construction(name, a=Fraction(-1, 2) if CATALOG[name].params else None)
    want = dict(derive(a, r, spec).meta)
    calls = _counting_operator_hash(monkeypatch)

    source = derive(a, r, spec)
    got = pickle.loads(pickle.dumps(source))
    assert calls == []  # pickling leaves the operator unhashed
    assert got == source and got.meta == want and repr(got.meta) == repr(want)

    meta = derive(a, r, spec).meta
    copied = copy.copy(meta)
    assert copied == want and repr(copied) == repr(want)
    copied["x"] = 1
    assert meta == want and copied == {**want, "x": 1}

    meta = derive(a, r, spec).meta
    assert meta | {"x": 1} == {**want, "x": 1} and list(meta | {"x": 1}) == [*want, "x"]
    assert {"x": 1} | meta == {"x": 1, **want} and meta == want
    assert len(calls) == (3 if with_operator else 0)


def test_certifying_a_derived_row_never_hashes_the_operator(monkeypatch):
    from nonassoc.fixtures import certify_row

    calls = _counting_operator_hash(monkeypatch)
    v = certify_row("F1", "identity[lie]:jacobi")
    assert v.passed and v.points_checked == 729
    assert calls == []


def test_derive_still_hashes_the_source(monkeypatch, f1b_materialized):
    calls = []
    original = serial.algebra_content_hash
    monkeypatch.setattr(serial, "algebra_content_hash", lambda a: calls.append(a) or original(a))
    source = algebra_from_table(2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]])
    derive(source, None, construction("commutator"))
    assert calls == [source]


_BIG = (2, 3, 7, 12, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("denominators", [(1, 2, 3, 7, 12), _BIG], ids=["small", "big"])
def test_derive_matches_oracle_on_mixed_denominators(dim, denominators):
    from genalgebras import mixed_denominator_algebra

    rng = random.Random(2000 * dim + len(denominators))

    def scalar():
        return canonical(Fraction(rng.randint(-5, 5), rng.choice(denominators)))

    for _ in range(2):
        a = mixed_denominator_algebra(rng, dim, denominators)
        r = make_operator(a, [[scalar() for _ in range(dim)] for _ in range(dim)])
        _assert_derive_matches_oracle(a, r)
        _assert_derive_matches_oracle(a, r + LinearOperator.identity(dim))


def _formula(words) -> str:
    """The signed words as README writes them, e.g. x·R(y) − y·R(x)."""

    def term(word, nested=False):
        if isinstance(word, int):
            return "xy"[word]
        if word[0] == "R":
            return f"R({term(word[1])})"
        text = f"{term(word[0], True)}·{term(word[1], True)}"
        return f"({text})" if nested else text

    out = ""
    for coef, word in words:
        sign = "−" if coef == -1 else "+"
        scalar = "" if coef in (1, -1) else f"{coef}·"
        out += (f" {sign} " if out else ("" if sign == "+" else "−")) + scalar + term(word)
    return out


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_lists_every_construction_with_its_formula():
    section = README[README.index("Constructions for `derive`"):README.index("Identities for `check`")]
    documented = dict(re.findall(r"^- `(\w+)`: (.+?)(?: \(takes .*\))?$", section, re.M))
    assert documented == {name: _formula(c.words) for name, c in CATALOG.items()}


def test_readme_lists_every_identity():
    start = README.index("Identities for `check`:")
    section = README[start:README.index("\n\n", start)]
    assert re.findall(r"`(\w+)`", section)[1:] == list(IDENTITY_NAMES)

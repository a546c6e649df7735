"""Null-index pruning against oracles that run every index.

An index is null when no nonzero structure constant names it.  The identity
loop and the random trials run over ``Algebra.support`` and skip the null
indices; the operator loop runs every index.  Each is compared with a
rational oracle that reads no support and evaluates every index:
``test_symmetry.plain_verdict``, ``test_operators.oracle_verdict`` and
``test_identities.oracle_random_verdict``.  Verdicts and witnesses must be
``repr``-equal, failing ones included.
"""
import math
import random
from fractions import Fraction

import pytest

from genalgebras import (
    entrywise_algebra_with_retraction,
    entrywise_with_averaging,
    mixed_denominator_algebra,
    null_algebra_with_root_operator,
    row_algebra_with_projection,
    truncated_poly_with_derivation,
)
from nonassoc import identities
from nonassoc.algebra import Element, make_algebra, matrix_algebra
from nonassoc.identities import IDENTITY_NAMES, check_identity, check_identity_random
from nonassoc.operators import (
    PROPERTY_KINDS,
    LinearOperator,
    OperatorProperty,
    check_operator_property,
)
from test_operators import oracle_verdict
from test_symmetry import plain_verdict


def with_null_block(a, k, seed):
    """``a`` direct-summed with ``k`` null indices at seeded positions, and the
    positions of ``a``'s indices.  One null index is hit by a constant:
    e_0 e_0 gains it with coefficient 1 (its row and column stay empty), so
    it is the one index of the block in the support."""
    rng = random.Random(seed)
    n = a.dim + k
    slots = sorted(rng.sample(range(n), a.dim))
    nulls = [x for x in range(n) if x not in slots]
    entries = [
        (slots[i], slots[j], slots[c], v)
        for i, row in enumerate(a.sparse_rows) for j, e in enumerate(row) for c, v in e
    ]
    hit = rng.choice(nulls)
    entries.append((slots[0], slots[0], hit, 1))
    b = make_algebra(n, entries)
    assert set(nulls) & set(b.support) == {hit}
    return b, slots


def _operator_cases():
    """(label, algebra, operator) from the generators of ``genalgebras``."""
    out = []
    for seed in range(3):
        rng = random.Random(seed)
        out.append((f"row{seed}", *row_algebra_with_projection(rng, 2 + seed % 2)))
        out.append((f"retraction{seed}", *entrywise_algebra_with_retraction(rng, 3)))
        out.append((f"poly{seed}", *truncated_poly_with_derivation(rng, 3)[:2]))
        out.append((f"null_root{seed}", *null_algebra_with_root_operator(rng, 2)[:2]))
        out.append((f"averaging{seed}", *entrywise_with_averaging(rng, 2)))
    return out


def _algebra_cases():
    out = [(label, a) for label, a, _ in _operator_cases()]
    for seed in range(4):
        rng = random.Random(100 + seed)
        out.append((f"mixed{seed}", mixed_denominator_algebra(rng, rng.randint(2, 3), (1, 2, 3))))
    out.append(("M2", matrix_algebra(2)))
    return out


_NULL_BLOCKS = [(k, seed) for k in (1, 2, 3) for seed in (k, 10 + k)]


@pytest.mark.parametrize("forced", [False, True], ids=["cost_rule", "always_group"])
def test_check_identity_equals_every_index_active(monkeypatch, forced):
    if forced:  # the orbit-reduced loop, over the support
        monkeypatch.setattr(identities, "_TUPLES_PER_UNIT", 0)
    failures = 0
    for label, a in _algebra_cases():
        for k, seed in _NULL_BLOCKS:
            b, _ = with_null_block(a, k, seed)
            for name in IDENTITY_NAMES:
                pruned = check_identity(b, name)
                assert repr(pruned) == repr(plain_verdict(b, name)), (label, k, seed, name)
                failures += not pruned.passed
    assert failures > 100  # the witnesses compared are many


def lift_operator(r, slots, n, mode, seed):
    """R on the indices ``slots`` of an n-dimensional sum, and on the null ones:
    zero (``"zero"``), a nonzero column (``"nonzero"``: R e_z = e_z + e_s), or
    zero with R mapping an index of ``slots`` into the block (``"into"``)."""
    rng = random.Random(seed)
    cols = [[0] * n for _ in range(n)]
    for j, col in enumerate(r.columns):
        for i, c in enumerate(col.coords):
            cols[slots[j]][slots[i]] = c
    z = rng.choice([x for x in range(n) if x not in slots])
    if mode == "nonzero":
        cols[z][z] = 1
        cols[z][rng.choice(slots)] = Fraction(1, 2)
    elif mode == "into":
        cols[rng.choice(slots)][z] += 1
    return LinearOperator(n, tuple(Element(tuple(c)) for c in cols))


def every_property(values):
    for kind, spec in PROPERTY_KINDS.items():
        for v in values:
            yield OperatorProperty(kind, **{p: v for p in spec.params})


@pytest.mark.parametrize("mode", ["zero", "nonzero", "into"])
def test_check_operator_property_equals_every_index_active(mode):
    kinds, failures = set(), 0
    for label, a, r in _operator_cases():
        for k, seed in _NULL_BLOCKS:
            b, slots = with_null_block(a, k, seed)
            rb = lift_operator(r, slots, b.dim, mode, seed)
            for prop in every_property((1, -1, Fraction(1, 2))):
                verdict = check_operator_property(b, rb, prop)
                assert repr(verdict) == repr(oracle_verdict(b, rb, prop)), (label, k, seed, prop)
                kinds.add(prop.kind)
                failures += not verdict.passed
    assert {"involution_op", "scaled_involution_op"} <= kinds == set(PROPERTY_KINDS)
    assert failures > 100


def test_check_identity_random_equals_every_index_active():
    """The random trials, read on the support, equal the rational oracle,
    which evaluates every index.  In ``square_to_null`` e_1 is in the support
    though its row and column are empty: a product lands on an index that no
    product reads."""
    from test_identities import oracle_random_verdict

    failures = 0
    cases = _algebra_cases()[::3] + [("null4", make_algebra(4, [])),
                                     ("square_to_null", make_algebra(2, [(0, 0, 1, 1)]))]
    for label, a in cases:
        for k, seed in _NULL_BLOCKS[::2]:
            b, _ = with_null_block(a, k, seed)
            for name in IDENTITY_NAMES:
                for trial_seed in (0, 7, 2024):
                    pruned = check_identity_random(b, name, 20, trial_seed)
                    oracle = oracle_random_verdict(b, name, 20, trial_seed)
                    assert repr(pruned) == repr(oracle), (label, k, seed, name, trial_seed)
                    failures += not pruned.passed
    assert failures > 50


def test_the_summaries_of_the_constants_read_every_nonempty_row():
    """``entries`` and the three parts of ``integer_rows`` skip empty rows
    only: each equals its definition over the dense view, on algebras whose
    null indices fall anywhere, the first included."""
    cases = [(label, with_null_block(a, k, seed)[0])
             for label, a in _algebra_cases() for k, seed in _NULL_BLOCKS[::2]]
    cases += [("null4", make_algebra(4, [])), ("square_to_null", make_algebra(2, [(0, 0, 1, 1)]))]
    first_null = fractional = 0
    for label, b in cases:
        cells = [[[(k, c) for k, c in enumerate(cell) if c] for cell in row] for row in b.sc]
        values = [c for row in cells for cell in row for _, c in cell]
        denom = math.lcm(*(Fraction(c).denominator for c in values))
        assert list(b.entries) == [(i, j, k, c) for i, row in enumerate(cells)
                                   for j, cell in enumerate(row) for k, c in cell], label
        assert len(b.entries) == len(values), label
        rows, scale, cmax = b.integer_rows
        assert scale == denom, label
        assert [[list(cell) for cell in row] for row in rows] == [
            [[(k, int(c * denom)) for k, c in cell] for cell in row] for row in cells], label
        norms = [sum(abs(c * denom) for _, c in cell) for row in cells for cell in row]
        assert cmax == max(norms, default=0), label
        first_null += 0 not in b.support
        fractional += denom > 1
    assert first_null and fractional


def test_a_null_algebra_passes_without_a_tuple_or_a_draw(monkeypatch):
    """No index is live: no tuple is compared and no element is drawn."""
    seen = []
    monkeypatch.setattr(identities, "_signed_sum", lambda roots, vals: seen.append(1))
    monkeypatch.setattr(identities, "_Drawer", lambda rng: seen.append(2))
    a = make_algebra(200, [])
    for name in IDENTITY_NAMES:
        assert check_identity(a, name).passed
        assert check_identity_random(a, name, 100, 7).passed
    assert seen == []
    with pytest.raises(identities.NonassocError):
        check_identity_random(a, "jacobi", 0, 1)


def test_a_bare_leaf_keeps_every_index():
    """R(R(x)) = x fails at a null index whose R column is zero: it is not skipped."""
    a = make_algebra(3, [(0, 0, 0, 1)])
    r = LinearOperator(3, (Element((1, 0, 0)), Element((0, 0, 1)), Element((0, 1, 0))))
    assert check_operator_property(a, r, OperatorProperty("involution_op")).passed
    r = LinearOperator(3, (Element((1, 0, 0)), Element((0, 0, 0)), Element((0, 0, 0))))
    verdict = check_operator_property(a, r, OperatorProperty("involution_op"))
    assert verdict.witness.indices == (1,)


def test_an_identity_with_a_bare_leaf_is_refused(monkeypatch):
    """A bare leaf is e_i itself at a null index, so no identity may have one:
    the identity loop's pruning over the support rests on it."""
    monkeypatch.setattr(identities, "IDENTITIES", dict(identities.IDENTITIES))
    with pytest.raises(AssertionError, match="bare leaf"):
        identities._register("bare", ("x",), (1,), lhs=[(1, 0)], rhs=[(-1, 0)])
    assert "bare" not in identities.IDENTITIES

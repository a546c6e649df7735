"""The packed last slots of the basis-tuple loop.

``_basis_verdict`` checks every index of the innermost slot at once, each in
its own field of one int, and, when no automorphism is listed, the last two
slots at once, after the first block: a square of fields, slot last - 1 at a
stride of the last slot's run.  These cases push the packing where it could
break: fields past 64 bits, negative coordinates, a failure inside a block or
in a square's first row, a tied last pair, large operator columns and the
``genalgebras`` families.  From the second block at one depth on (a
square, or a block at an untied last slot under the automorphism list), the
last slot's leaf L is a phantom basis index of the rows, as R is, whose
cells are filled as blocks first read them; each product by it is compared
with the plain kernel's product by L itself, and a cell never filled would
raise.  A tied last slot under the list uses no phantom.  Verdicts and
witnesses are compared, through ``repr``, with the plain rational loops of
``test_symmetry`` and ``test_operators``, and the field width with every
coordinate the unpacked kernel reaches at any basis tuple.
"""
import collections
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nonassoc import identities, operators
from nonassoc.algebra import make_algebra
from nonassoc.identities import IDENTITY_NAMES, check_identity
from nonassoc.operators import (
    PROPERTY_KINDS,
    _SCHEDULES,
    OperatorProperty,
    check_operator_property,
    make_operator,
)
from nonassoc.verdicts import Verdict, Witness
from test_operators import every_property, oracle_verdict
from test_symmetry import (
    _TIED_AFTER_CLOSED,
    PhantomLeaves,
    always_use_group,  # noqa: F401 (a fixture)
    canonical_tuples,
    commutator,
    group_of,
    plain_verdict,
    shuffled_matrix_algebra,
)


def scaled(a, factor):
    """``a`` with every structure constant multiplied by ``factor``."""
    return make_algebra(a.dim, [(i, j, k, factor * c) for i, row in enumerate(a.sparse_rows)
                                for j, e in enumerate(row) for k, c in e])


def mixed(seed, dim):
    from genalgebras import mixed_denominator_algebra

    return mixed_denominator_algebra(random.Random(seed), dim, (1, 2, 3))


def identity_signed(a, name):
    """The schedule, int rows, signed weighted roots and cell norm ``check_identity`` uses."""
    sched = identities._plan_schedule(name)
    rows, denom = a.integer_rows
    lhs, rhs, _ = identities._weighted(sched, denom)
    return sched, rows, lhs + tuple((-w, n) for w, n in rhs), a.integer_cell_norm


def operator_signed(a, r, prop):
    """The schedule, int rows (R's column appended), signed roots and cell norm
    of ``check_words``."""
    sched = _SCHEDULES[prop.kind]
    params = {name: getattr(prop, name) for name in PROPERTY_KINDS[prop.kind].params}
    cols, rdenom, rnorm = r.integer_columns
    rows, denom = a.integer_rows
    rows = tuple(row + (col,) for row, col in zip(rows, cols))
    lhs, rhs, _ = identities._weighted(sched, denom, rdenom, params)
    return sched, rows, lhs + tuple((-w, n) for w, n in rhs), max(a.integer_cell_norm, rnorm)


def field_width(sched, rows, signed, cmax):
    """``_field_width`` of one of the tuples above."""
    return identities._field_width(sched, signed, cmax)


def largest_coordinate(a, sched, rows, signed, _cmax):
    """The largest |coordinate| of the signed sum and of each weighted root, over
    every basis tuple, each evaluated alone with the unpacked kernel."""
    slots = len(sched.tied)
    steps = sum(sched.steps, ())
    vals = [None] * sched.size
    if sched.phantom is not None:
        vals[sched.phantom] = {a.dim: 1}
    top = 0
    for t in itertools.product(range(a.dim), repeat=slots):
        for s, i in enumerate(t):
            vals[s] = {i: 1}
        identities._products(rows, steps, vals)
        coords = [*identities._signed_sum(signed, vals).values()]
        coords += [w * v for w, n in signed for v in vals[n].values()]
        top = max([top, *map(abs, coords)])
    return top


def plain_words_verdict(a, degrees, lhs, rhs):
    """Oracle: words in variables of ``degrees``, polarized, at every tuple
    non-decreasing within each slot group, in lex order, with ``Algebra.product``."""
    offsets = [sum(degrees[:v]) for v in range(len(degrees))]
    lhs = identities._polarize_words(lhs, degrees, offsets)
    rhs = identities._polarize_words(rhs, degrees, offsets)

    def side(words, t):
        def value(word):
            if isinstance(word, int):
                return a.basis_vector(t[word])
            return a.product(value(word[0]), value(word[1]))

        acc = a.zero()
        for sign, word in words:
            acc = acc + sign * value(word)
        return acc

    for t in canonical_tuples(a.dim, degrees):
        sides = side(lhs, t), side(rhs, t)
        if sides[0] != sides[1]:
            return Verdict.fail(Witness(t, tuple(a.basis_vector(i) for i in t), *sides))
    return Verdict.ok()


def test_fields_past_64_bits_match_the_plain_loop():
    """Constants scaled by 10^6 need fields of more than 64 bits for jordan_main."""
    failed = 0
    for a in (scaled(shuffled_matrix_algebra(3, 2), 10**6),
              scaled(commutator(shuffled_matrix_algebra(3, 4)), -10**6),
              scaled(mixed(5, 3), 10**6)):
        assert field_width(*identity_signed(a, "jordan_main")) > 64
        for name in IDENTITY_NAMES:
            verdict = check_identity(a, name)
            assert repr(verdict) == repr(plain_verdict(a, name)), name
            failed += not verdict.passed
    assert failed >= 10


def last_two_leaves(monkeypatch, slots):
    """Records, at each comparison, the leaves of the last two slots as lists
    of their field exponents (bit positions), in key order, a phantom leaf
    read as its L."""
    seen = []
    original = identities._signed_sum
    phantom = PhantomLeaves(monkeypatch)

    def record(roots, vals):
        seen.append([[v.bit_length() - 1 for v in phantom.read(vals[s]).values()]
                     for s in (slots - 2, slots - 1)])
        return original(roots, vals)

    monkeypatch.setattr(identities, "_signed_sum", record)
    return seen


@pytest.mark.parametrize("name, entries, witness", [
    # e0 e0 = e0, e1 e2 = e3: block (0, *) passes, and the pair of slot 0's
    # run 1..3 with slot 1's fails at (1, 2)
    ("commutativity", [(0, 0, 0, 1), (1, 2, 3, 1)], (1, 2)),
    # (e1 e0) e3 = e2 e3 = e3 but e1 (e0 e3) = 0: the squares below x = 0 pass,
    # and the square below x = 1 fails in its first row, y = 0
    ("associativity", [(1, 0, 2, 1), (2, 3, 3, 1)], (1, 0, 3)),
])
def test_a_failure_in_a_squares_first_row_is_decoded(monkeypatch, name, entries, witness):
    a = make_algebra(4, entries)
    leaves = last_two_leaves(monkeypatch, len(witness))
    verdict = check_identity(a, name)
    assert verdict.witness.indices == witness
    *_, (pair, last), _, _ = leaves  # the witness's two sides are summed last
    assert len(pair) > 1 and pair[0] == 0 and pair[1] == len(last) * last[1]
    monkeypatch.undo()
    assert repr(verdict) == repr(plain_verdict(a, name))


def test_a_tied_pair_decodes_its_canonical_field_first():
    """x y.y = x.y y fails at (0, 1, 2) and, the form being symmetric in the
    two y slots, at (0, 2, 1).  In the pair of slot 1's run 1..2 with slot 2's
    whole run, (0, 1, 2) is field 0·3 + 2 and (0, 2, 1) field 1·3 + 1; a decode
    with p2 major would meet (0, 2, 1) first, which is not sorted."""
    degrees, lhs, rhs = _TIED_AFTER_CLOSED["xy.y=x.yy"]
    sched = tied_schedule(degrees, lhs, rhs)
    a = make_algebra(3, [(0, 1, 2, 1), (2, 2, 2, 1)])  # e0 e1 = e2, e2 e2 = e2
    rows, denom = a.integer_rows
    verdict = identities._basis_verdict(
        a, sched, rows, a.integer_cell_norm, *identities._weighted(sched, denom))
    assert verdict.witness.indices == (0, 1, 2)
    assert repr(verdict) == repr(plain_words_verdict(a, degrees, lhs, rhs))


def test_the_first_failing_field_of_a_block_is_decoded():
    """e3 e4 = -e0 and e3 e5 = e0: in the block of prefix (3,) the fields of 4
    and 5 fail with opposite signs in one coordinate, after four passing ones."""
    a = make_algebra(6, [(0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1),
                         (3, 4, 0, -1), (3, 5, 0, 1)])
    verdict = check_identity(a, "commutativity")
    assert verdict.witness.indices == (3, 4)
    assert repr(verdict) == repr(plain_verdict(a, "commutativity"))


@pytest.mark.parametrize("seed", range(6))
def test_negative_coordinates_match_the_plain_loop(seed):
    """Random constants of both signs, and their negation; a failure's lowest
    nonzero field is found through borrows from the fields above it."""
    a = mixed(100 + seed, 3)
    for b in (a, scaled(a, -1)):
        for name in IDENTITY_NAMES:
            assert repr(check_identity(b, name)) == repr(plain_verdict(b, name)), name


def tied_schedule(degrees, lhs, rhs):
    """The schedule of words in variables of ``degrees``, polarized, each
    repeated variable's slots one symmetry group."""
    offsets = [sum(degrees[:v]) for v in range(len(degrees))]
    groups = tuple(tuple(range(o, o + d)) for o, d in zip(offsets, degrees) if d > 1)
    return identities._schedule(
        sum(degrees),
        identities._polarize_words(lhs, degrees, offsets),
        identities._polarize_words(rhs, degrees, offsets),
        groups,
    )


@pytest.mark.parametrize("words", _TIED_AFTER_CLOSED)
def test_a_tied_last_slot_matches_the_plain_loop(words):
    """The last slot runs from the index before it, with and without the group."""
    degrees, lhs, rhs = _TIED_AFTER_CLOSED[words]
    sched = tied_schedule(degrees, lhs, rhs)
    assert sched.tied[-1]
    failed = 0
    for a in (shuffled_matrix_algebra(2, 3), shuffled_matrix_algebra(3, 6),
              scaled(commutator(shuffled_matrix_algebra(3, 8)), -10**6)):
        rows, denom = a.integer_rows
        weighted = identities._weighted(sched, denom)
        oracle = plain_words_verdict(a, degrees, lhs, rhs)
        cmax = a.integer_cell_norm
        assert repr(identities._basis_verdict(a, sched, rows, cmax, *weighted)) == repr(oracle)
        verdict = identities._basis_verdict(a, sched, rows, cmax, *weighted, group_of(a)[1:])
        assert repr(verdict) == repr(oracle)
        failed += not oracle.passed
    assert failed >= 1


def large_operator(a, rng, zero=None):
    """An operator whose entries are about 10^7, some with denominator 7, one
    column zero (``zero``, or one at random)."""
    def entry():
        return Fraction(rng.randint(-9, 9) * 10**6 + rng.randint(-5, 5), rng.choice((1, 1, 7)))

    zero = rng.randrange(a.dim) if zero is None else zero
    return make_operator(a, [[0 if j == zero else entry() for _ in range(a.dim)]
                             for j in range(a.dim)])


@pytest.mark.parametrize("seed", range(3))
def test_large_operator_columns_match_the_oracle(seed):
    rng = random.Random(seed)
    a = mixed(200 + seed, 3)
    r = large_operator(a, rng)
    failed = 0
    for prop in every_property((0, 1, -1, Fraction(1, 2))):
        verdict = check_operator_property(a, r, prop)
        assert repr(verdict) == repr(oracle_verdict(a, r, prop)), prop
        failed += not verdict.passed
    assert failed >= 20
    assert field_width(*operator_signed(a, r, OperatorProperty("endomorphism"))) > 64


def test_field_width_bounds_every_coordinate(monkeypatch):
    """2^(width - 1) exceeds every coordinate the unpacked kernel reaches, for
    identities on M3, a scaled commutator and a rational algebra, and for
    operator words with large columns; the width is the one the check packs
    with, so ``check_words`` must count R's columns in ``cmax``.  Read off the
    leaves of each comparison, the last slot's fields are that width apart
    and, in a pair, slot last - 1's fields the width times the last slot's
    run: each field, of a pair too, holds one tuple's value, a phantom leaf
    read as its L."""
    widths, strides = [], []
    original_width, original_sum = identities._field_width, identities._signed_sum
    phantom = PhantomLeaves(monkeypatch)

    def record_width(*args):
        widths.append(original_width(*args))
        return widths[-1]

    def record_leaves(roots, vals):
        pair, last = ([v.bit_length() - 1 for v in phantom.read(vals[s]).values()]
                      if s >= 0 else [0]
                      for s in (slots - 2, slots - 1))
        strides.append(pair == [widths[0] * len(last) * p for p in range(len(pair))]
                       and last == [widths[0] * q for q in range(len(last))] and len(pair))
        return original_sum(roots, vals)

    monkeypatch.setattr(identities, "_field_width", record_width)
    monkeypatch.setattr(identities, "_signed_sum", record_leaves)
    for a in (shuffled_matrix_algebra(3, 1),
              scaled(commutator(shuffled_matrix_algebra(3, 2)), 10**6), mixed(7, 3)):
        for name in IDENTITY_NAMES:
            widths.clear()
            slots = identities.polarized_plan(name).slots
            check_identity(a, name)
            top = largest_coordinate(a, *identity_signed(a, name))
            assert widths and top < 2 ** (widths[0] - 1), name
    assert all(strides) and max(strides) > 1  # some comparisons were pairs
    strides.clear()
    rng = random.Random(9)
    # e0 x = 0 and R(e0) = 0, so the first block passes for the endomorphism,
    # derivation and Rota-Baxter words, and pairs follow
    a = make_algebra(3, [(i, j, k, c) for i, row in enumerate(mixed(300, 3).sparse_rows) if i
                         for j, e in enumerate(row) for k, c in e])
    assert a.active == (0, 1, 2)
    r = large_operator(a, rng, zero=0)
    for prop in every_property((1, Fraction(-1, 2))):
        widths.clear()
        slots = len(_SCHEDULES[prop.kind].tied)
        check_operator_property(a, r, prop)
        top = largest_coordinate(a, *operator_signed(a, r, prop))
        assert widths and 0 < top < 2 ** (widths[0] - 1), prop
    assert all(strides) and max(strides) > 1


def test_an_operators_columns_are_scaled_once(monkeypatch):
    """Two property checks on one operator scale its columns once (one lcm of
    their denominators), and the second check, reading the cached columns,
    gives the oracle's verdict."""
    a = mixed(400, 3)
    r = large_operator(a, random.Random(4))
    calls = []
    monkeypatch.setattr(operators, "lcm", lambda *ds: calls.append(1) or math.lcm(*ds))
    for prop in (OperatorProperty("endomorphism"), OperatorProperty("derivation")):
        assert repr(check_operator_property(a, r, prop)) == repr(oracle_verdict(a, r, prop))
    assert calls == [1]


def _family_cases():
    """(label, algebra, operator) from each generator of ``genalgebras``."""
    from genalgebras import (
        entrywise_algebra_with_retraction,
        entrywise_with_averaging,
        null_algebra_with_root_operator,
        rota_baxter_setup,
        row_algebra_with_projection,
        truncated_poly_with_derivation,
    )

    out = []
    for seed in range(3):
        rng = random.Random(500 + seed)
        out.append((f"row{seed}", *row_algebra_with_projection(rng, 3)))
        out.append((f"retraction{seed}", *entrywise_algebra_with_retraction(rng, 4)))
        out.append((f"poly{seed}", *truncated_poly_with_derivation(rng, 4)[:2]))
        out.append((f"null_root{seed}", *null_algebra_with_root_operator(rng, 4)[:2]))
        out.append((f"averaging{seed}", *entrywise_with_averaging(rng, 3)))
        for weight in ("one", "zero", "weighted"):
            _, sub, _, _, r, _, _ = rota_baxter_setup(rng, weight)
            out.append((f"rota_baxter_{weight}{seed}", sub, r))
    return out


_FAMILIES = _family_cases()


def dense_m3():
    """The benchmark's dense rational basis of M3 at seed 1 (``perfbench/workloads.py``)."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import workloads

    (_, a, _), = workloads.dense_algebras(1)
    return a


def inner_derivation(a, m):
    """x -> m x - x m, a derivation of the associative algebra ``a``."""
    return make_operator(a, [(a.product(m, e) - a.product(e, m)).coords
                             for e in map(a.basis_vector, range(a.dim))])


@pytest.fixture
def pair_steps(monkeypatch):
    """Checks every ``_products`` call on rows with the last-slot leaf's phantom
    index, in a square or a single block, against the plain kernel on the rows
    without it and a copy of ``vals`` holding L for the phantom leaf, each
    node with ``==``.  Counts, per kind of product by the leaf L (its right
    operand, its left operand, or an R step's child), those that read a
    phantom cell, the other operand nonzero."""
    seen = collections.Counter()
    products, phantom = identities._products, PhantomLeaves(monkeypatch)

    def checked(rows, steps, vals):
        products(rows, steps, vals)
        if rows is not phantom.rows:
            return
        plain = [phantom.read(v) for v in vals]
        products(phantom.plain_rows, steps, plain)
        for n, left, right in steps:
            assert vals[n] == plain[n]
            if left is None:
                continue
            if vals[right] is phantom.pair:
                seen["right"] += bool(vals[left])
            elif vals[left] is phantom.pair:
                other = vals[right]
                seen["R" if other == {len(phantom.plain_rows): 1} else "left"] += bool(other)

    monkeypatch.setattr(identities, "_products", checked)
    return seen


# (x y) R(z) = x (y R(z)), compiled: linear in three slots, so an R step
# whose child is the last slot's leaf comes back in every block; it holds in an
# associative algebra for any R
_ASSOCIATIVE_R = identities.compile_words(
    3, ((1, ((0, 1), identities.R(2))),), ((1, (0, (1, identities.R(2)))),))


@pytest.mark.parametrize("label, a, r", _FAMILIES, ids=[c[0] for c in _FAMILIES])
def test_the_genalgebras_families_match_the_oracles(label, a, r, pair_steps):
    """Every identity against the rational plain loop and every operator
    property against the basis-pair oracle, on each family's algebra and
    operator; with the three-slot R words, every product by the last slot's leaf
    equals the plain kernel's (``pair_steps``)."""
    for name in IDENTITY_NAMES:
        assert repr(check_identity(a, name)) == repr(plain_verdict(a, name)), name
    for prop in every_property((0, 1, -1, Fraction(1, 2))):
        assert repr(check_operator_property(a, r, prop)) == repr(oracle_verdict(a, r, prop)), prop
    identities.check_words(a, r.integer_columns, _ASSOCIATIVE_R, {})


def test_the_phantom_leaf_rows_equal_the_plain_products(pair_steps):
    """On the dense M3 basis, each product by a square's last leaf equals the plain
    kernel's, phantom rows are read by right-leaf and left-leaf steps of the
    identities and by the R step of the three-slot R words, and verdicts
    match the oracles."""
    a = dense_m3()
    r = large_operator(a, random.Random(3))
    for name in IDENTITY_NAMES:
        assert repr(check_identity(a, name)) == repr(plain_verdict(a, name)), name
    for prop in every_property((1, Fraction(-1, 2))):
        assert repr(check_operator_property(a, r, prop)) == repr(oracle_verdict(a, r, prop)), prop
    assert identities.check_words(a, r.integer_columns, _ASSOCIATIVE_R, {}).passed
    assert all(pair_steps[kind] for kind in ("right", "left", "R")), pair_steps


def test_checks_of_two_widths_on_one_algebra_share_no_rows(monkeypatch, pair_steps):
    """On the dense M3: an identity, an operator property, then operator words
    of three slots, each with its own field width, R's column only in the
    last two.  The first and the last build and read phantom rows, and each
    matches its oracle or the plain kernel, so no row outlives its check."""
    a = dense_m3()
    r = inner_derivation(a, a.basis_vector(0) + a.basis_vector(4))
    widths = []
    original = identities._field_width
    monkeypatch.setattr(identities, "_field_width",
                        lambda *args: widths.append(original(*args)) or widths[-1])
    assert repr(check_identity(a, "flexible")) == repr(plain_verdict(a, "flexible"))
    assert pair_steps["right"] and pair_steps["left"]
    prop = OperatorProperty("derivation")
    verdict = check_operator_property(a, r, prop)
    assert verdict.passed and repr(verdict) == repr(oracle_verdict(a, r, prop))
    pair_steps.clear()
    assert identities.check_words(a, r.integer_columns, _ASSOCIATIVE_R, {}).passed
    assert pair_steps["R"] and len(set(widths)) == 3


def test_the_phantom_leaf_of_single_blocks_equals_the_plain_products(always_use_group,
                                                                    pair_steps):
    """Under the automorphism list every block after the first multiplies by
    the phantom leaf: on M3, M4 and commutator(M3), each product by it equals
    the plain kernel's, right-leaf and left-leaf cells are read, and verdicts
    match the oracle; the three-slot R words, run under the list too, read
    R(L).  The R words hold for any R in an associative algebra."""
    m3 = shuffled_matrix_algebra(3, 5)
    for a in (m3, shuffled_matrix_algebra(4, 5), commutator(m3)):
        for name in IDENTITY_NAMES:
            assert repr(check_identity(a, name)) == repr(plain_verdict(a, name)), name
    assert pair_steps["right"] and pair_steps["left"], pair_steps
    rng, sched = random.Random(6), _ASSOCIATIVE_R
    for a in (m3, shuffled_matrix_algebra(4, 6)):
        r = large_operator(a, rng)
        rows, denom = a.integer_rows
        cols, rdenom, rnorm = r.integer_columns
        rows = tuple(row + (col,) for row, col in zip(rows, cols))
        assert identities._basis_verdict(
            a, sched, rows, max(a.integer_cell_norm, rnorm),
            *identities._weighted(sched, denom, rdenom), a.automorphisms.elements).passed
    assert pair_steps["R"], pair_steps


@pytest.mark.parametrize("words", _TIED_AFTER_CLOSED)
def test_a_tied_last_slot_under_the_group_uses_no_phantom(monkeypatch, words):
    """Under the automorphism list a tied last slot runs from slot last - 1's
    index, so its leaf changes from block to block and no phantom may stand
    for it: none is made, and the verdict is the plain loop's."""
    degrees, lhs, rhs = _TIED_AFTER_CLOSED[words]
    sched = tied_schedule(degrees, lhs, rhs)
    phantom = PhantomLeaves(monkeypatch)
    runs, original = set(), identities._signed_sum

    def record(roots, vals):
        runs.add(tuple(vals[len(sched.tied) - 1]))
        return original(roots, vals)

    monkeypatch.setattr(identities, "_signed_sum", record)
    for a in (shuffled_matrix_algebra(3, 6), commutator(shuffled_matrix_algebra(3, 8))):
        rows, denom = a.integer_rows
        verdict = identities._basis_verdict(a, sched, rows, a.integer_cell_norm,
                                            *identities._weighted(sched, denom), group_of(a)[1:])
        assert repr(verdict) == repr(plain_words_verdict(a, degrees, lhs, rhs))
    assert len(runs) > 2 and phantom.pair is None

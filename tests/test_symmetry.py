"""Basis-permutation automorphisms and the orbit-reduced basis-tuple loop.

Every permutation the search returns is checked against the dense ``sc``
view by brute force; the loop's visited tuples against the packed blocks of
the prefixes a brute-force minimal-image test keeps under the listed
automorphisms (the whole group, or any subset of it), or, given none, the
pair blocks of the last two slots, which must hold every brute-force lex-min
orbit representative of the whole group; and its
verdicts and witnesses against a plain loop over all non-decreasing basis
tuples, evaluated in rationals.
"""
import functools
import itertools
import math
import random

import pytest

from nonassoc import identities, symmetry
from nonassoc.algebra import induce_subalgebra, make_algebra, matrix_algebra
from nonassoc.constructions import construction, derive, hadamard_algebra
from nonassoc.identities import IDENTITY_NAMES, check_identity, polarized_plan
from nonassoc.verdicts import Verdict, Witness
from test_identities import polarized_sides


def shuffled_matrix_algebra(n, seed):
    """M_n in its matrix-unit basis, listed in a seeded order."""
    m = matrix_algebra(n)
    order = list(range(m.dim))
    random.Random(seed).shuffle(order)
    return induce_subalgebra(m, [m.basis_vector(i) for i in order])[0]


def commutator(a):
    return derive(a, None, construction("commutator"))


def is_automorphism(a, g):
    """Oracle: c[g i][g j][g k] == c[i][j][k] for every i, j, k of the dense view."""
    sc, n = a.sc, a.dim
    return sorted(g) == list(range(n)) and all(
        sc[g[i]][g[j]][g[k]] == sc[i][j][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


def group_of(a):
    """The identity and every element of the group the search found."""
    gens = a.automorphisms.generators
    return (tuple(range(a.dim)),) + symmetry.close(gens, a.dim, math.factorial(a.dim))


def mentioned(a):
    """The indices some constant mentions."""
    return {x for i, row in enumerate(a.sparse_rows) for j, e in enumerate(row)
            for k, _ in e for x in (i, j, k)}


def input_size(a):
    """The indices some constant mentions plus the nonzero constants."""
    return len(mentioned(a)) + sum(len(e) for row in a.sparse_rows for e in row)


def canonical_tuples(dim, degrees):
    """The basis tuples non-decreasing within each slot group, in lex order."""
    runs = [itertools.combinations_with_replacement(range(dim), d) for d in degrees]
    return [sum(parts, ()) for parts in itertools.product(*runs)]


def sorted_image(g, t, degrees):
    out, at = [], 0
    for d in degrees:
        out += sorted(g[x] for x in t[at:at + d])
        at += d
    return tuple(out)


@functools.cache
def lex_min_representatives(a, degrees):
    """Oracle: the lex-min tuple of each orbit of G x (slot symmetry), in lex
    order, found by brute force; the orbits must partition all tuples.  It
    depends on the constants alone, so equal algebras share one answer."""
    group = group_of(a)
    reps, total = [], 0
    for t in canonical_tuples(a.dim, degrees):
        if all(sorted_image(g, t, degrees) >= t for g in group):
            reps.append(t)
            total += len({sorted_image(g, t, degrees) for g in group})
    assert total == math.prod(math.comb(a.dim + d - 1, d) for d in degrees)
    return tuple(reps)


def surviving_prefixes(a, degrees, group):
    """Oracle: the prefixes (every slot but the last), non-decreasing within
    each slot group, in lex order, each of whose initial segments is lex-min
    among its images under ``group``, each slot group sorted as far as the
    segment reaches."""
    prefixes = dict.fromkeys(t[:-1] for t in canonical_tuples(a.dim, degrees))
    return [p for p in prefixes if all(
        sorted_image(g, p[:k], degrees) >= p[:k] for k in range(1, len(p) + 1) for g in group)]


def expected_blocks(a, degrees, group):
    """The blocks the loop compares, each a list of tuples in field order.

    Given automorphisms, each surviving prefix (every slot but the last) is
    followed by every index of the last slot.  Given none, the first prefix
    is so followed, and after it the loop packs slot last - 1's run, below
    each prefix of the slots before it, with every index of the last slot:
    the full square."""
    prefixes = surviving_prefixes(a, degrees, group)
    if group:
        return [[p + (i,) for i in range(a.dim)] for p in prefixes]
    blocks = [[prefixes[0] + (i,) for i in range(a.dim)]]
    for _, below in itertools.groupby(prefixes[1:], key=lambda p: p[:-1]):
        blocks.append([p + (i,) for p in below for i in range(a.dim)])
    return blocks


def assert_visited_representatives(visited, a, degrees, verdict, group=None):
    """The loop, given the non-identity elements ``group`` (all of G when
    None), compared the ``expected_blocks``, cut at the end of the witness's
    block.  Those tuples hold every representative of G, and the witness is
    one."""
    assert a.support == tuple(range(a.dim))  # no null index: every slot runs over range(dim)
    group = group_of(a) if group is None else group
    blocks = expected_blocks(a, degrees, group)
    reps = lex_min_representatives(a, degrees)
    assert set(reps) <= {t for b in blocks for t in b}
    if not verdict.passed:
        w = verdict.witness.indices
        assert w in reps
        blocks = blocks[:next(k for k, b in enumerate(blocks) if w in b) + 1]
    assert visited == [t for b in blocks for t in b]


def plain_verdict(a, name):
    """Oracle: the polarized words at every non-decreasing basis tuple, in lex order,
    each product a sum over ``sparse_rows`` in rationals; the witness's sides
    come from ``polarized_sides``."""
    plan = polarized_plan(name)
    rows = a.sparse_rows

    def side(words, t):
        def value(word):
            if isinstance(word, int):
                return {t[word]: 1}
            out = {}
            for x, u in value(word[0]).items():
                for y, w in value(word[1]).items():
                    for k, c in rows[x][y]:
                        out[k] = out.get(k, 0) + u * w * c
            return out

        acc = {}
        for sign, word in words:
            for k, v in value(word).items():
                acc[k] = acc.get(k, 0) + sign * v
        return {k: v for k, v in acc.items() if v}

    for t in canonical_tuples(a.dim, plan.identity.multidegree):
        if side(plan.lhs, t) != side(plan.rhs, t):
            lhs, rhs = polarized_sides(a, name, t)
            return Verdict.fail(Witness(t, tuple(a.basis_vector(i) for i in t), lhs, rhs))
    return Verdict.ok()


def packed_plain_verdict(a, name):
    """The packed loop of ``_basis_verdict`` with no automorphism listed."""
    sched = identities._plan_schedule(name)
    rows, denom, cmax = a.integer_rows
    return identities._basis_verdict(
        a, sched, rows, a.support, cmax, *identities._weighted(sched, denom))


@pytest.fixture
def always_use_group(monkeypatch):
    """Take the orbit-reduced path for every plan, whatever its size."""
    monkeypatch.setattr(identities, "_TUPLES_PER_UNIT", 0)


class PhantomLeaves:
    """Records the latest ``_phantom_leaf`` call: the phantom leaf {n: 1} it made,
    the packed leaf L it stands for, the rows without index n and the list of
    rows with it, whose cells of index n are filled as products read them.
    ``read`` gives that phantom leaf back as its L, any other value as it is."""

    def __init__(self, monkeypatch):
        self.pair = self.leaf = self.plain_rows = self.rows = None
        original = identities._phantom_leaf

        def record(rows, leaf, beside):
            self.leaf, self.plain_rows = leaf, rows
            self.pair, self.rows, fill = original(rows, leaf, beside)
            return self.pair, self.rows, fill

        monkeypatch.setattr(identities, "_phantom_leaf", record)

    def read(self, value):
        return self.leaf if value is self.pair else value


@pytest.fixture
def visited(monkeypatch):
    """Records, in ``tuples``, each basis tuple of ``slots`` indices at which the
    loop compares the two sides, in order, repeats kept: the loop compares a
    packed block at once: the prefix's indices followed by each key of slot
    last - 1's leaf, one unless it is packed with the last slot, and each key
    of the last slot's leaf, in field order, a phantom leaf read as its L.
    The witness's sides, summed again inside ``_failure``, are not a
    comparison and are not recorded."""
    seen = {"slots": 0, "tuples": [], "witness": False}
    original_sum, original_failure = identities._signed_sum, identities._failure
    phantom = PhantomLeaves(monkeypatch)

    def record(roots, vals):
        if not seen["witness"]:
            last = seen["slots"] - 1
            prefix = tuple(next(iter(vals[s])) for s in range(last - 1))
            seen["tuples"] += [prefix + (i, j) for i in vals[last - 1]
                               for j in phantom.read(vals[last])]
        return original_sum(roots, vals)

    def failure(*args):
        seen["witness"] = True
        try:
            return original_failure(*args)
        finally:
            seen["witness"] = False

    monkeypatch.setattr(identities, "_signed_sum", record)
    monkeypatch.setattr(identities, "_failure", failure)
    return seen


@pytest.mark.parametrize("n, seed", [(2, 1), (3, 2), (4, 3), (4, 4)])
def test_matrix_units_have_symmetric_group(n, seed):
    a = shuffled_matrix_algebra(n, seed)
    group = group_of(a)
    assert len(set(group)) == math.factorial(n)
    assert all(is_automorphism(a, g) for g in a.automorphisms.generators + group)


def test_commutator_m3_has_symmetric_group():
    c = commutator(shuffled_matrix_algebra(3, 5))
    group = group_of(c)
    assert len(set(group)) == 6
    assert all(is_automorphism(c, g) for g in c.automorphisms.generators + group)


def test_every_found_permutation_is_an_automorphism(all_materialized):
    """Any group found is sound, also where it is trivial or partial, and the
    search ran over ``Algebra.support``, the mentioned indices."""
    from genalgebras import mixed_denominator_algebra

    algebras = [a for m in all_materialized.values() for a in m.algebras.values()]
    algebras += [mixed_denominator_algebra(random.Random(s), 3, (1, 2, 3)) for s in range(4)]
    algebras += [make_algebra(4, []), hadamard_algebra(2, 2), commutator(matrix_algebra(2)),
                 make_algebra(3, [(0, 0, 2, 1)])]
    for a in algebras:
        assert a.support == tuple(sorted(mentioned(a)))
        for g in a.automorphisms.generators + group_of(a):
            assert is_automorphism(a, g)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 7, 23, 24, 100])
def test_close_is_a_breadth_first_prefix(limit):
    """M4's S_4 (23 non-identity elements): the first ``limit`` of them in
    breadth-first order from the generators, each an automorphism."""
    a = shuffled_matrix_algebra(4, 3)
    gens = a.automorphisms.generators
    whole = symmetry.close(gens, a.dim, math.factorial(a.dim))
    out = symmetry.close(gens, a.dim, limit)
    assert out == whole[:limit]
    assert all(is_automorphism(a, g) for g in out)
    assert out[:len(gens)] == gens[:limit]
    length = {tuple(range(a.dim)): 0}  # breadth first: shortest words in the generators first
    for h in whole:
        length[h] = 1 + min(length[e] for e in length for g in gens if tuple(g[x] for x in e) == h)
    assert list(length.values()) == sorted(length.values())


_BOUNDED = {f"M{n}": (lambda n=n: matrix_algebra(n)) for n in range(2, 7)}
_BOUNDED.update({f"hadamard{n}{n}": (lambda n=n: hadamard_algebra(n, n)) for n in range(2, 6)})
_BOUNDED.update({"null25": lambda: make_algebra(25, []), "null3": lambda: make_algebra(3, [])})


@pytest.mark.parametrize("label", _BOUNDED)
def test_the_element_list_is_bounded_by_the_input(label):
    """The list holds at most the mentioned indices plus the nonzero
    constants, however large G is (S_n on M_n, S_dim on a Hadamard algebra,
    where the search finds all of it), and the verdicts are the plain ones."""
    a = _BOUNDED[label]()
    elements = a.automorphisms.elements
    assert len(elements) <= input_size(a)
    assert len(set(elements)) == len(elements) and tuple(range(a.dim)) not in elements
    if a.dim <= 16:
        assert all(is_automorphism(a, g) for g in elements)
    if not label.startswith("M"):
        assert a.automorphisms.order_bound == math.factorial(len(mentioned(a)))
    for name in IDENTITY_NAMES:
        verdict = check_identity(a, name)
        # a failing verdict stops early in the rational oracle; a passing one
        # past dim 9 would take it minutes, so the packed plain loop, itself
        # checked against the oracle on small algebras, stands in
        plain = plain_verdict if a.dim <= 9 or not verdict.passed else packed_plain_verdict
        assert repr(verdict) == repr(plain(a, name)), name


def incident(a):
    """The entries around each index, as ``find_generators`` hands them to ``_refine``."""
    out = [[] for _ in range(a.dim)]
    for i, row in enumerate(a.sparse_rows):
        for j, e in enumerate(row):
            for k, v in e:
                for x in {i, j, k}:
                    out[x].append(tuple(a.dim if y == x else y for y in (i, j, k)) + (v,))
    return out


def test_refinement_stops_at_a_stable_colouring():
    """Indices of one colour take part in alike entries, read through the
    colours.  Along the chain e_i e_i = e_(i+1) a round tells apart one more
    index from each end, so only a refinement run to the end makes its 7
    indices distinct, as its trivial group allows."""
    chain = make_algebra(7, [(i, i, i + 1, 1) for i in range(6)])
    for a in (chain, matrix_algebra(3), hadamard_algebra(2, 2), commutator(matrix_algebra(2))):
        entries = incident(a)
        colour = symmetry._refine([0] * a.dim, entries)
        c = colour + [-1]
        around = [sorted((c[i], c[j], c[k], v) for i, j, k, v in e) for e in entries]
        for x, y in itertools.combinations(range(a.dim), 2):
            assert colour[x] != colour[y] or around[x] == around[y]
    assert len(set(symmetry._refine([0] * 7, incident(chain)))) == 7


def test_a_null_block_never_enters_the_search(monkeypatch):
    """The search runs over the indices some constant mentions: none here."""
    calls = []
    original = symmetry._refine
    monkeypatch.setattr(symmetry, "_refine", lambda *args: calls.append(1) or original(*args))
    a = make_algebra(60, [])
    assert a.automorphisms.generators == () and a.automorphisms.order_bound == 1
    assert len(calls) <= 1


def test_the_search_fixes_unmentioned_indices():
    """M2 in the indices 1, 3, 4, 6 of seven: its group, lifted, fixes 0, 2 and 5."""
    m = matrix_algebra(2)
    at = (1, 3, 4, 6)
    a = make_algebra(7, [(at[i], at[j], at[k], v) for i, row in enumerate(m.sparse_rows)
                         for j, e in enumerate(row) for k, v in e])
    group = group_of(a)
    assert len(set(group)) == 2
    assert all(is_automorphism(a, g) and g[0] == 0 and g[2] == 2 and g[5] == 5 for g in group)


_VISITED_CASES = [(name, label) for label in ("M3", "commutator(M3)") for name in IDENTITY_NAMES]
_VISITED_CASES += [(name, "M4") for name in ("flexible", "jordan_flex", "jordan_main")]


def visited_algebra(label):
    a = shuffled_matrix_algebra(4 if label == "M4" else 3, 7)
    return commutator(a) if label == "commutator(M3)" else a


@pytest.mark.parametrize("name, label", _VISITED_CASES, ids=[f"{n}-{l}" for n, l in _VISITED_CASES])
def test_visited_tuples_are_the_lex_min_representatives(always_use_group, visited, label, name):
    a = visited_algebra(label)
    degrees = identities.get_identity(name).multidegree
    visited["slots"] = sum(degrees)
    assert_visited_representatives(visited["tuples"], a, degrees, check_identity(a, name))


@pytest.mark.parametrize("subset", ["none", "generators", "three"])
@pytest.mark.parametrize("name, label", _VISITED_CASES, ids=[f"{n}-{l}" for n, l in _VISITED_CASES])
def test_a_subset_of_the_group_visits_the_blocks_it_leaves(visited, label, name, subset):
    """Given only some automorphisms (none, the generators, or the last three
    elements of G), the loop compares the blocks of the prefixes they leave,
    pair blocks when none is given, which hold every representative of G,
    and its verdict is the plain one."""
    a = visited_algebra(label)
    group = {"none": (), "generators": a.automorphisms.generators,
             "three": group_of(a)[-3:]}[subset]
    assert (subset == "none") == (not group) and len(group) < len(group_of(a)) - 1
    degrees = identities.get_identity(name).multidegree
    sched = identities._plan_schedule(name)
    rows, denom, cmax = a.integer_rows
    visited["slots"] = sum(degrees)
    verdict = identities._basis_verdict(
        a, sched, rows, a.support, cmax, *identities._weighted(sched, denom), group)
    assert_visited_representatives(visited["tuples"], a, degrees, verdict, group)
    assert repr(verdict) == repr(plain_verdict(a, name))


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("shape", [(2, 2), (2, 3)], ids=["hadamard22", "hadamard23"])
def test_a_truncated_element_list_visits_the_blocks_it_leaves(always_use_group, visited,
                                                              shape, name):
    """S_4 and S_6 have more elements than the input's size, so the list is cut
    short; the loop still visits every representative of G."""
    a = hadamard_algebra(*shape)
    group = a.automorphisms.elements
    assert len(group) == input_size(a) < math.factorial(a.dim) - 1
    degrees = identities.get_identity(name).multidegree
    visited["slots"] = sum(degrees)
    verdict = check_identity(a, name)
    assert_visited_representatives(visited["tuples"], a, degrees, verdict, group)
    assert repr(verdict) == repr(plain_verdict(a, name))


# Words whose repeated variable follows a single one, or a second repeated
# one, so the loop prunes inside a slot group whose alive elements are a
# proper stabilizer, and then a variable w of degree one, as every
# identity's last variable is: multidegree and (lhs, rhs) in x, y, w = 0, 1, 2.
_TIED_AFTER_CLOSED = {
    "xy.y.w=x.yy.w": ((1, 2, 1), ((1, (((0, 1), 1), 2)),), ((1, ((0, (1, 1)), 2)),)),
    "xy.xy.w=xx.yy.w": ((2, 2, 1), ((1, (((0, 1), (0, 1)), 2)),),
                        ((1, (((0, 0), (1, 1)), 2)),)),
}


@pytest.mark.parametrize("listed", ["group", "none"])
@pytest.mark.parametrize("words", _TIED_AFTER_CLOSED)
@pytest.mark.parametrize("label", ["M2", "M3", "commutator(M3)"])
def test_tied_slots_after_a_closed_group_visit_the_lex_min_representatives(visited, label, words,
                                                                          listed):
    """Given G, the loop prunes inside the tied group; given nothing, it packs
    the last pair as a full square.  Both visit every representative of G
    and give one verdict."""
    a = shuffled_matrix_algebra(3 if label != "M2" else 2, 12)
    if label == "commutator(M3)":
        a = commutator(a)
    degrees, lhs, rhs = _TIED_AFTER_CLOSED[words]
    offsets = [sum(degrees[:v]) for v in range(len(degrees))]
    groups = tuple(tuple(range(o, o + d)) for o, d in zip(offsets, degrees) if d > 1)
    sched = identities._schedule(
        sum(degrees),
        identities._polarize_words(lhs, degrees, offsets),
        identities._polarize_words(rhs, degrees, offsets),
        groups,
    )
    rows, denom, cmax = a.integer_rows
    weighted = identities._weighted(sched, denom)
    visited["slots"] = sum(degrees)
    group = group_of(a)[1:] if listed == "group" else ()
    other = identities._basis_verdict(a, sched, rows, a.support, cmax, *weighted,
                                      group_of(a)[1:] if not group else ())
    visited["tuples"].clear()
    verdict = identities._basis_verdict(a, sched, rows, a.support, cmax, *weighted, group)
    assert_visited_representatives(visited["tuples"], a, degrees, verdict, group)
    assert repr(verdict) == repr(other)


def _witness_algebras(all_materialized):
    from genalgebras import mixed_denominator_algebra

    out = [(f"{f}:{n}", a) for f, m in all_materialized.items() for n, a in m.algebras.items()]
    for seed in range(6):
        rng = random.Random(seed)
        out.append((f"mixed{seed}", mixed_denominator_algebra(rng, rng.randint(2, 4), (1, 2, 3, 7, 12))))
    out += [("M3", shuffled_matrix_algebra(3, 8)), ("M4", shuffled_matrix_algebra(4, 9)),
            ("commutator(M3)", commutator(shuffled_matrix_algebra(3, 10)))]
    return out


@pytest.mark.parametrize("forced", [False, True], ids=["cost_rule", "always_group"])
def test_verdicts_and_witnesses_equal_the_plain_loop(monkeypatch, all_materialized, forced):
    if forced:
        monkeypatch.setattr(identities, "_TUPLES_PER_UNIT", 0)
    for label, a in _witness_algebras(all_materialized):
        for name in IDENTITY_NAMES:
            assert repr(check_identity(a, name)) == repr(plain_verdict(a, name)), (label, name)


def test_cost_rule_keeps_small_algebras_on_the_plain_loop(monkeypatch, all_materialized):
    """Fixture algebras (dim <= 6) never start a search; M4 does, for jordan_main."""
    searched = []
    monkeypatch.setattr(symmetry, "find_generators",
                        lambda dim, rows: searched.append(dim) or ((), 1))
    for m in all_materialized.values():
        for a in m.algebras.values():
            a.__dict__.pop("automorphisms", None)
            for name in IDENTITY_NAMES:
                check_identity(a, name)
    assert searched == []
    check_identity(shuffled_matrix_algebra(4, 11), "jordan_main")
    assert searched == [16]

import gc
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from nonassoc.algebra import Element, matrix_algebra
from nonassoc.constructions import construction, derive
from nonassoc.errors import GridError, NonassocError
from nonassoc.identities import (
    IDENTITIES,
    IDENTITY_NAMES,
    ParamSpec,
    certify_parametric,
    check_identity,
    check_identity_random,
    _CHUNK_COORDS,
    _Drawer,
    _plan_schedule,
    _raw_schedule,
    _unscaled,
    polarized_plan,
)
from nonassoc.verdicts import Verdict, Witness


def random_element(a, drawer):
    """An element as ``check_identity_random`` draws it from ``drawer``, one
    ``_Drawer`` per rng: small rational coordinates, mostly integers, some halves."""
    return _unscaled(dict(enumerate(drawer.take(a.dim))), a.dim, 2)


def test_catalog_names_and_multidegrees():
    expected = {
        "antisymmetry": (1, 1),
        "commutativity": (1, 1),
        "associativity": (1, 1, 1),
        "jacobi": (1, 1, 1),
        "left_leibniz": (1, 1, 1),
        "left_prelie": (1, 1, 1),
        "novikov_right_comm": (1, 1, 1),
        "flexible": (2, 1),
        "jordan_flex": (2, 1),
        "jordan_main": (3, 1),
    }
    assert {n: IDENTITIES[n].multidegree for n in IDENTITY_NAMES} == expected


def test_unknown_identity():
    with pytest.raises(NonassocError):
        check_identity(matrix_algebra(2), "no_such_identity")


def test_null_algebra_passes_everything(null2):
    for name in IDENTITY_NAMES:
        assert check_identity(null2, name).passed


def test_commutator_bracket_is_lie(m2):
    comm = derive(m2, None, construction("commutator"))
    assert check_identity(comm, "jacobi").passed
    assert check_identity(comm, "antisymmetry").passed
    assert not check_identity(comm, "commutativity").passed


def test_matrix_algebra_identities(m3):
    # associativity-dependent identities hold, commutator-type ones fail
    assert check_identity(m3, "associativity").passed
    assert check_identity(m3, "flexible").passed
    assert check_identity(m3, "jordan_flex").passed
    assert check_identity(m3, "jordan_main").passed
    assert check_identity(m3, "left_prelie").passed
    assert not check_identity(m3, "jacobi").passed
    assert not check_identity(m3, "antisymmetry").passed


def evaluate_identity_sides(a, name, elems):
    """Oracle: the raw lhs/rhs of the identity at ``elems``, by a recursive walk
    of its words with ``Algebra.product`` (repeated variables stay repeated)."""
    ident = IDENTITIES[name]
    assert len(elems) == len(ident.variables)

    def value(word):
        if type(word) is int:
            return elems[word]
        left, right = word
        return a.product(value(left), value(right))

    def side(signed_words):
        acc = a.zero()
        for coef, word in signed_words:
            acc = acc + coef * value(word)
        return acc

    return side(ident.lhs), side(ident.rhs)


def check_identity_direct(a, name):
    """Oracle: the raw identity on every basis tuple, exact only when it is
    multilinear; the witness is the lexicographically first failing tuple."""
    ident = IDENTITIES[name]
    if any(d != 1 for d in ident.multidegree):
        raise NonassocError(f"direct basis checking is not exact for {name}")
    for tup in itertools.product(range(a.dim), repeat=len(ident.variables)):
        elems = tuple(a.basis_vector(i) for i in tup)
        lhs, rhs = evaluate_identity_sides(a, name, elems)
        if lhs != rhs:
            return Verdict.fail(Witness(tup, elems, lhs, rhs))
    return Verdict.ok()


def brute_force_verdict(a, name, samples, seed):
    """Independent oracle: raw identity at exhaustive small-integer tuples."""
    ident = IDENTITIES[name]
    arity = len(ident.variables)
    rng = random.Random(seed)
    for _ in range(samples):
        elems = tuple(
            Element(tuple(rng.randint(-3, 3) for _ in range(a.dim)))
            for _ in range(arity)
        )
        lhs, rhs = evaluate_identity_sides(a, name, elems)
        if lhs != rhs:
            return False
    return True


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_polarized_agrees_with_brute_force(name, all_materialized):
    """Dual route: polarized basis checking vs direct random evaluation."""
    f3 = all_materialized["F3"]
    for alg_name in ("A", "plus", "jordan1"):
        a = f3.algebras[alg_name]
        assert check_identity(a, name).passed == brute_force_verdict(a, name, 150, 23)


def test_polarization_consistency_multilinear(all_materialized):
    """For multidegree-1 identities the polarized and direct paths coincide."""
    for m in all_materialized.values():
        for a in m.algebras.values():
            for name in IDENTITY_NAMES:
                if all(d == 1 for d in IDENTITIES[name].multidegree):
                    assert (
                        check_identity(a, name).passed
                        == check_identity_direct(a, name).passed
                    )


def test_direct_path_rejects_nonmultilinear(m2):
    with pytest.raises(NonassocError):
        check_identity_direct(m2, "flexible")


def test_polarized_plan_shapes():
    plan = polarized_plan("jordan_main")
    assert plan.slots == 4
    assert plan.groups == ((0, 1, 2),)
    # 3! assignments for each of the lhs/rhs words
    assert len(plan.lhs) == 6 and len(plan.rhs) == 6
    flex = polarized_plan("flexible")
    assert flex.slots == 3 and flex.groups == ((0, 1),)
    assert len(flex.lhs) == 2 and len(flex.rhs) == 2
    jac = polarized_plan("jacobi")
    assert jac.slots == 3 and jac.groups == ()


def compound_subwords(words) -> set:
    """The distinct product and R subwords of signed words: one step each when
    the words are compiled without factoring."""
    seen, stack = set(), [w for _, w in words]
    while stack:
        w = stack.pop()
        if not isinstance(w, int) and w not in seen:
            seen.add(w)
            stack.extend(w[1:] if w[0] == "R" else w)
    return seen


def product_steps(steps) -> int:
    return sum(1 for _, left, _ in steps if left is not None)


def leaves(word) -> list:
    if isinstance(word, int):
        return [word]
    return [s for w in (word[1:] if word[0] == "R" else word) for s in leaves(w)]


def test_jordan_main_schedule_is_factored():
    """Grouped by outer operand, the 6 + 6 polarized words of jordan_main are
    3 + 3 roots, and the innermost loop depth computes 12 products, not 21."""
    plan = polarized_plan("jordan_main")
    unfactored = compound_subwords(plan.lhs + plan.rhs)
    assert sum(1 for w in unfactored if max(leaves(w)) == plan.slots - 1) == 21
    sched = _plan_schedule("jordan_main")
    assert len(sched.lhs) == 3 and len(sched.rhs) == 3
    assert product_steps(sched.steps[-1]) == 12
    assert all(coef == 1 and (p, q) == (3, 0) for coef, _, p, q in sched.lhs + sched.rhs)


def test_factoring_never_adds_products():
    from nonassoc import constructions, operators

    compiled = [(polarized_plan(n).lhs + polarized_plan(n).rhs, _plan_schedule(n))
                for n in IDENTITY_NAMES]
    compiled += [(IDENTITIES[n].lhs + IDENTITIES[n].rhs, _raw_schedule(n)) for n in IDENTITY_NAMES]
    compiled += [(k.lhs + k.rhs, operators._SCHEDULES[kind])
                 for kind, k in operators.PROPERTY_KINDS.items()]
    compiled += [(c.words, constructions._SCHEDULES[name])
                 for name, c in constructions.CATALOG.items()]
    for words, sched in compiled:
        assert sum(map(product_steps, sched.steps)) <= len(compound_subwords(words))
    # R(R(x) y) + R(x R(y)) is R(R(x) y + x R(y)): one root and one R step fewer
    rota = operators._SCHEDULES["rota_baxter"]
    assert len(rota.rhs) == 2
    assert sum(map(product_steps, rota.steps)) == 8


def test_witness_is_lexicographically_first_and_reproducible(m3):
    verdict = check_identity(m3, "antisymmetry")
    assert not verdict.passed
    w = verdict.witness
    assert w.indices == (0, 0)
    lhs, rhs = evaluate_identity_sides(m3, "antisymmetry", w.inputs)
    assert lhs == w.lhs and rhs == w.rhs and lhs != rhs


def test_witness_reevaluation_on_derived(all_materialized):
    plus = all_materialized["F3"].algebras["plus"]
    verdict = check_identity(plus, "associativity")
    assert not verdict.passed
    lhs, rhs = evaluate_identity_sides(plus, "associativity", verdict.witness.inputs)
    assert lhs == verdict.witness.lhs and rhs == verdict.witness.rhs and lhs != rhs


def polarized_sides(a, name, tup):
    """Independent oracle: the polarized words of ``name`` at the basis tuple
    ``tup``, evaluated with ``Algebra.product`` on basis vectors."""
    plan = polarized_plan(name)

    def value(word):
        if isinstance(word, int):
            return a.basis_vector(tup[word])
        return a.product(value(word[0]), value(word[1]))

    def side(words):
        acc = a.zero()
        for sign, word in words:
            acc = acc + sign * value(word)
        return acc

    return side(plan.lhs), side(plan.rhs)


def first_failing_tuple(a, name):
    """Lexicographically first failing tuple of the FULL enumeration, or None."""
    for tup in itertools.product(range(a.dim), repeat=polarized_plan(name).slots):
        lhs, rhs = polarized_sides(a, name, tup)
        if lhs != rhs:
            return tup
    return None


def test_symmetric_reduction_preserves_minimal_witness():
    """The engine enumerates non-decreasing tuples within each polarized
    symmetry group; the resulting witness must equal the lexicographically
    first failing tuple of the FULL enumeration (valid because the
    polarized form is symmetric in each group, so sorting a failing tuple
    yields an earlier failing tuple)."""
    from genalgebras import row_algebra_with_projection

    # a twisted algebra known to fail the degree-(3,1) identity
    rng = random.Random(800)
    a, r = row_algebra_with_projection(rng, 2)
    plus = derive(a, None, construction("jordan_plus"))
    twisted = derive(plus, r, construction("jordan_endo_left"))

    for name in ("jordan_main", "jordan_flex", "flexible"):
        verdict = check_identity(twisted, name)
        if verdict.passed:
            continue
        first_full = first_failing_tuple(twisted, name)
        assert first_full is not None
        assert verdict.witness.indices == first_full
    # at least jordan_main must have failed for the comparison to be meaningful
    assert not check_identity(twisted, "jordan_main").passed


def test_every_failing_witness_reproduces_inequality(all_materialized):
    """Witness validity, swept across all catalog algebras and identities.

    The polarized check reduces each identity to a multilinear form whose
    vanishing on basis tuples is equivalent (over a characteristic-zero
    field) to the identity holding for all elements; a failing tuple must
    therefore re-evaluate to genuinely unequal sides of that form.
    """
    swept = 0
    for m in all_materialized.values():
        for a in m.algebras.values():
            for name in IDENTITY_NAMES:
                verdict = check_identity(a, name)
                if verdict.passed:
                    continue
                lhs, rhs = polarized_sides(a, name, verdict.witness.indices)
                assert lhs == verdict.witness.lhs and rhs == verdict.witness.rhs
                assert lhs != rhs
                swept += 1
    assert swept > 10  # plenty of failing pairs exist in the catalog


@pytest.mark.parametrize(
    "seed, denominators",
    [(seed, (1, 2, 3, 7, 12)) for seed in range(6)]
    # a dim-4 algebra whose lcm D exceeds 2^64, so D^(m-1) does for every identity
    + [(103, (2, 3, 7, 12, 2**31 - 1, 2**61 - 1))],
)
def test_integer_scaling_matches_rational_oracle(seed, denominators):
    """The engine runs on structure constants scaled to integers; its verdicts
    and unscaled witness sides must match exact rational evaluation."""
    from genalgebras import mixed_denominator_algebra

    rng = random.Random(seed)
    a = mixed_denominator_algebra(rng, rng.randint(2, 4), denominators)
    denom = lcm(*(v.denominator for row in a.sparse_rows for e in row for _, v in e))
    assert denom > 1
    if 2**61 - 1 in denominators:
        assert a.dim == 4 and denom > 2**64
    for name in IDENTITY_NAMES:
        verdict = check_identity(a, name)
        first = first_failing_tuple(a, name)
        assert verdict.passed == (first is None)
        if first is None:
            continue
        w = verdict.witness
        assert w.indices == first
        lhs, rhs = polarized_sides(a, name, first)
        assert (w.lhs, w.rhs) == (lhs, rhs)
        assert list(map(type, w.lhs.coords + w.rhs.coords)) == list(
            map(type, lhs.coords + rhs.coords)
        )


def oracle_random_verdict(a, name, trials, seed):
    """Independent oracle: rational evaluation of the raw identity, trial by
    trial, at elements drawn as ``random_element`` has always drawn them."""
    rng = random.Random(seed)

    def element():
        coords = []
        for _ in range(a.dim):
            num = rng.randint(-6, 6)
            if rng.randrange(4) == 0 and num % 2:
                coords.append(Fraction(num, 2))
            else:
                coords.append(num)
        return Element(tuple(coords))

    for _ in range(trials):
        elems = tuple(element() for _ in IDENTITIES[name].variables)
        lhs, rhs = evaluate_identity_sides(a, name, elems)
        if lhs != rhs:
            return Verdict.fail(Witness((), elems, lhs, rhs))
    return Verdict.ok()


_BIG = (2, 3, 7, 12, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize(
    "dim, alg_seed, denominators",
    [(1, 1, (1, 2, 3, 7, 12))] + [(dim, 0, (1, 2, 3, 7, 12)) for dim in (2, 3, 4)]
    # lcm D > 2^64 in dims 2-4, and D = 2^61 - 1 in dim 1
    + [(1, 4, _BIG)] + [(dim, 0, _BIG) for dim in (2, 3, 4)],
)
def test_integer_random_path_matches_rational_oracle(dim, alg_seed, denominators):
    """The random corroborator evaluates in int on doubled inputs and scaled
    structure constants; its verdicts, witness inputs and sides (coordinate
    types included) must be those of rational evaluation on the same draws."""
    from genalgebras import mixed_denominator_algebra

    a = mixed_denominator_algebra(random.Random(alg_seed), dim, denominators)
    denom = lcm(*(v.denominator for row in a.sparse_rows for e in row for _, v in e))
    assert denom > 1
    if denominators is _BIG:
        assert denom > 2**64 or (dim == 1 and denom == 2**61 - 1)
    # the symmetrized product passes the commutative identities, so those
    # verdicts run every trial
    plus = derive(a, None, construction("jordan_plus"))
    passed = 0
    for alg in (a, plus):
        for name in IDENTITY_NAMES:
            for seed in (0, 1, 17):
                for trials in (1, 7, 100):
                    verdict = check_identity_random(alg, name, trials, seed)
                    assert repr(verdict) == repr(oracle_random_verdict(alg, name, trials, seed))
                    passed += verdict.passed
    assert passed >= 3 * 3 * 3


# The trials run in chunks of 1, 4, 16 and 64 trials, so chunks end after
# trials 1, 5, 21 and 85.
_CHUNK_EDGES = (1, 2, 5, 6, 21, 22, 85, 86)


@pytest.mark.parametrize("denominators", [(1, 2, 3, 7, 12), _BIG], ids=["small", "big"])
def test_random_verdicts_across_chunk_boundaries_match_the_oracle(denominators):
    """Both ``mixed_denominator_algebra`` families of
    ``test_integer_random_path_matches_rational_oracle``, at trial counts on
    either side of each chunk boundary: verdicts, witness inputs and sides
    are the rational oracle's."""
    from genalgebras import mixed_denominator_algebra

    passed = 0
    for dim, alg_seed in ((1, 1 if denominators[0] == 1 else 4), (2, 0), (3, 0)):
        a = mixed_denominator_algebra(random.Random(alg_seed), dim, denominators)
        for alg in (a, derive(a, None, construction("jordan_plus"))):
            for name in IDENTITY_NAMES:
                for trials in _CHUNK_EDGES:
                    verdict = check_identity_random(alg, name, trials, 3)
                    assert repr(verdict) == repr(oracle_random_verdict(alg, name, trials, 3)), (
                        dim, name, trials)
                    passed += verdict.passed
    assert passed >= 3 * len(_CHUNK_EDGES)


@pytest.mark.parametrize("seed, first_failing", [(1, 1), (7, 2), (0, 3), (159, 4), (482, 5),
                                                 (250, 6), (12726, 7)])
def test_a_later_trial_fails_as_the_oracle_says(seed, first_failing):
    """On a one-dimensional commutative algebra, jacobi is 3 x y z, so a trial
    passes when a coordinate drawn is 0, and these seeds first fail at each
    trial from 1 to 7, within a chunk and just past its end alike."""
    from nonassoc.algebra import make_algebra

    a = make_algebra(1, [(0, 0, 0, 1)])
    if first_failing > 1:
        assert oracle_random_verdict(a, "jacobi", first_failing - 1, seed).passed
    for trials in (first_failing, 22):
        verdict = check_identity_random(a, "jacobi", trials, seed)
        assert not verdict.passed
        assert repr(verdict) == repr(oracle_random_verdict(a, "jacobi", trials, seed))


def test_a_huge_trial_count_reads_the_generator_in_bounded_chunks(monkeypatch):
    """``trials=10**9`` on a passing verdict: the first read is for the first
    trial's 6 coordinates, and the reads grow to the chunk bound and stay
    under it, at most 4 words per coordinate of ``_CHUNK_COORDS``.  The
    generator stops the verdict after 40 reads."""
    from nonassoc import identities
    from nonassoc.algebra import make_algebra

    class Enough(Exception):
        pass

    sizes = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def getrandbits(self, k):
            sizes.append(k)
            if len(sizes) == 40:
                raise Enough
            return self.rng.getrandbits(k)

    drawer = identities._Drawer
    monkeypatch.setattr(identities, "_Drawer", lambda rng: drawer(Recording(rng)))
    a = make_algebra(2, [(0, 0, 0, 1), (1, 1, 1, 1)])  # associative: every trial passes
    with pytest.raises(Enough):
        check_identity_random(a, "associativity", 10**9, 5)
    assert sizes[0] <= 32 * 5 * 6
    assert max(sizes) <= 32 * 4 * _CHUNK_COORDS
    assert sum(k >= 32 * 3 * _CHUNK_COORDS for k in sizes) >= 20


_DENSE_DIM60_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from nonassoc.algebra import make_algebra
from nonassoc.identities import check_identity_random
from test_identities import oracle_random_verdict
n = 60
a = make_algebra(n, [(i, j, k, 1) for i in range(n) for j in range(n) for k in range(n)])
for name in ("associativity", "antisymmetry"):
    verdict = check_identity_random(a, name, 2, 1)
    assert repr(verdict) == repr(oracle_random_verdict(a, name, 2, 1)), name
    print(name, verdict.passed)
"""


def test_random_trials_compile_a_dense_dim_60_product_in_bounded_memory():
    """Every constant of a dim-60 algebra is 1: its generated product sums
    3,600 terms per coordinate, 216,000 in all.  Compiled in bounded pieces,
    it runs under a 512 MiB address-space cap, and both verdicts (one pass,
    one witness) are the rational oracle's."""
    pytest.importorskip("resource")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run([sys.executable, "-c", _DENSE_DIM60_CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["associativity", "True", "antisymmetry", "False"]


def test_random_element_stream_is_pinned(m3):
    """The first two draws of seed 1 on M3, as recorded, coordinate types included."""
    drawer = _Drawer(random.Random(1))
    first, second = random_element(m3, drawer), random_element(m3, drawer)
    assert repr(first) == "Element(coords=(-4, -2, 1, 1, 6, -5, -6, 0, 5))"
    assert repr(second) == (
        "Element(coords=(-2, Fraction(3, 2), Fraction(-1, 2), -6, 4, 0, 0, 2, 6))"
    )


def randint_doubled_coords(dim, rng):
    """Reference draw of ``dim`` doubled coordinates through ``randint``/``randrange``."""
    out = {}
    for k in range(dim):
        num = rng.randint(-6, 6)
        h = num if rng.randrange(4) == 0 and num % 2 else 2 * num
        if h:
            out[k] = h
    return out


def test_drawer_takes_continue_the_randint_stream():
    """Successive takes of a drawer continue the reference's coordinates
    exactly, the reference drawing ``dim`` at a time.  A bulk read ends
    anywhere, so some takes leave the drawer between a coordinate's num word
    and its quarter word, the num's nibble in its tail; others leave whole
    coordinates over for the next take."""
    mid_coordinate = surplus = 0
    for seed in range(200):
        for dim in (1, 3, 9, 25):
            drawer, ref = _Drawer(random.Random(seed)), random.Random(seed)
            expected = []
            for size in (1, 2, 3, 5, 7, 50, dim, dim):
                while len(expected) < size:
                    coords = randint_doubled_coords(dim, ref)
                    expected += (coords.get(k, 0) for k in range(dim))
                assert drawer.take(size) == expected[:size], (seed, dim, size)
                del expected[:size]
                mid_coordinate += bool(drawer._tail)
                surplus += bool(drawer._coords)
    assert mid_coordinate > 1000 and surplus > 1000


def test_checks_leave_no_reference_cycles(m3):
    """A passing and a failing check (one on the orbit-reduced loop) and an
    operator check through ``check_words`` leave nothing to the cyclic collector."""
    from nonassoc.fixtures import load_fixture, materialize
    from nonassoc.operators import OperatorProperty, check_operator_property

    m = materialize(load_fixture("F1"))

    def checks():
        derivation = OperatorProperty("derivation")
        return (check_identity(m3, "jordan_main"), check_identity(m3, "jacobi"),
                check_operator_property(m.algebras["A"], m.operator, derivation))

    checks()  # build the caches and the automorphism group first
    gc.collect()
    gc.disable()
    try:
        verdicts = checks()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [v.passed for v in verdicts] == [True, False, False]


def test_random_checker_seed_determinism(m3):
    a = derive(m3, None, construction("jordan_plus"))
    v1 = check_identity_random(a, "associativity", 100, 5)
    v2 = check_identity_random(a, "associativity", 100, 5)
    assert v1 == v2
    assert not v1.passed
    lhs, rhs = evaluate_identity_sides(a, "associativity", v1.witness.inputs)
    assert lhs != rhs
    # the recorded witness of this seed
    w = v1.witness
    assert w.indices == ()
    assert w.inputs == (
        Element((3, 5, 6, 1, 4, -4, -1, -3, 2)),
        Element((3, -6, 0, -4, -4, -4, -4, -6, -3)),
        Element((-4, -2, -3, -4, 0, -6, 0, -4, -5)),
    )
    assert w.lhs == Element((648, 511, 598, 336, 604, 243, 278, 261, 296))
    assert w.rhs == Element((796, 1092, 1098, 34, 450, 40, 200, 198, 302))
    assert all(type(c) is int for e in w.inputs + (w.lhs, w.rhs) for c in e.coords)
    assert (lhs, rhs) == (w.lhs, w.rhs)


def test_random_checker_trial_validation(m3):
    with pytest.raises(NonassocError):
        check_identity_random(m3, "jacobi", 0, 1)
    with pytest.raises(NonassocError):  # random.Random(-1) would seed as 1
        check_identity_random(m3, "jacobi", 5, -1)


def test_soundness_pass_implies_random_pass(all_materialized):
    f1b = all_materialized["F1b"]
    lie = f1b.algebras["lie"]
    assert check_identity(lie, "jacobi").passed
    for seed in range(10):
        assert check_identity_random(lie, "jacobi", 100, seed).passed


def test_random_elements_are_small_exact(m3):
    e = random_element(m3, _Drawer(random.Random(1)))
    assert len(e.coords) == 9
    for v in e.coords:
        assert Fraction(v).denominator in (1, 2)


# Toy parametrized check: passes iff t^2 - t vanishes, degree 2 in t.
_SQUARE = (ParamSpec("t", 2, (0, 1, 2)),)


def test_certify_parametric_finds_failure_point():
    def check(point):
        t = point["t"]
        if t * t == t:
            return Verdict.ok()
        from nonassoc.verdicts import Witness
        return Verdict.fail(Witness((), (), t * t, t))

    res = certify_parametric(_SQUARE, check)
    assert not res.passed
    assert res.failing_point == {"t": 2}

    passing = certify_parametric(_SQUARE, lambda pt: Verdict.ok())
    assert passing.passed and passing.points_checked == 3


def test_certify_parametric_grid_too_small():
    with pytest.raises(GridError):
        certify_parametric(_SQUARE, lambda pt: Verdict.ok(), axes={"t": [1]})


def test_certify_parametric_rejects_excluded_values():
    guarded = (ParamSpec("t", 1, (1, 2), exclude=(0,)),)
    with pytest.raises(GridError):
        certify_parametric(guarded, lambda pt: Verdict.ok(), axes={"t": [0, 1]})

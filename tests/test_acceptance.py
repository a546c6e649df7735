"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s or -rA
to see them).  Everything is exact rational arithmetic; there are no
tolerances anywhere.

1. All 13 catalog fixtures reproduce row-exactly.
2. Construction chains hold on >= 100 randomized algebras each (dims 2-6),
   with hypotheses asserted exactly and non-fixture dimensions exercised.
3. Polarized checking and random evaluation agree on every fixture algebra
   and every catalog identity (10 seeds x 100 trials).
4. Each fixture's documented perturbation flips its targeted verdict.
5. Parametric grids certify the one-parameter and Rota-Baxter families for
   all rational parameter values.
6. The full identity suite on a dim-16 algebra finishes in under 5 seconds.
"""
import random
import time

from nonassoc.algebra import is_associative, is_commutative, matrix_algebra
from nonassoc.constructions import construction, derive
from nonassoc.fixtures import (
    certify_row,
    check_negative_control,
    list_fixtures,
    load_fixture,
    materialize,
    verify_fixture,
)
from nonassoc.identities import (
    IDENTITY_NAMES,
    check_identity,
    check_identity_random,
)
from nonassoc.operators import OperatorProperty, check_operator_property
from nonassoc.search import QuadraticConstraint, LinearConstraint, verify_element

from genalgebras import (
    entrywise_algebra_with_retraction,
    entrywise_with_averaging,
    null_algebra_with_root_operator,
    rota_baxter_setup,
    row_algebra_with_projection,
    truncated_poly_with_derivation,
)

CASES = 100
DIM_CYCLE = (2, 3, 4, 5, 6)

# subalgebra dimensions that occur in the fixture catalog; cases at other
# dimensions are non-fixture instances by construction
FIXTURE_DIMS = {1, 2, 3, 6}


def _report(criterion: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    import conftest

    conftest.acceptance_lines.append(line)
    assert passed, f"criterion {criterion} failed: {detail}"


# -- criterion 1 -----------------------------------------------------------

def test_acceptance_1_fixture_suite():
    failures = []
    rows = 0
    for name in list_fixtures():
        report = verify_fixture(name)
        rows += len(report.rows)
        if not report.passed:
            failures.append((name, [r.check for r in report.rows if not r.matched]))
    _report("1", not failures,
            f"all 13 fixtures reproduced, {rows} rows exact" if not failures
            else f"mismatches: {failures}")


# -- criterion 2: construction chains --------------------------------------

def _endo_idem_cases():
    """(A, R) with A associative, R multiplicative and idempotent; mixed
    non-commutative / commutative families, dims cycling 2..6."""
    for i in range(CASES):
        rng = random.Random(1000 + i)
        n = DIM_CYCLE[i % len(DIM_CYCLE)]
        if i % 2 == 0:
            a, r = row_algebra_with_projection(rng, n)
        else:
            a, r = entrywise_algebra_with_retraction(rng, n)
        yield i, a, r


def test_acceptance_2a_lie_chain():
    seen_dims = set()
    for i, a, r in _endo_idem_cases():
        assert is_associative(a).passed
        assert check_operator_property(a, r, OperatorProperty("endomorphism")).passed
        assert check_operator_property(a, r, OperatorProperty("idempotent_op")).passed
        lie = derive(a, r, construction("lie_endo"))
        assert check_identity(lie, "antisymmetry").passed, f"case {i}"
        assert check_identity(lie, "jacobi").passed, f"case {i}"
        seen_dims.add(a.dim)
    _report("2a", bool(seen_dims - FIXTURE_DIMS),
            f"{CASES} cases, dims {sorted(seen_dims)}, lie_endo is Lie")


def test_acceptance_2b_leibniz_chain():
    seen_dims = set()
    for i, a, r in _endo_idem_cases():
        leib = derive(a, r, construction("leibniz_endo"))
        assert check_identity(leib, "left_leibniz").passed, f"case {i}"
        leibc = derive(a, r, construction("leibniz_comm"))
        assert check_identity(leibc, "left_leibniz").passed, f"case {i}"
        seen_dims.add(a.dim)
    _report("2b", bool(seen_dims - FIXTURE_DIMS),
            f"{CASES} cases, dims {sorted(seen_dims)}, both brackets Leibniz")


def test_acceptance_2c_prelie_endo_chain():
    seen_dims = set()
    for i in range(CASES):
        rng = random.Random(3000 + i)
        n = DIM_CYCLE[i % len(DIM_CYCLE)]
        a, r = entrywise_algebra_with_retraction(rng, n)
        assert is_associative(a).passed and is_commutative(a).passed
        assert check_operator_property(a, r, OperatorProperty("endomorphism")).passed
        assert check_operator_property(a, r, OperatorProperty("idempotent_op")).passed
        for name in ("prelie_endo", "prelie_endo_alt"):
            p = derive(a, r, construction(name))
            assert check_identity(p, "left_prelie").passed, f"case {i} {name}"
        seen_dims.add(a.dim)
    _report("2c", bool(seen_dims - FIXTURE_DIMS),
            f"{CASES} cases, dims {sorted(seen_dims)}, twisted products pre-Lie")


def test_acceptance_2d_derivation_chain():
    seen_dims = set()
    nonzero_product_cases = 0
    for i in range(CASES):
        rng = random.Random(4000 + i)
        if i % 2 == 0:
            m = (3, 4, 5, 6)[i % 4]
            a, d, alpha = truncated_poly_with_derivation(rng, m)
            nonzero_product_cases += 1
        else:
            n = (2, 4, 6)[i % 3]
            a, d, alpha = null_algebra_with_root_operator(rng, n)
        assert is_associative(a).passed and is_commutative(a).passed
        assert check_operator_property(a, d, OperatorProperty("derivation")).passed
        root = OperatorProperty("scaled_involution_op", alpha=alpha)
        assert check_operator_property(a, d, root).passed
        p = derive(a, d, construction("prelie_diff"))
        assert check_identity(p, "left_prelie").passed, f"case {i}"
        from genalgebras import rand_scalar
        nov = derive(a, d, construction("novikov_affine", a=rand_scalar(rng)))
        assert check_identity(nov, "left_prelie").passed, f"case {i}"
        assert check_identity(nov, "novikov_right_comm").passed, f"case {i}"
        seen_dims.add(a.dim)
    _report("2d", bool(seen_dims - FIXTURE_DIMS) and nonzero_product_cases >= 1,
            f"{CASES} cases, dims {sorted(seen_dims)}, "
            f"{nonzero_product_cases} with nonzero product; pre-Lie and Novikov hold")


def test_acceptance_2e_flexible_chain():
    seen_dims = set()
    for i in range(CASES):
        rng = random.Random(5000 + i)
        n = DIM_CYCLE[i % len(DIM_CYCLE)]
        a, r = entrywise_with_averaging(rng, n)
        assert check_identity(a, "flexible").passed
        assert check_operator_property(a, r, OperatorProperty("idempotent_op")).passed
        assert check_operator_property(a, r, OperatorProperty("left_averaging")).passed
        assert check_operator_property(a, r, OperatorProperty("endomorphism")).passed
        f = derive(a, r, construction("flexible_avg"))
        assert check_identity(f, "flexible").passed, f"case {i}"
        seen_dims.add(a.dim)
    _report("2e", bool(seen_dims - FIXTURE_DIMS),
            f"{CASES} cases, dims {sorted(seen_dims)}, averaged product flexible")


def test_acceptance_2f_rota_baxter_chain():
    cases_per_weight = (CASES + 2) // 3
    seen_dims = set()
    for weight, prop_of in (
        ("one", lambda lam, beta: OperatorProperty("rota_baxter", lam=1)),
        ("zero", lambda lam, beta: OperatorProperty("rota_baxter", lam=0)),
        ("weighted",
         lambda lam, beta: OperatorProperty("rota_baxter_weighted", lam=lam, beta=beta)),
    ):
        for i in range(cases_per_weight):
            rng = random.Random(6000 + i + {"one": 0, "zero": 10000, "weighted": 20000}[weight])
            ambient, sub, emb, u, r, lam, beta = rota_baxter_setup(rng, weight)
            # the element-level hypothesis, exactly
            if weight == "one":
                quad = QuadraticConstraint("skew_idempotent")
            elif weight == "zero":
                quad = QuadraticConstraint("nilpotent2")
            else:
                from nonassoc.algebra import matrix_identity_element
                m = round(ambient.dim ** 0.5)
                quad = QuadraticConstraint(
                    "rb_weighted", lam=lam, beta=beta,
                    unit=matrix_identity_element(m),
                )
            checks = verify_element(emb, u, [LinearConstraint("stabilize", emb)], quad)
            assert all(v.passed for _, v in checks), f"{weight} case {i}"
            verdict = check_operator_property(sub, r, prop_of(lam, beta))
            assert verdict.passed, f"{weight} case {i}"
            seen_dims.add(sub.dim)
    _report("2f", bool(seen_dims - FIXTURE_DIMS),
            f"{3 * cases_per_weight} cases, dims {sorted(seen_dims)}, "
            "induced operators Rota-Baxter at their weights")


# -- criterion 3: polarization soundness ------------------------------------

def test_acceptance_3_polarization_soundness():
    checked = 0
    for name in list_fixtures():
        m = materialize(load_fixture(name))
        for alg in m.algebras.values():
            for ident in IDENTITY_NAMES:
                exact = check_identity(alg, ident).passed
                for seed in range(10):
                    sampled = check_identity_random(alg, ident, 100, seed).passed
                    assert sampled == exact, (name, ident, seed)
                checked += 1
    _report("3", True,
            f"{checked} (algebra, identity) pairs: polarized == random, "
            "10 seeds x 100 trials")


# -- criterion 4: negative controls -----------------------------------------

def test_acceptance_4_negative_controls():
    unflipped = []
    for name in list_fixtures():
        res = check_negative_control(name)
        if not (res.original.passed and res.flipped):
            unflipped.append(name)
    _report("4", not unflipped,
            "all 13 documented perturbations flip their target verdict"
            if not unflipped else f"controls failed to flip: {unflipped}")


# -- criterion 5: parametric certification ----------------------------------

def test_acceptance_5_parametric_certification():
    details = []
    ok = True
    for name in ("F1b", "F10", "F11"):
        bundle = load_fixture(name)
        points = None
        for label in bundle.certified_rows:
            v = certify_row(name, label)
            points = v.points_checked
            if not v.passed:
                ok = False
                details.append(f"{name}:{label} failed at {v.failing_point}")
        details.append(f"{name} x{points}")
    assert load_fixture("F1b").params[0].axis == tuple(range(8))  # grid size 8
    _report("5", ok, "; ".join(details))


# -- criterion 6: performance ------------------------------------------------

def test_acceptance_6_dim16_performance():
    a = matrix_algebra(4)  # dimension 16
    start = time.monotonic()
    verdicts = {name: check_identity(a, name).passed for name in IDENTITY_NAMES}
    elapsed = time.monotonic() - start
    # sanity: associativity-driven identities hold, bracket-style ones fail
    assert verdicts["associativity"] and verdicts["jordan_main"]
    assert not verdicts["jacobi"]
    _report("6", elapsed < 5.0,
            f"full identity suite on dim 16 in {elapsed:.2f}s (< 5s)")

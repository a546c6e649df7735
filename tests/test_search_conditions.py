"""The condition tables of ``search`` against a test-side copy of the
per-kind if-chains they replaced.

``solve_linear``, ``verify_element`` and ``find_special`` must give
``repr``-equal results to the chains on every fixture embedding (each linear
kind alone and in pairs, at the sample u, u + E11 and five random rational
u) and on random embeddings; every ``LINEAR_SIDES`` row must be affine in u,
and the stabilize row must equal the dense residual of u b_j; every
quadratic kind must keep its label and residual.
"""
import itertools
import random
from fractions import Fraction

import pytest

from genalgebras import _columns_subalgebra, mat_vec, mixed_denominator_algebra, rand_scalar
from nonassoc import fixtures as fx
from nonassoc import search
from nonassoc.algebra import Element, Embedding, matrix_identity_element, matrix_unit
from nonassoc.errors import DependentBasisError, NonassocError
from nonassoc.linalg import rref, solve_affine
from nonassoc.scalars import canonical, format_scalar
from nonassoc.search import (
    LINEAR_KINDS,
    LINEAR_SIDES,
    QUAD_KINDS,
    AffineSpace,
    GridStrategy,
    LinearConstraint,
    QuadraticConstraint,
    UnivariateStrategy,
    find_special,
    solve_linear,
    verify_element,
)
from nonassoc.verdicts import Verdict, Witness


# ---------------------------------------------------------------------------
# The if-chains, as the search module wrote them before the tables
# ---------------------------------------------------------------------------

def chain_residual(emb, v):
    """v minus its reconstruction from the pivot rows of T v (dense T)."""
    mat = [[b.coords[i] for b in emb.basis] for i in range(emb.ambient.dim)]
    _, t, pivots = rref(mat)
    w = mat_vec(t, list(v.coords))
    c = [0] * emb.sub_dim
    for row_idx, pc in enumerate(pivots):
        c[pc] = w[row_idx]
    rec = [canonical(sum(c[j] * emb.basis[j].coords[i] for j in range(emb.sub_dim)))
           for i in range(emb.ambient.dim)]
    return Element(tuple(canonical(a - b) for a, b in zip(v.coords, rec)))


def chain_solve_linear(ambient, constraints):
    n = ambient.dim
    e = ambient.basis()
    rows, rhs = [], []
    for c in constraints:
        for b in c.embedding.basis:
            left = [ambient.product(b, e[j]).coords for j in range(n)]
            right = [ambient.product(e[j], b).coords for j in range(n)]
            if c.kind == "right_identity":
                cols, target = left, b.coords
            elif c.kind == "right_annihilator":
                cols, target = left, (0,) * n
            elif c.kind == "centralize":
                cols = [[canonical(x - y) for x, y in zip(lc, rc)]
                        for lc, rc in zip(left, right)]
                target = (0,) * n
            else:
                cols = [chain_residual(c.embedding, Element(tuple(rc))).coords for rc in right]
                target = (0,) * n
            for k in range(n):
                rows.append([cols[j][k] for j in range(n)])
                rhs.append(target[k])
    particular, homogeneous = solve_affine(rows, rhs)
    if particular is None:
        return AffineSpace(n, None)
    return AffineSpace(
        n,
        Element(tuple(canonical(v) for v in particular)),
        tuple(Element(tuple(canonical(v) for v in h)) for h in homogeneous),
    )


def chain_label(q):
    if q.kind == "scaled":
        return f"scaled({format_scalar(q.gamma)})"
    if q.kind == "rb_weighted":
        return f"rb_weighted({format_scalar(q.lam)},{format_scalar(q.beta)})"
    return q.kind


def chain_linear_part(q, u):
    if q.kind == "idempotent":
        return -u
    if q.kind == "skew_idempotent":
        return u
    if q.kind == "nilpotent2":
        return 0 * u
    if q.kind == "scaled":
        return (-q.gamma) * u
    return q.lam * u


def chain_quad_residual(q, ambient, u):
    const = q.beta * q.unit if q.kind == "rb_weighted" else Element.zero(ambient.dim)
    return ambient.product(u, u) + chain_linear_part(q, u) + const


def chain_verify_element(emb, u, lin=(), quad=None):
    ambient = emb.ambient
    results = []
    for c in lin:
        verdict = Verdict.ok()
        for idx, b in enumerate(c.embedding.basis):
            if c.kind == "right_identity":
                lhs, rhs = ambient.product(b, u), b
            elif c.kind == "right_annihilator":
                lhs, rhs = ambient.product(b, u), ambient.zero()
            elif c.kind == "centralize":
                lhs, rhs = ambient.product(b, u), ambient.product(u, b)
            else:
                img = ambient.product(u, b)
                if c.embedding.to_sub(img) is not None:
                    continue
                lhs, rhs = chain_residual(c.embedding, img), ambient.zero()
            if lhs != rhs:
                verdict = Verdict.fail(Witness((idx,), (b, u), lhs, rhs))
                break
        results.append((c.kind, verdict))
    if quad is not None:
        res = chain_quad_residual(quad, ambient, u)
        if res.is_zero():
            results.append((chain_label(quad), Verdict.ok()))
        else:
            usq = ambient.product(u, u)
            results.append((chain_label(quad), Verdict.fail(Witness((), (u,), usq, usq - res))))
    return results


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

_COMBOS = [(k,) for k in LINEAR_KINDS] + list(itertools.combinations(LINEAR_KINDS, 2))


def _random_u(rng, dim):
    return Element(tuple(canonical(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
                         for _ in range(dim)))


def _quads(ambient):
    n = int(round(ambient.dim ** 0.5))
    unit = matrix_identity_element(n) if n * n == ambient.dim else ambient.basis_vector(0)
    return [
        QuadraticConstraint("idempotent"),
        QuadraticConstraint("skew_idempotent"),
        QuadraticConstraint("nilpotent2"),
        QuadraticConstraint("scaled", gamma=Fraction(3, 2)),
        QuadraticConstraint("scaled", gamma=0),
        QuadraticConstraint("rb_weighted", lam=1, beta=Fraction(-2, 3), unit=unit),
        QuadraticConstraint("rb_weighted", lam=-2, beta=0, unit=unit),
    ]


def _fixture_cases():
    """(ambient, embedding, us) per fixture: the sample u, u + E11 and five random u."""
    for name in fx.list_fixtures():
        m = fx.materialize(fx.load_fixture(name))
        rng = random.Random(name)
        n = m.bundle.ambient_n
        us = [m.u, m.u + matrix_unit(n, 0, 0)]
        us += [_random_u(rng, m.ambient.dim) for _ in range(5)]
        yield name, m.ambient, m.embedding, us


def _random_embedding_cases():
    """Random bases in mixed-denominator algebras (spans need not be closed)
    and column subalgebras of M_m."""
    rng = random.Random(10)
    for case in range(8):
        if case % 2:
            ambient, _, emb = _columns_subalgebra(rng, rng.choice((2, 3)), rng.randint(1, 2))
        else:
            n = rng.randint(2, 4)
            ambient = mixed_denominator_algebra(rng, n, (1, 2, 3))
            while True:
                basis = [Element(tuple(rand_scalar(rng) for _ in range(n)))
                         for _ in range(rng.randint(1, n - 1))]
                try:
                    emb = Embedding.build(ambient, basis)
                    break
                except DependentBasisError:
                    continue
        us = [_random_u(rng, ambient.dim) for _ in range(4)] + [ambient.zero()]
        yield f"random{case}", ambient, emb, us


_CASES = list(_fixture_cases()) + list(_random_embedding_cases())


@pytest.mark.parametrize("name, ambient, emb, us", _CASES, ids=[c[0] for c in _CASES])
def test_solve_and_verify_match_if_chains(name, ambient, emb, us):
    quads = _quads(ambient)
    for i, combo in enumerate(_COMBOS):
        lin = [LinearConstraint(k, emb) for k in combo]
        assert repr(solve_linear(ambient, lin)) == repr(chain_solve_linear(ambient, lin))
        for j, u in enumerate(us):
            quad = quads[(i + j) % len(quads)]
            assert repr(verify_element(emb, u, lin, quad)) == repr(
                chain_verify_element(emb, u, lin, quad))


def test_find_special_matches_if_chains(monkeypatch):
    rng = random.Random(4)
    new, old = [], []
    for _, ambient, emb, _ in _CASES[::3]:
        for combo in _COMBOS[::2]:
            lin = [LinearConstraint(k, emb) for k in combo]
            space = solve_linear(ambient, lin)
            if space.is_empty:
                continue
            d = space.dimension
            grid = GridStrategy.of([tuple(rng.randint(-1, 1) for _ in range(d))
                                    for _ in range(3)] + [(0,) * d])
            strategies = [grid] + ([UnivariateStrategy.of({i: 0 for i in range(1, d)})] if d else [])
            for quad in _quads(ambient):
                for strategy in strategies:
                    new.append((ambient, lin, quad, strategy))
    assert len(new) > 50

    def run_all():
        out = []
        for ambient, lin, quad, strategy in new:
            try:
                out.append(repr(find_special(ambient, lin, quad, strategy)))
            except NonassocError as exc:
                out.append(repr(exc))
        return out

    got = run_all()
    monkeypatch.setattr(search, "solve_linear", chain_solve_linear)
    monkeypatch.setattr(QuadraticConstraint, "residual", chain_quad_residual)
    old = run_all()
    assert got == old


@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_sides_are_affine_in_u(kind):
    sides = LINEAR_SIDES[kind]
    rng = random.Random(kind)
    for _, ambient, emb, us in _CASES[::2]:
        zero = ambient.zero()
        for j in range(min(3, emb.sub_dim)):
            at0 = sides(ambient, emb, j, zero)
            u, v = _random_u(rng, ambient.dim), us[0]
            at_u, at_v = sides(ambient, emb, j, u), sides(ambient, emb, j, v)
            at_uv = sides(ambient, emb, j, u + v)
            for s in (0, 1):
                assert at_uv[s] - at0[s] == (at_u[s] - at0[s]) + (at_v[s] - at0[s])


def test_stabilize_side_matches_the_dense_residual():
    """The stabilize row reads span membership off ``Embedding.left_image``;
    its sides are those of the residual of the ambient product u b_j, on
    every fixture embedding at the sample u and at u + e_k for every k."""
    sides = LINEAR_SIDES["stabilize"]
    leaving = 0
    for name in fx.list_fixtures():
        m = fx.materialize(fx.load_fixture(name))
        ambient, emb = m.ambient, m.embedding
        for u in [m.u] + [m.u + e for e in ambient.basis()]:
            for j, b in enumerate(emb.basis):
                dense = (emb.residual(ambient.product(u, b)), ambient.zero())
                assert repr(sides(ambient, emb, j, u)) == repr(dense)
                leaving += not dense[0].is_zero()
    assert leaving > 0  # both branches ran


def test_span_residual_matches_dense_reconstruction():
    for _, ambient, emb, us in _CASES:
        for v in us + [ambient.product(us[0], b) for b in emb.basis[:2]] + list(emb.basis[:1]):
            assert repr(emb.residual(v)) == repr(chain_residual(emb, v))


@pytest.mark.parametrize("quad", [
    QuadraticConstraint("idempotent"),
    QuadraticConstraint("skew_idempotent"),
    QuadraticConstraint("nilpotent2"),
    QuadraticConstraint("scaled", gamma=6),
    QuadraticConstraint("scaled", gamma=Fraction(-1, 2)),
    QuadraticConstraint("rb_weighted", lam=1, beta=2, unit=matrix_identity_element(2)),
    QuadraticConstraint("rb_weighted", lam=Fraction(3, 2), beta=Fraction(-1, 3),
                        unit=matrix_identity_element(2)),
], ids=lambda q: q.label())
def test_quadratic_kinds_match_formulas(quad):
    assert set(QUAD_KINDS) == {"idempotent", "skew_idempotent", "nilpotent2", "scaled",
                               "rb_weighted"}
    _, ambient, _, us = next(c for c in _CASES if c[1].dim == 4)
    assert quad.label() == chain_label(quad)
    for u in us:
        assert repr(quad.residual(ambient, u)) == repr(chain_quad_residual(quad, ambient, u))

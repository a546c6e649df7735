"""Seeded random generators of exact algebras, operators and special elements.

Each generator returns structures with the hypotheses of one construction
chain already satisfied (and asserted exactly by the calling test), built
from parametrized families with random rational data, optionally disguised
by conjugation with a random invertible integer matrix.  Everything is
deterministic given the Random instance.
"""
from __future__ import annotations

import random
from fractions import Fraction

from nonassoc.algebra import (
    Algebra,
    Element,
    induce_subalgebra,
    make_algebra,
    matrix_algebra,
)
from nonassoc.operators import LinearOperator, left_multiplication_operator
from nonassoc.scalars import canonical, exact_div


def rand_scalar(rng: random.Random, lo: int = -4, hi: int = 4, denom: int = 3):
    return canonical(exact_div(rng.randint(lo, hi), rng.choice([1] * 2 + list(range(1, denom + 1)))))


def algebra_from_table(dim: int, products, labels=(), meta=None) -> Algebra:
    """The algebra with e_i e_j = products[i][j], a dense coordinate table."""
    entries = [
        (i, j, k, c)
        for i in range(dim)
        for j in range(dim)
        for k, c in enumerate(products[i][j])
    ]
    return make_algebra(dim, entries, labels, meta)


def mixed_denominator_algebra(rng: random.Random, n: int, denominators) -> Algebra:
    """Random structure constants p/q with q drawn from ``denominators``, half zero."""
    entries = [
        (i, j, k, Fraction(rng.randint(-5, 5), rng.choice(denominators)))
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if rng.random() < 0.5
    ]
    return make_algebra(n, entries)


def invertible_int_matrix(rng: random.Random, n: int):
    """(P, Pinv): a random unimodular integer matrix and its exact inverse.

    Built from a handful of elementary row operations, so the conjugated
    structure constants stay reasonably sparse while the basis is genuinely
    scrambled.
    """
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ops = []
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            p[i][col] += c * p[j][col]
        ops.append((i, j, c))
    pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in reversed(ops):
        for col in range(n):
            pinv[i][col] -= c * pinv[j][col]
    return p, pinv


def mat_vec(m, v) -> list:
    """The product of matrix ``m`` (a list of rows) with vector ``v``, canonical."""
    return [canonical(sum(row[j] * v[j] for j in range(len(v)))) for row in m]


def _mat_col(m, j):
    return [row[j] for row in m]


def conjugate_algebra(a: Algebra, p, pinv) -> Algebra:
    """The same algebra in the basis whose old-coordinate columns are P."""
    n = a.dim
    products = []
    for i in range(n):
        row = []
        ei = Element(tuple(_mat_col(p, i)))
        for j in range(n):
            ej = Element(tuple(_mat_col(p, j)))
            prod = a.product(ei, ej)
            row.append(tuple(mat_vec(pinv, list(prod.coords))))
        products.append(row)
    return algebra_from_table(n, products)


def conjugate_operator(r: LinearOperator, p, pinv) -> LinearOperator:
    n = r.dim
    cols = []
    for j in range(n):
        img = r.apply(Element(tuple(_mat_col(p, j))))
        cols.append(Element(tuple(mat_vec(pinv, list(img.coords)))))
    return LinearOperator(n, tuple(cols))


def row_algebra_with_projection(rng: random.Random, n: int):
    """Associative algebra e_i e_j = v_j e_i plus an idempotent multiplicative R.

    R is right multiplication-by-u transported to left form: u with v.u = 1
    makes x u = x for all x, and R = u v^T satisfies R^2 = R and
    R(x) R(y) = R(x y).  Generally non-commutative.
    """
    while True:
        v = [rand_scalar(rng) for _ in range(n)]
        if any(x != 0 for x in v):
            break
    entries = []
    for i in range(n):
        for j in range(n):
            if v[j] != 0:
                entries.append((i, j, i, v[j]))
    a = make_algebra(n, entries)
    # u with v . u = 1
    j0 = max(k for k in range(n) if v[k] != 0)
    u = [rand_scalar(rng) for _ in range(n)]
    partial = sum(v[k] * u[k] for k in range(n) if k != j0)
    u[j0] = exact_div(1 - partial, v[j0])
    cols = tuple(
        Element(tuple(canonical(v[j] * u[i]) for i in range(n))) for j in range(n)
    )
    return a, LinearOperator(n, cols)


def entrywise_algebra_with_retraction(rng: random.Random, n: int, conjugate: bool = True):
    """Commutative associative algebra with an idempotent multiplicative R.

    Base: coordinatewise product; R permutes-or-kills coordinates along an
    idempotent partial map.  Conjugation hides the monomial structure.
    """
    a = make_algebra(n, [(i, i, i, 1) for i in range(n)])
    image = sorted(rng.sample(range(n), rng.randint(1, n)))
    sigma = {}
    for i in range(n):
        if i in image:
            sigma[i] = i
        else:
            sigma[i] = rng.choice(image + [None])
    cols = []
    for j in range(n):
        col = [0] * n
        for i in range(n):
            if sigma[i] == j:
                col[i] = 1
        cols.append(Element(tuple(col)))
    r = LinearOperator(n, tuple(cols))
    if conjugate:
        p, pinv = invertible_int_matrix(rng, n)
        return conjugate_algebra(a, p, pinv), conjugate_operator(r, p, pinv)
    return a, r


def truncated_poly_with_derivation(rng: random.Random, m: int, conjugate: bool = True):
    """Q[t]/t^m (m >= 3) with the derivation D(t) = c t^(m-1); D^2 = 0.

    Returns (algebra, D, alpha=0).  The algebra is commutative, associative,
    unital, with nonzero product, and D is a nonzero derivation whose square
    vanishes.
    """
    entries = []
    for i in range(m):
        for j in range(m):
            if i + j < m:
                entries.append((i, j, i + j, 1))
    a = make_algebra(m, entries)
    c = 0
    while c == 0:
        c = rand_scalar(rng, -3, 3)
    cols = [Element.zero(m) for _ in range(m)]
    cols[1] = c * Element.basis_vector(m, m - 1)
    d = LinearOperator(m, tuple(cols))
    if conjugate:
        p, pinv = invertible_int_matrix(rng, m)
        return conjugate_algebra(a, p, pinv), conjugate_operator(d, p, pinv), 0
    return a, d, 0


def null_algebra_with_root_operator(rng: random.Random, n: int):
    """Null-product algebra with R satisfying R^2 = alpha id, alpha nonzero.

    R is block-antidiagonal [[0, alpha], [1, 0]] on coordinate pairs (n even),
    then conjugated.  Every linear map is a derivation of the null product.
    """
    assert n % 2 == 0
    a = make_algebra(n, [])
    alpha = 0
    while alpha == 0:
        alpha = rand_scalar(rng, -3, 3)
    cols = []
    for j in range(n):
        col = [0] * n
        if j % 2 == 0:
            col[j + 1] = 1
        else:
            col[j - 1] = alpha
        cols.append(Element(tuple(col)))
    r = LinearOperator(n, tuple(cols))
    p, pinv = invertible_int_matrix(rng, n)
    return conjugate_algebra(a, p, pinv), conjugate_operator(r, p, pinv), alpha


def entrywise_with_averaging(rng: random.Random, n: int):
    """Commutative (hence flexible) algebra with R = multiplication by an
    idempotent, satisfying R^2 = R and R(x)R(y) = R(R(x)y) = R(xy)."""
    a = make_algebra(n, [(i, i, i, 1) for i in range(n)])
    subset = rng.sample(range(n), rng.randint(1, n))
    cols = [
        Element(tuple(1 if (i == j and j in subset) else 0 for i in range(n)))
        for j in range(n)
    ]
    r = LinearOperator(n, tuple(cols))
    p, pinv = invertible_int_matrix(rng, n)
    return conjugate_algebra(a, p, pinv), conjugate_operator(r, p, pinv)


def _columns_subalgebra(rng: random.Random, m: int, n_cols: int):
    """Embedding of the matrices supported on a fixed column set inside M_m.

    Left multiplication acts columnwise, so any ambient u stabilizes it.
    """
    ambient = matrix_algebra(m)
    cols = sorted(rng.sample(range(m), n_cols))
    basis = []
    for i in range(m):
        for c in cols:
            basis.append(Element.basis_vector(m * m, i * m + c))
    sub, emb = induce_subalgebra(ambient, basis)
    return ambient, sub, emb


def _conjugated_diagonal(rng: random.Random, m: int, eigenvalues) -> Element:
    """Ambient element Q diag(d) Q^{-1} with d_i drawn from eigenvalues."""
    q, qinv = invertible_int_matrix(rng, m)
    d = [rng.choice(eigenvalues) for _ in range(m)]
    entries = []
    for i in range(m):
        for j in range(m):
            val = canonical(sum(Fraction(q[i][k]) * d[k] * Fraction(qinv[k][j]) for k in range(m)))
            entries.append(val)
    return Element(tuple(entries))


def rota_baxter_setup(rng: random.Random, weight: str):
    """(subalgebra, induced operator, lam, beta) for one Rota-Baxter chain case.

    weight "one": u^2 = -u;  "zero": u^2 = 0;  "weighted": u^2 = -lam u - beta I
    with (lam, beta) realized from two random rational eigenvalues.
    """
    m = rng.choice((2, 3))
    n_cols = rng.randint(1, min(m, 6 // m))
    ambient, sub, emb = _columns_subalgebra(rng, m, n_cols)
    if weight == "one":
        u = _conjugated_diagonal(rng, m, [0, -1])
        lam, beta = 1, 0
    elif weight == "zero":
        # rank-one square-zero: t w^T with w . t = 0
        while True:
            t = [rng.randint(-3, 3) for _ in range(m)]
            w = [rng.randint(-3, 3) for _ in range(m)]
            if any(t) and any(w) and sum(a * b for a, b in zip(w, t)) == 0:
                break
        u = Element(tuple(canonical(t[i] * w[j]) for i in range(m) for j in range(m)))
        lam, beta = 0, 0
    else:
        c1 = rand_scalar(rng, -3, 3)
        c2 = rand_scalar(rng, -3, 3)
        lam = canonical(-(c1 + c2))
        beta = canonical(c1 * c2)
        u = _conjugated_diagonal(rng, m, [c1, c2])
    r = left_multiplication_operator(emb, u)
    return ambient, sub, emb, u, r, lam, beta

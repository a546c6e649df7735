"""Exact linear algebra over the rationals.

Matrices are lists of rows of scalars (int or Fraction).  Everything is
Gaussian elimination with exact pivoting; no magnitude concerns, so the
pivot is simply the first nonzero entry in the column.
"""
from __future__ import annotations

from .scalars import canonical, exact_div


Matrix = list  # list[list[Scalar]], row-major
Vector = list  # list[Scalar]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return [canonical(sum(row[j] * v[j] for j in range(len(v)))) for row in m]


def rref(mat: Matrix) -> tuple[Matrix, Matrix, list[int]]:
    """Reduced row echelon form with the recorded row transform.

    Returns ``(R, T, pivots)`` with ``T @ mat == R``, R in RREF and
    ``pivots`` the pivot column of each nonzero row of R.
    """
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    r = [list(row) for row in mat]
    t = identity(n_rows)
    pivots: list[int] = []
    piv_row = 0
    for col in range(n_cols):
        sel = None
        for i in range(piv_row, n_rows):
            if r[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_row:
            r[piv_row], r[sel] = r[sel], r[piv_row]
            t[piv_row], t[sel] = t[sel], t[piv_row]
        p = r[piv_row][col]
        if p != 1:
            inv_row = [exact_div(x, p) for x in r[piv_row]]
            r[piv_row] = inv_row
            t[piv_row] = [exact_div(x, p) for x in t[piv_row]]
        for i in range(n_rows):
            if i == piv_row:
                continue
            f = r[i][col]
            if f == 0:
                continue
            r[i] = [canonical(a - f * b) for a, b in zip(r[i], r[piv_row])]
            t[i] = [canonical(a - f * b) for a, b in zip(t[i], t[piv_row])]
        pivots.append(col)
        piv_row += 1
        if piv_row == n_rows:
            break
    return r, t, pivots


def nullspace(mat: Matrix) -> list[Vector]:
    """Basis of the right nullspace, one vector per free column.

    Deterministic: free columns in increasing order, each basis vector has
    a 1 in its free column.
    """
    n_cols = len(mat[0]) if mat else 0
    if not mat:
        return [[1 if j == i else 0 for j in range(n_cols)] for i in range(n_cols)]
    r, _, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [0] * n_cols
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = canonical(-r[row_idx][free])
        basis.append(v)
    return basis


def solve_affine(mat: Matrix, rhs: Vector) -> tuple[Vector | None, list[Vector]]:
    """Full solution set of ``mat @ x == rhs``.

    Returns ``(particular, homogeneous_basis)``; particular is None when the
    system is inconsistent.  The particular solution has zeros in all free
    coordinates.
    """
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    if n_rows == 0:
        return [0] * n_cols, nullspace(mat) if n_cols else []
    r, t, pivots = rref(mat)
    b = mat_vec(t, rhs)
    rank = len(pivots)
    for i in range(rank, n_rows):
        if b[i] != 0:
            return None, []
    x = [0] * n_cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = b[row_idx]
    return x, nullspace(mat)


class SpanSolver:
    """Express vectors in the span of fixed columns, exactly.

    Factors the column matrix M once, as ``T @ M == R`` with T invertible
    and R in RREF.  Then ``M @ c == v`` iff ``R @ c == T @ v``, and the rows
    of R past its rank are zero: v lies in the span iff its null rows
    ``(T @ v)[rank:]`` vanish, and the pivot rows ``(T @ v)[:rank]`` are the
    coordinates of the pivot columns (free ones are zero).  ``coordinates``
    costs one pass over T, summed over the nonzero entries of v; a caller
    that already holds T @ v, by linearity from T applied to other vectors,
    passes it to ``solve_transformed``.
    """

    def __init__(self, columns: list[Vector]):
        if not columns:
            raise ValueError("empty column list")
        self.columns = [list(c) for c in columns]
        self.ambient_dim = len(columns[0])
        mat = [[columns[j][i] for j in range(len(columns))] for i in range(self.ambient_dim)]
        self._rref, self._t, self._pivots = rref(mat)
        self.rank = len(self._pivots)

    @property
    def independent(self) -> bool:
        return self.rank == len(self.columns)

    def transform(self, v: Vector) -> Vector:
        """T @ v, summed over the nonzero entries of v."""
        nonzero = [(j, x) for j, x in enumerate(v) if x]
        return [sum(row[j] * x for j, x in nonzero) for row in self._t]

    def solve_transformed(self, w: Vector) -> Vector | None:
        """The ``coordinates`` of the v with T @ v == w, or None if v is outside."""
        if any(w[self.rank:]):
            return None
        c = [0] * len(self.columns)
        for pc, s in zip(self._pivots, w):
            c[pc] = s if type(s) is int else canonical(s)
        return c

    def coordinates(self, v: Vector) -> Vector | None:
        """Canonical coefficients c with span-columns @ c == v, or None if v is outside."""
        return self.solve_transformed(self.transform(v))

    def reconstruct(self, coeffs: Vector) -> Vector:
        return [
            canonical(sum(coeffs[j] * self.columns[j][i] for j in range(len(self.columns))))
            for i in range(self.ambient_dim)
        ]

    def residual(self, v: Vector) -> Vector:
        """v minus its best reconstruction; zero iff v lies in the span.

        Zeros straight away when the null rows of T @ v vanish."""
        w = self.transform(v)
        if not any(w[self.rank:]):
            return [0] * self.ambient_dim
        c = [0] * len(self.columns)
        for pc, s in zip(self._pivots, w):
            c[pc] = s
        rec = self.reconstruct(c)
        return [canonical(a - b) for a, b in zip(v, rec)]

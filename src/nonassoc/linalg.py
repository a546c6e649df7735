"""Exact linear algebra over the rationals.

Matrices are lists of rows of scalars (int or Fraction).  Everything is
Gaussian elimination with exact pivoting; no magnitude concerns, so the
pivot is simply the first nonzero entry in the column.
"""
from __future__ import annotations

from .scalars import canonical, exact_div


Matrix = list  # list[list[Scalar]], row-major
Vector = list  # list[Scalar]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _reduce(rows: Matrix, n_cols: int) -> list[int]:
    """Bring ``rows`` to RREF in place over their first ``n_cols`` columns.

    Entries past ``n_cols`` ride along under the same row operations and
    never hold a pivot.  Returns the pivot column of each nonzero row.
    """
    n_rows = len(rows)
    pivots: list[int] = []
    piv_row = 0
    for col in range(n_cols):
        sel = None
        for i in range(piv_row, n_rows):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_row:
            rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
        p = rows[piv_row][col]
        if p != 1:
            rows[piv_row] = [exact_div(x, p) for x in rows[piv_row]]
        for i in range(n_rows):
            if i == piv_row:
                continue
            f = rows[i][col]
            if f == 0:
                continue
            rows[i] = [canonical(a - f * b) for a, b in zip(rows[i], rows[piv_row])]
        pivots.append(col)
        piv_row += 1
        if piv_row == n_rows:
            break
    return pivots


def rref(mat: Matrix) -> tuple[Matrix, Matrix, list[int]]:
    """Reduced row echelon form with the recorded row transform.

    Returns ``(R, T, pivots)`` with ``T @ mat == R``, R in RREF and
    ``pivots`` the pivot column of each nonzero row of R.
    """
    n_cols = len(mat[0]) if mat else 0
    rows = [list(row) + e for row, e in zip(mat, identity(len(mat)))]
    pivots = _reduce(rows, n_cols)
    return [row[:n_cols] for row in rows], [row[n_cols:] for row in rows], pivots


def solve_affine(mat: Matrix, rhs: Vector) -> tuple[Vector | None, list[Vector]]:
    """Full solution set of ``mat @ x == rhs``, from one RREF of ``[mat | rhs]``.

    Returns ``(particular, homogeneous_basis)``; particular is None when the
    system is inconsistent.  The particular solution has zeros in all free
    coordinates; each homogeneous vector has a 1 in its free column.
    """
    n_cols = len(mat[0]) if mat else 0
    rows = [list(row) + [b] for row, b in zip(mat, rhs)]
    pivots = _reduce(rows, n_cols)
    if any(row[n_cols] for row in rows[len(pivots):]):
        return None, []
    x = [0] * n_cols
    for row, pc in zip(rows, pivots):
        x[pc] = canonical(row[n_cols])
    homogeneous = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        v = [0] * n_cols
        v[free] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = canonical(-row[free])
        homogeneous.append(v)
    return x, homogeneous


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
        _, self._t, self._pivots = rref(mat)
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

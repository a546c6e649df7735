"""Finite-dimensional algebras over Q given by structure constants.

An algebra of dimension n is given by its structure constants c[i][j][k]
with e_i * e_j = sum_k c[i][j][k] e_k; products of arbitrary elements extend
bilinearly.  The constants are stored sparse, and only in that form:
``sparse_rows[i][j]`` holds the (k, c[i][j][k]) pairs with c nonzero, k
ascending.  The dense tensor ``sc`` is a view built on each access.  An
index whose row and column are both empty is null (e_i x = x e_i = 0);
``active`` lists the others.  No axiom (associativity, commutativity, ...)
is assumed at construction; ``is_associative``/``is_commutative`` verify
the two axioms exactly, through the identity engine.

All types are immutable after construction and safe to share across
workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    DuplicateEntryError,
    SpanNotClosedError,
)
from .linalg import SpanSolver
from .scalars import Scalar, as_scalar, canonical
from .symmetry import Automorphisms
from .verdicts import Verdict


@dataclass(frozen=True)
class Element:
    """Coordinate vector relative to the ordered basis of one algebra."""

    coords: tuple[Scalar, ...]

    @staticmethod
    def from_iterable(values: Iterable) -> "Element":
        return Element(tuple(as_scalar(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "Element":
        return Element((0,) * dim)

    @staticmethod
    def basis_vector(dim: int, i: int) -> "Element":
        if not 0 <= i < dim:
            raise IndexError(f"basis index {i} out of range for dimension {dim}")
        return Element(tuple(1 if j == i else 0 for j in range(dim)))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Scalar:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Element") -> "Element":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatchError("element dimensions differ")
        out = []
        for a, b in zip(self.coords, other.coords):
            s = a + b
            out.append(s if type(s) is int else canonical(s))
        return Element(tuple(out))

    def __sub__(self, other: "Element") -> "Element":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatchError("element dimensions differ")
        out = []
        for a, b in zip(self.coords, other.coords):
            s = a - b
            out.append(s if type(s) is int else canonical(s))
        return Element(tuple(out))

    def __neg__(self) -> "Element":
        return Element(tuple(canonical(-a) for a in self.coords))

    def __rmul__(self, scalar) -> "Element":
        s = as_scalar(scalar)
        return Element(tuple(canonical(s * a) for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def sparse(self) -> tuple:
        """The (k, coords[k]) pairs with coords[k] nonzero, k ascending."""
        return tuple((k, c) for k, c in enumerate(self.coords) if c)


@dataclass(frozen=True, eq=False)
class Algebra:
    """dim, the sparse structure constants and basis labels.

    ``sparse_rows[i][j]`` is the tuple of (k, c) pairs with c = c[i][j][k]
    nonzero, k ascending; it is the one stored form of the constants.
    """

    dim: int
    sparse_rows: tuple
    basis_labels: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"e{i + 1}" for i in range(self.dim))
            )
        if len(self.basis_labels) != self.dim:
            raise DimensionMismatchError("label count differs from dimension")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.dim == other.dim
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.sparse_rows))

    @property
    def sc(self) -> tuple:
        """Dense view, built on each access: sc[i][j] = coordinates of e_i e_j."""
        return tuple(
            tuple(self.basis_product(i, j).coords for j in range(self.dim))
            for i in range(self.dim)
        )

    @cached_property
    def automorphisms(self) -> Automorphisms:
        """The basis permutations that preserve the constants, searched for once."""
        return Automorphisms(self.dim, self.sparse_rows, self.nonzero_constants)

    @cached_property
    def integer_rows(self) -> tuple[tuple, int]:
        """``sparse_rows`` times the lcm ``D`` of their denominators, and ``D``."""
        rows = self.sparse_rows
        denom = lcm(*(v.denominator for row in rows for e in row for _, v in e))
        if denom == 1:
            return rows, 1
        scaled = tuple(
            tuple(tuple((k, v.numerator * (denom // v.denominator)) for k, v in e) for e in row)
            for row in rows
        )
        return scaled, denom

    @cached_property
    def integer_cell_norm(self) -> int:
        """The largest l1 norm of a cell ``integer_rows[0][i][j]``."""
        return max(sum(abs(v) for _, v in e) for row in self.integer_rows[0] for e in row)

    @cached_property
    def active(self) -> tuple[int, ...]:
        """The indices i with row i or column i of ``sparse_rows`` nonempty, ascending.

        Every other index is null: e_i x = x e_i = 0 for every x.
        """
        rows = self.sparse_rows
        live = {i for i, row in enumerate(rows) if any(row)}
        live.update(j for row in rows for j, e in enumerate(row) if e)
        return tuple(sorted(live))

    @cached_property
    def content_hash(self) -> str:
        """``serial.algebra_content_hash`` of this algebra, computed once."""
        from .serial import algebra_content_hash  # serial imports this module

        return algebra_content_hash(self)

    @cached_property
    def nonzero_constants(self) -> int:
        """The number of nonzero structure constants, counted once."""
        return sum(len(e) for row in self.sparse_rows for e in row)

    def basis_product(self, i: int, j: int) -> Element:
        coords = [0] * self.dim
        for k, c in self.sparse_rows[i][j]:
            coords[k] = c
        return Element(tuple(coords))

    def product(self, x: Element, y: Element) -> Element:
        xc, yc = x.coords, y.coords
        if len(xc) != self.dim or len(yc) != self.dim:
            raise DimensionMismatchError(
                f"elements of length {len(xc)}/{len(yc)} "
                f"in algebra of dimension {self.dim}"
            )
        rows = self.sparse_rows
        acc = [0] * self.dim
        for i, xi in enumerate(xc):
            if not xi:
                continue
            row = rows[i]
            for j, yj in enumerate(yc):
                if not yj:
                    continue
                entries = row[j]
                if not entries:
                    continue
                c = xi * yj
                for k, v in entries:
                    acc[k] = acc[k] + (c if v == 1 else c * v)
        return Element(tuple(a if type(a) is int else canonical(a) for a in acc))

    def zero(self) -> Element:
        return Element.zero(self.dim)

    def basis_vector(self, i: int) -> Element:
        return Element.basis_vector(self.dim, i)

    def basis(self) -> list[Element]:
        return [self.basis_vector(i) for i in range(self.dim)]


@dataclass(frozen=True, eq=False)
class Embedding:
    """A subalgebra's basis inside an ambient algebra, with coordinate maps.

    ``to_sub``/``to_ambient`` are the two directions of the change of basis;
    ``residual`` measures failure to lie in the span (exact, zero iff inside).
    """

    ambient: Algebra
    basis: tuple[Element, ...]
    _solver: SpanSolver = field(repr=False)

    @staticmethod
    def build(ambient: Algebra, basis: Sequence[Element]) -> "Embedding":
        if not basis:
            raise DependentBasisError("basis must be nonempty")
        for b in basis:
            if len(b.coords) != ambient.dim:
                raise DimensionMismatchError("basis element has wrong ambient dimension")
        solver = SpanSolver([list(b.coords) for b in basis])
        if not solver.independent:
            raise DependentBasisError("basis elements are linearly dependent")
        return Embedding(ambient, tuple(basis), solver)

    @property
    def sub_dim(self) -> int:
        return len(self.basis)

    def to_ambient(self, x: Element) -> Element:
        if len(x.coords) != self.sub_dim:
            raise DimensionMismatchError("subalgebra coordinates of wrong length")
        acc = Element.zero(self.ambient.dim)
        for c, b in zip(x.coords, self.basis):
            if c != 0:
                acc = acc + c * b
        return acc

    def to_sub(self, v: Element) -> Optional[Element]:
        """Coordinates of an ambient element in the subalgebra basis, or None."""
        coeffs = self._solver.coordinates(list(v.coords))
        if coeffs is None:
            return None
        return Element(tuple(coeffs))

    def residual(self, v: Element) -> Element:
        return Element(tuple(self._solver.residual(list(v.coords))))

    def solve_transformed(self, w: list) -> Optional[Element]:
        """``to_sub`` of the v with T v == w, T the span solver's factor, or None."""
        coeffs = self._solver.solve_transformed(w)
        if coeffs is None:
            return None
        return Element(tuple(coeffs))

    @cached_property
    def left_table(self) -> tuple:
        """``left_table[j][k]`` is T (e_k b_j) as (row, value) pairs, value nonzero.

        T is the span solver's factor (T M == RREF of the basis columns M).
        The product is bilinear and T linear, so for every ambient u the sum
        of u_k left_table[j][k] over k is exactly T (u b_j): its rows past
        the rank vanish iff u b_j lies in the span, and then its pivot rows
        are the coordinates of u b_j.  Built once per embedding, with
        e_k b_j summed from the sparse rows: sum of b_ji c[k][i] over i.
        """
        rows, transform = self.ambient.sparse_rows, self._solver.transform
        table = []
        for b in self.basis:
            terms = [(i, bi) for i, bi in enumerate(b.coords) if bi]
            entries = []
            for row in rows:
                p = [0] * self.ambient.dim
                for i, bi in terms:
                    for k, c in row[i]:
                        p[k] += bi * c
                entries.append(tuple((r, canonical(s)) for r, s in enumerate(transform(p)) if s))
            table.append(tuple(entries))
        return tuple(table)

    def left_image(self, u: Element, j: int) -> list:
        """T (u b_j), summed from ``left_table[j]`` over the nonzero u_k.

        Its rows past the rank vanish iff u b_j lies in the span, and
        ``solve_transformed`` reads the coordinates off it.
        """
        if len(u.coords) != self.ambient.dim:
            raise DimensionMismatchError("u must be an ambient element")
        table = self.left_table[j]
        w = [0] * self.ambient.dim
        for k, uk in enumerate(u.coords):
            if uk:
                for r, v in table[k]:
                    w[r] += uk * v
        return w


def make_algebra(
    dim: int,
    sc_entries: Iterable[tuple],
    basis_labels: Sequence[str] = (),
    meta: dict | None = None,
) -> Algebra:
    """Build an algebra from a sparse list of (i, j, k, scalar) entries.

    Unlisted triples are zero; duplicate (i, j, k) entries are rejected.
    The nonzero entries are collected per (i, j), and every row with none
    is one shared tuple of empty cells, so an empty row costs no cells.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    cells: dict = {}
    seen = set()
    for i, j, k, value in sc_entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise IndexError(f"structure constant index ({i},{j},{k}) out of range")
        if (i, j, k) in seen:
            raise DuplicateEntryError(f"duplicate structure constant ({i},{j},{k})")
        seen.add((i, j, k))
        v = as_scalar(value)
        if v != 0:
            cells.setdefault((i, j), []).append((k, v))
    empty = ((),) * dim
    full = {i for i, _ in cells}
    rows = tuple(
        tuple(tuple(sorted(cells.get((i, j), ()))) for j in range(dim)) if i in full else empty
        for i in range(dim)
    )
    return Algebra(dim, rows, tuple(basis_labels), meta or {})


def matrix_algebra(n: int) -> Algebra:
    """Full matrix algebra M_n, basis E_ij ordered row-major, E_ij E_kl = d_jk E_il."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    dim = n * n
    entries = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                # E_ij * E_jl = E_il
                entries.append((i * n + j, j * n + l, i * n + l, 1))
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return make_algebra(dim, entries, labels, {"kind": "matrix", "n": n})


def matrix_unit(n: int, i: int, j: int) -> Element:
    """The basis element E_ij of matrix_algebra(n), 0-based indices."""
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("matrix unit index out of range")
    return Element.basis_vector(n * n, i * n + j)


def element_from_matrix(rows: Sequence[Sequence]) -> Element:
    """Flatten a square matrix (row-major) into matrix-algebra coordinates."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError("matrix is not square")
    return Element.from_iterable(v for row in rows for v in row)


def matrix_identity_element(n: int) -> Element:
    return element_from_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def induce_subalgebra(
    ambient: Algebra, basis: Sequence[Element], basis_labels: Sequence[str] = ()
) -> tuple[Algebra, Embedding]:
    """Structure constants of the span of ``basis`` inside ``ambient``.

    Each ``sparse_rows`` entry holds the nonzero ``to_sub`` coordinates of
    one product of basis elements.  Fails if the basis is dependent or the
    span is not closed under the ambient product; closure failures report
    the offending pair and the residual outside the span.
    """
    emb = Embedding.build(ambient, basis)
    rows = []
    for i, bi in enumerate(emb.basis):
        row = []
        for j, bj in enumerate(emb.basis):
            p = ambient.product(bi, bj)
            coords = emb.to_sub(p)
            if coords is None:
                raise SpanNotClosedError(i, j, tuple(emb.residual(p).coords))
            row.append(coords.sparse())
        rows.append(tuple(row))
    meta = {"kind": "subalgebra", "ambient_dim": ambient.dim}
    return Algebra(emb.sub_dim, tuple(rows), tuple(basis_labels), meta), emb


def is_associative(a: Algebra) -> Verdict:
    """(x y) z == x (y z) for all elements; exact, with the first failing basis triple."""
    from .identities import check_identity  # identities imports this module

    return check_identity(a, "associativity")


def is_commutative(a: Algebra) -> Verdict:
    """x y == y x for all elements; exact, with the first failing basis pair."""
    from .identities import check_identity

    return check_identity(a, "commutativity")

"""Derived products: build a new algebra from an algebra and an operator.

Each catalogued construction replaces the product of a source algebra by a
bilinear expression in the old product and a linear operator R (or a
derivation D): a signed sum of words over {product, R} in x and y, written in
the word language of the identity engine.  ``derive`` evaluates the words at
pairs of basis vectors with the element evaluator of ``identities`` and
writes the nonzero coordinates of each value straight into the new
algebra's ``sparse_rows``, so that the identity engine and the serializer
treat derived and primary algebras uniformly; provenance is recorded in
``meta``.  A symmetric or antisymmetric construction is evaluated on half
the pairs and mirrored (``Construction.parity``).
"""
from __future__ import annotations

from collections import Counter, UserDict
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple, Optional

from .algebra import Algebra, make_algebra
from .errors import DimensionMismatchError, MalformedPropertyError
from .identities import R, X, Y, _eval_word_elements, _shape, compile_words
from .operators import LinearOperator
from .scalars import NamedKind, Scalar


class Construction(NamedTuple):
    """The product x∘y as the signed sum of ``words`` in x = 0 and y = 1, with
    coefficients that are ints or names in ``params``.  ``parity`` is ±1 when
    exchanging x and y maps the word sum to ±itself (y∘x = ±x∘y), else 0."""

    params: tuple[str, ...]
    words: tuple
    needs_operator: bool
    parity: int


def _construction(params: tuple[str, ...], words: tuple) -> Construction:
    def swap(w):  # x and y exchanged
        return 1 - w if isinstance(w, int) else tuple(v if v == "R" else swap(v) for v in w)

    swapped = Counter((c, swap(w)) for c, w in words)
    parity = 1 if swapped == Counter(words) else 0
    if not parity and all(type(c) is int for c, _ in words):
        parity = -1 if swapped == Counter((-c, w) for c, w in words) else 0
    return Construction(params, words, any(_shape(w)[1] for _, w in words), parity)


# Two pairs of names share one product; the fixtures use all four names.
_RX_Y = ((1, (R(X), Y)),)
_RX_Y_MINUS_RY_RX = ((1, (R(X), Y)), (-1, (R(Y), R(X))))

CATALOG: dict[str, Construction] = {
    name: _construction(params, words)
    for name, params, words in (
        ("commutator", (), ((1, (X, Y)), (-1, (Y, X)))),
        ("lie_endo", (), ((1, (X, R(Y))), (-1, (Y, R(X))))),
        ("lie_endo_alt", (), ((1, (R(X), Y)), (-1, (R(Y), X)))),
        ("jordan_plus", (), ((1, (X, Y)), (1, (Y, X)))),
        ("jordan_endo_left", (), _RX_Y),
        ("jordan_endo_right", (), ((1, (X, R(Y))),)),
        ("jordan_endo_both", (), ((1, (R(X), R(Y))),)),
        ("leibniz_comm", (), ((1, (R(X), Y)), (-1, (Y, R(X))))),
        ("leibniz_endo", (), _RX_Y_MINUS_RY_RX),
        ("prelie_endo", (), ((1, (R(X), R(Y))), (-1, (Y, R(X))))),
        ("prelie_endo_alt", (), _RX_Y_MINUS_RY_RX),
        ("prelie_diff", (), _RX_Y),
        ("novikov_affine", ("a",), ((1, (X, R(Y))), ("a", (X, Y)))),
        ("prelie_rb1", (), ((1, (R(X), Y)), (-1, (Y, R(X))), (-1, (X, Y)))),
        ("flexible_avg", (), ((1, R((X, Y))),)),
    )
}

# compile_words checks that each construction is linear in x and y.
_SCHEDULES = {name: compile_words(2, cons.words, ()) for name, cons in CATALOG.items()}


@dataclass(frozen=True)
class ConstructionSpec(NamedKind):
    """A catalog name plus its parameters (only novikov_affine takes one)."""

    KINDS = CATALOG
    WHAT = "construction"

    kind: str
    a: Optional[Scalar] = None


def construction(name: str, a=None) -> ConstructionSpec:
    return ConstructionSpec(name, a)


class _LazyDict(UserDict):
    """The dict ``make()``, built on first read; it reads and prints as that dict."""

    def __init__(self, make: Callable[[], dict]):
        self._make = make

    @cached_property
    def data(self) -> dict:
        return self._make()


def derive(
    source: Algebra, operator: Optional[LinearOperator], spec: ConstructionSpec
) -> Algebra:
    """Materialize the derived product as a new algebra, row by sparse row.

    Parity ±1 evaluates the pairs i <= j (i < j for -1: the diagonal is zero)
    and mirrors the rest, exactly, since y∘x = ±x∘y holds for the word sums.
    ``meta`` hashes the operator only on its first read; no verdict reads it.
    """
    cons = CATALOG[spec.kind]
    if cons.needs_operator and operator is None:
        raise MalformedPropertyError(f"construction {spec.kind} requires an operator")
    if operator is not None and operator.dim != source.dim:
        raise DimensionMismatchError("operator dimension differs from algebra")
    sched = _SCHEDULES[spec.kind]
    params = {name: getattr(spec, name) for name in cons.params}
    basis = source.basis()
    # R is applied once per distinct element, so once per basis vector for R(x), R(y)
    apply = None if operator is None else cache(operator.apply)

    def entry(i: int, j: int) -> tuple:
        if j < i and cons.parity:  # y∘x = parity·(x∘y), evaluated in row j
            return rows[j][i] if cons.parity == 1 else tuple((k, -c) for k, c in rows[j][i])
        if i == j and cons.parity == -1:
            return ()
        return _eval_word_elements(source, sched, (basis[i], basis[j]), apply, params).sparse()

    rows: list[tuple] = []
    for i in range(source.dim):
        rows.append(tuple(entry(i, j) for j in range(source.dim)))
    meta = {"construction": spec.kind, "source": source.content_hash}

    def provenance() -> dict:
        from .serial import operator_content_hash

        if operator is not None:
            meta["operator"] = operator_content_hash(operator)
        return meta if spec.a is None else {**meta, "a": spec.a}

    return Algebra(source.dim, tuple(rows), source.basis_labels, _LazyDict(provenance))


def hadamard_algebra(rows: int, cols: int) -> Algebra:
    """rows x cols matrices under entrywise multiplication.

    Basis = matrix units ordered row-major; E_ij o E_kl = d_ik d_jl E_ij.
    Commutative, associative, and unital with the all-ones matrix as identity.
    """
    if rows < 1 or cols < 1:
        raise ValueError("shape must be positive")
    dim = rows * cols
    entries = [(i, i, i, 1) for i in range(dim)]
    labels = tuple(f"E{r + 1}{c + 1}" for r in range(rows) for c in range(cols))
    return make_algebra(dim, entries, labels, {"kind": "hadamard", "shape": (rows, cols)})

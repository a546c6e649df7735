"""Linear operators on an algebra and exact verification of operator identities.

The central construction is left multiplication by a distinguished ambient
element: R(x) = u * x, restricted to a subalgebra that u stabilizes.  R is
linear in u, so its columns come from a table the embedding builds once, with
no ambient product or span solve per u (see ``left_multiplication_operator``).

Every named operator identity is a sum of words over {product, R}, with
integer or parameter coefficients, linear in each element argument, so
checking it on basis vectors/pairs is a proof, not a sample.
``PROPERTY_KINDS`` holds the words; the identity engine of ``identities``
checks them in int, with R's columns scaled by the lcm E of their
denominators and each word weighted so that words with different numbers of
products, R nodes or rational coefficients compare at one scale (see that
module).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .algebra import Algebra, Element, Embedding
from .errors import DimensionMismatchError, ImageNotInSpanError
from .identities import R, X, Y, check_words, compile_words
from .scalars import NamedKind, Scalar, canonical
from .verdicts import Verdict


@dataclass(frozen=True)
class LinearOperator:
    """Square matrix acting on the elements of one algebra.

    Stored column-wise: ``columns[j]`` is the image of basis vector e_j.
    """

    dim: int
    columns: tuple[Element, ...]

    def __post_init__(self):
        if len(self.columns) != self.dim:
            raise DimensionMismatchError("operator must have dim columns")
        for c in self.columns:
            if len(c.coords) != self.dim:
                raise DimensionMismatchError("operator column has wrong length")

    def apply(self, x: Element) -> Element:
        if len(x.coords) != self.dim:
            raise DimensionMismatchError("element has wrong dimension for operator")
        acc = [0] * self.dim
        for j, c in enumerate(x.coords):
            if c == 0:
                continue
            col = self.columns[j].coords
            for k in range(self.dim):
                if col[k] != 0:
                    acc[k] = acc[k] + c * col[k]
        return Element(tuple(a if type(a) is int else canonical(a) for a in acc))

    @cached_property
    def integer_columns(self) -> tuple[tuple, int, int]:
        """Sparse ``(k, c)`` columns times the lcm ``E`` of their denominators, ``E``,
        and the largest l1 norm of a scaled column."""
        denom = lcm(*(v.denominator for col in self.columns for v in col.coords))
        scaled = tuple(tuple((k, v.numerator * (denom // v.denominator))
                             for k, v in enumerate(col.coords) if v) for col in self.columns)
        return scaled, denom, max(sum(abs(c) for _, c in col) for col in scaled)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimensions differ")
        return LinearOperator(
            self.dim, tuple(a + b for a, b in zip(self.columns, other.columns))
        )

    @staticmethod
    def identity(dim: int) -> "LinearOperator":
        return LinearOperator(dim, tuple(Element.basis_vector(dim, j) for j in range(dim)))

    @staticmethod
    def zero(dim: int) -> "LinearOperator":
        return LinearOperator(dim, tuple(Element.zero(dim) for _ in range(dim)))


def make_operator(algebra: Algebra, columns: Sequence[Sequence]) -> LinearOperator:
    """Operator from explicit columns: columns[j] = coordinates of R(e_j)."""
    if len(columns) != algebra.dim:
        raise DimensionMismatchError(
            f"operator needs {algebra.dim} columns, got {len(columns)}"
        )
    return LinearOperator(algebra.dim, tuple(Element.from_iterable(c) for c in columns))


def left_multiplication_operator(emb: Embedding, u: Element) -> LinearOperator:
    """The operator x -> u * x on the subalgebra, in subalgebra coordinates.

    Each image u * (basis element) must lie in the span; otherwise the
    offending basis index and the residual are reported.

    No ambient product or span solve runs per call.  Linearity: with T the
    span solver's factor, T (u b_j) = sum over k of u_k T (e_k b_j), and
    ``emb.left_table`` holds every T (e_k b_j).  So ``emb.left_image(u, j)``,
    that sum, is T applied to the image exactly; a nonzero row of it past
    the rank means the image leaves the span, and otherwise its pivot rows
    are the coordinates, made canonical as ``Embedding.to_sub`` makes them.
    """
    cols = []
    for j in range(emb.sub_dim):
        coords = emb.solve_transformed(emb.left_image(u, j))
        if coords is None:
            img = emb.ambient.product(u, emb.basis[j])
            raise ImageNotInSpanError(j, tuple(emb.residual(img).coords))
        cols.append(coords)
    return LinearOperator(emb.sub_dim, tuple(cols))


class PropertyKind(NamedTuple):
    """An operator identity: ``lhs`` == ``rhs`` as signed words in ``arity``
    variables (x = 0, y = 1), with coefficients that are ints or names in
    ``params``."""

    arity: int
    params: tuple[str, ...]
    lhs: tuple
    rhs: tuple


_XY = (X, Y)
_RX_RY = (1, (R(X), R(Y)))
_RR_X = (1, R(R(X)))
_RB_INNER = ((1, R((R(X), Y))), (1, R((X, R(Y)))), ("lam", R(_XY)))

PROPERTY_KINDS: dict[str, PropertyKind] = {
    "endomorphism": PropertyKind(2, (), (_RX_RY,), ((1, R(_XY)),)),
    "idempotent_op": PropertyKind(1, (), (_RR_X,), ((1, R(X)),)),
    "involution_op": PropertyKind(1, (), (_RR_X,), ((1, X),)),
    "scaled_idempotent_op": PropertyKind(1, ("alpha",), (_RR_X,), (("alpha", R(X)),)),
    "scaled_involution_op": PropertyKind(1, ("alpha",), (_RR_X,), (("alpha", X),)),
    "derivation": PropertyKind(
        2, (), ((1, (R(X), Y)), (1, (X, R(Y)))), ((1, R(_XY)),)
    ),
    "left_averaging": PropertyKind(2, (), (_RX_RY,), ((1, R((R(X), Y))),)),
    "rota_baxter": PropertyKind(2, ("lam",), (_RX_RY,), _RB_INNER),
    "rota_baxter_weighted": PropertyKind(
        2, ("lam", "beta"), (_RX_RY,), _RB_INNER + (("beta", _XY),)
    ),
    # weight 0 with the second term mirrored: y R(x) in place of x R(y)
    "rota_baxter0_mirrored": PropertyKind(
        2, (), ((1, R((R(X), Y))), (1, R((Y, R(X))))), (_RX_RY,)
    ),
}

_SCHEDULES = {
    kind: compile_words(k.arity, k.lhs, k.rhs) for kind, k in PROPERTY_KINDS.items()
}


@dataclass(frozen=True)
class OperatorProperty(NamedKind):
    """A named operator identity, with parameters where the kind requires them.

    Kinds and their identities:

    - ``endomorphism``              R(x) R(y) = R(x y)
    - ``idempotent_op``             R(R(x)) = R(x)
    - ``involution_op``             R(R(x)) = x
    - ``scaled_idempotent_op``      R(R(x)) = alpha R(x)
    - ``scaled_involution_op``      R(R(x)) = alpha x
    - ``derivation``                R(x) y + x R(y) = R(x y)
    - ``left_averaging``            R(x) R(y) = R(R(x) y)
    - ``rota_baxter``               R(x) R(y) = R(R(x) y + x R(y) + lam x y)
    - ``rota_baxter_weighted``      R(x) R(y) = R(R(x) y + x R(y) + lam x y) + beta x y
    - ``rota_baxter0_mirrored``     R(R(x) y + y R(x)) = R(x) R(y)

    The weighted variant forms ``beta x y`` inside the algebra itself, so no
    unit element enters the check.
    """

    KINDS = PROPERTY_KINDS
    WHAT = "operator property"

    kind: str
    alpha: Optional[Scalar] = None
    lam: Optional[Scalar] = None
    beta: Optional[Scalar] = None


def check_operator_property(
    a: Algebra, r: LinearOperator, prop: OperatorProperty
) -> Verdict:
    """Exact verdict for an operator identity, by checking basis tuples.

    Every catalogued identity is linear in each of its element arguments, so
    vanishing on basis vectors/pairs is equivalent to vanishing everywhere.
    A failing verdict carries the lexicographically first failing tuple.
    """
    if r.dim != a.dim:
        raise DimensionMismatchError("operator dimension differs from algebra")
    params = {name: getattr(prop, name) for name in PROPERTY_KINDS[prop.kind].params}
    return check_words(a, r.integer_columns, _SCHEDULES[prop.kind], params)

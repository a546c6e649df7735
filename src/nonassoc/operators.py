"""Linear operators on an algebra and exact verification of operator identities.

The central construction is left multiplication by a distinguished ambient
element: R(x) = u * x, restricted to a subalgebra that u stabilizes.  Every
named operator identity is linear or bilinear in its element arguments, so
checking it on basis vectors/pairs is a proof, not a sample.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Algebra, Element, Embedding
from .errors import (
    DimensionMismatchError,
    ImageNotInSpanError,
    MalformedPropertyError,
    NonassocError,
)
from .scalars import Scalar, as_scalar, canonical, exact_div, format_scalar
from .verdicts import Verdict, Witness


@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearOperator)
            and self.dim == other.dim
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.columns))

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

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimensions differ")
        return LinearOperator(self.dim, tuple(self.apply(c) for c in other.columns))

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
    cols = tuple(Element.from_iterable(c) for c in columns)
    for c in cols:
        if len(c.coords) != algebra.dim:
            raise DimensionMismatchError("operator column has wrong length")
    return LinearOperator(algebra.dim, cols)


def left_multiplication_operator(emb: Embedding, u: Element) -> LinearOperator:
    """The operator x -> u * x on the subalgebra, in subalgebra coordinates.

    Each image u * (basis element) must lie in the span; otherwise the
    offending basis index and the residual are reported.
    """
    if len(u.coords) != emb.ambient.dim:
        raise DimensionMismatchError("u must be an ambient element")
    cols = []
    for j, b in enumerate(emb.basis):
        img = emb.ambient.product(u, b)
        coords = emb.to_sub(img)
        if coords is None:
            raise ImageNotInSpanError(j, tuple(emb.residual(img).coords))
        cols.append(coords)
    return LinearOperator(emb.sub_dim, tuple(cols))


_UNARY_KINDS = {
    "idempotent_op",
    "involution_op",
    "scaled_idempotent_op",
    "scaled_involution_op",
}
_BINARY_KINDS = {
    "endomorphism",
    "derivation",
    "left_averaging",
    "rota_baxter",
    "rota_baxter_weighted",
}
_REQUIRED_PARAMS = {
    "scaled_idempotent_op": ("alpha",),
    "scaled_involution_op": ("alpha",),
    "rota_baxter": ("lam",),
    "rota_baxter_weighted": ("lam", "beta"),
}


@dataclass(frozen=True)
class OperatorProperty:
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

    The weighted variant forms ``beta x y`` inside the algebra itself, so no
    unit element enters the check; ``unit`` is carried only as bookkeeping
    for the element-level condition u^2 = -lam u - beta unit.
    """

    kind: str
    alpha: Optional[Scalar] = None
    lam: Optional[Scalar] = None
    beta: Optional[Scalar] = None
    unit: Optional[Element] = None

    def __post_init__(self):
        if self.kind not in _UNARY_KINDS | _BINARY_KINDS:
            raise MalformedPropertyError(f"unknown operator property {self.kind!r}")
        required = _REQUIRED_PARAMS.get(self.kind, ())
        for name in ("alpha", "lam", "beta"):
            value = getattr(self, name)
            if name in required and value is None:
                raise MalformedPropertyError(f"{self.kind} requires parameter {name}")
            if name not in required and value is not None:
                raise MalformedPropertyError(f"{self.kind} takes no parameter {name}")
        if self.unit is not None and self.kind != "rota_baxter_weighted":
            raise MalformedPropertyError(f"{self.kind} takes no unit element")

    def label(self) -> str:
        if self.kind == "scaled_idempotent_op" or self.kind == "scaled_involution_op":
            return f"{self.kind}({format_scalar(self.alpha)})"
        if self.kind == "rota_baxter":
            return f"rota_baxter({format_scalar(self.lam)})"
        if self.kind == "rota_baxter_weighted":
            return f"rota_baxter_weighted({format_scalar(self.lam)},{format_scalar(self.beta)})"
        return self.kind


def endomorphism() -> OperatorProperty:
    return OperatorProperty("endomorphism")


def idempotent_op() -> OperatorProperty:
    return OperatorProperty("idempotent_op")


def involution_op() -> OperatorProperty:
    return OperatorProperty("involution_op")


def scaled_idempotent_op(alpha) -> OperatorProperty:
    return OperatorProperty("scaled_idempotent_op", alpha=as_scalar(alpha))


def scaled_involution_op(alpha) -> OperatorProperty:
    return OperatorProperty("scaled_involution_op", alpha=as_scalar(alpha))


def derivation() -> OperatorProperty:
    return OperatorProperty("derivation")


def left_averaging() -> OperatorProperty:
    return OperatorProperty("left_averaging")


def rota_baxter(lam) -> OperatorProperty:
    return OperatorProperty("rota_baxter", lam=as_scalar(lam))


def rota_baxter_weighted(lam, beta, unit: Element | None = None) -> OperatorProperty:
    return OperatorProperty(
        "rota_baxter_weighted", lam=as_scalar(lam), beta=as_scalar(beta), unit=unit
    )


def _unary_sides(kind: str, a: Algebra, r: LinearOperator, p: OperatorProperty, x: Element):
    rx = r.apply(x)
    if kind == "idempotent_op":
        return r.apply(rx), rx
    if kind == "involution_op":
        return r.apply(rx), x
    if kind == "scaled_idempotent_op":
        return r.apply(rx), p.alpha * rx
    if kind == "scaled_involution_op":
        return r.apply(rx), p.alpha * x
    raise MalformedPropertyError(kind)


def _binary_sides(kind: str, a: Algebra, r: LinearOperator, p: OperatorProperty, x: Element, y: Element):
    rx, ry = r.apply(x), r.apply(y)
    if kind == "endomorphism":
        return a.product(rx, ry), r.apply(a.product(x, y))
    if kind == "derivation":
        return a.product(rx, y) + a.product(x, ry), r.apply(a.product(x, y))
    if kind == "left_averaging":
        return a.product(rx, ry), r.apply(a.product(rx, y))
    if kind == "rota_baxter":
        inner = a.product(rx, y) + a.product(x, ry) + p.lam * a.product(x, y)
        return a.product(rx, ry), r.apply(inner)
    if kind == "rota_baxter_weighted":
        inner = a.product(rx, y) + a.product(x, ry) + p.lam * a.product(x, y)
        return a.product(rx, ry), r.apply(inner) + p.beta * a.product(x, y)
    raise MalformedPropertyError(kind)


def check_operator_property(
    a: Algebra, r: LinearOperator, prop: OperatorProperty
) -> Verdict:
    """Exact verdict for an operator identity, by checking basis tuples.

    Every catalogued identity is linear (unary kinds) or bilinear (binary
    kinds) in its element arguments, so vanishing on basis vectors/pairs is
    equivalent to vanishing everywhere.
    """
    if r.dim != a.dim:
        raise DimensionMismatchError("operator dimension differs from algebra")
    if prop.kind in _UNARY_KINDS:
        for i in range(a.dim):
            x = a.basis_vector(i)
            lhs, rhs = _unary_sides(prop.kind, a, r, prop, x)
            if lhs != rhs:
                return Verdict.fail(Witness((i,), (x,), lhs, rhs))
        return Verdict.ok()
    for i in range(a.dim):
        x = a.basis_vector(i)
        for j in range(a.dim):
            y = a.basis_vector(j)
            lhs, rhs = _binary_sides(prop.kind, a, r, prop, x, y)
            if lhs != rhs:
                return Verdict.fail(Witness((i, j), (x, y), lhs, rhs))
    return Verdict.ok()


def check_operator_property_random(
    a: Algebra,
    r: LinearOperator,
    prop: OperatorProperty,
    trials: int,
    seed: int,
) -> Verdict:
    """Corroborate an operator identity at pseudo-random rational elements."""
    if trials < 1:
        raise NonassocError("trials must be >= 1")
    rng = random.Random(seed)

    def rand_element() -> Element:
        return Element(
            tuple(
                canonical(exact_div(rng.randint(-6, 6), rng.choice((1, 1, 1, 2))))
                for _ in range(a.dim)
            )
        )

    for _ in range(trials):
        x = rand_element()
        if prop.kind in _UNARY_KINDS:
            lhs, rhs = _unary_sides(prop.kind, a, r, prop, x)
            if lhs != rhs:
                return Verdict.fail(Witness((), (x,), lhs, rhs))
        else:
            y = rand_element()
            lhs, rhs = _binary_sides(prop.kind, a, r, prop, x, y)
            if lhs != rhs:
                return Verdict.fail(Witness((), (x, y), lhs, rhs))
    return Verdict.ok()

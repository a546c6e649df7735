"""Search for distinguished ambient elements u.

Every condition on u is defined once, as a table row that both the solver
and the checker read.

The linear side conditions (right identity, right annihilator, centralizing,
stabilizing) are rows of ``LINEAR_SIDES``: for each subalgebra basis element
b_j, two sides at u that must be equal.  Each side is affine in u (the
product is bilinear, the span residual linear, b_j constant), so lhs - rhs =
A u + d with d = (lhs - rhs)(0) and column k of A equal to (lhs - rhs)(e_k) -
d.  ``solve_linear`` evaluates the rows at 0 and at each basis vector and
solves A u = -d exactly, as one big rational system, for an affine solution
space; ``verify_element`` evaluates the same rows at a concrete u.  The
stabilize row tells whether u b_j lies in the span from the embedding's
table (``Embedding.left_image``) and forms the ambient product and its
residual only when it does not, so its witness is still that residual.

The quadratic condition u^2 = a u + c unit is a row of ``QUAD_KINDS`` (u^2 =
u, -u, 0, gamma u, or -lam u - beta unit).  It is resolved either by
substituting explicit grid points into the affine parametrization, or by
pinning all but one parameter and solving the remaining single-variable
quadratic over Q.  Irrational roots are reported existentially, never as
approximate values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .algebra import Algebra, Element, Embedding
from .errors import MalformedPropertyError, SearchStrategyError
from .linalg import solve_affine
from .scalars import NamedKind, Scalar, as_scalar, canonical, exact_div, rational_sqrt
from .verdicts import Verdict, Witness


def _stabilize_sides(amb: Algebra, emb: Embedding, j: int, u: Element) -> tuple:
    """(the residual of u b_j outside the span, 0).

    ``emb.left_image`` decides membership from the embedding's table, so the
    ambient product and the span residual run only when u b_j leaves.
    """
    zero = amb.zero()
    if emb.solve_transformed(emb.left_image(u, j)) is not None:
        return zero, zero
    return emb.residual(amb.product(u, emb.basis[j])), zero


# kind -> the two sides at (ambient, embedding, j, u), for each subalgebra
# basis index j (b = emb.basis[j]); each side is affine in u.
LINEAR_SIDES: dict[str, Callable] = {
    "right_identity": lambda amb, emb, j, u: (amb.product(emb.basis[j], u), emb.basis[j]),
    "right_annihilator": lambda amb, emb, j, u: (amb.product(emb.basis[j], u), amb.zero()),
    "centralize": lambda amb, emb, j, u: (
        amb.product(emb.basis[j], u), amb.product(u, emb.basis[j])
    ),
    "stabilize": _stabilize_sides,
}
LINEAR_KINDS = tuple(LINEAR_SIDES)


@dataclass(frozen=True)
class LinearConstraint:
    """One linear side condition on u, relative to a subalgebra embedding.

    - ``right_identity``     x u = x for every subalgebra basis element x
    - ``right_annihilator``  x u = 0
    - ``centralize``         x u = u x
    - ``stabilize``          u x lies in the subalgebra span
    """

    kind: str
    embedding: Embedding

    def __post_init__(self):
        if self.kind not in LINEAR_KINDS:
            raise MalformedPropertyError(f"unknown linear constraint {self.kind!r}")


class QuadKind(NamedTuple):
    """A quadratic condition u^2 = a u + c unit: the parameters of its label,
    whether it takes an ambient ``unit``, and (a, c) of a constraint."""

    params: tuple[str, ...]
    unit: bool
    coefficients: Callable


QUAD_KINDS: dict[str, QuadKind] = {
    "idempotent": QuadKind((), False, lambda q: (1, 0)),
    "skew_idempotent": QuadKind((), False, lambda q: (-1, 0)),
    "nilpotent2": QuadKind((), False, lambda q: (0, 0)),
    "scaled": QuadKind(("gamma",), False, lambda q: (q.gamma, 0)),
    "rb_weighted": QuadKind(("lam", "beta"), True, lambda q: (-q.lam, -q.beta)),
}


@dataclass(frozen=True)
class QuadraticConstraint(NamedKind):
    """The quadratic condition on u: what u^2 must equal.

    - ``idempotent``       u^2 = u
    - ``skew_idempotent``  u^2 = -u
    - ``nilpotent2``       u^2 = 0
    - ``scaled``           u^2 = gamma u
    - ``rb_weighted``      u^2 = -lam u - beta unit   (unit an ambient element)
    """

    KINDS = QUAD_KINDS
    WHAT = "quadratic constraint"

    kind: str
    lam: Optional[Scalar] = None
    beta: Optional[Scalar] = None
    gamma: Optional[Scalar] = None
    unit: Optional[Element] = None

    def residual(self, ambient: Algebra, u: Element) -> Element:
        """u^2 - a u - c unit; zero iff the constraint holds."""
        return ambient.product(u, u) - self.target(u)

    def target(self, u: Element) -> Element:
        """a u + c unit, what u^2 must equal."""
        a, c = QUAD_KINDS[self.kind].coefficients(self)
        return a * u if self.unit is None else a * u + c * self.unit


@dataclass(frozen=True)
class AffineSpace:
    """offset + span(directions) inside the ambient coordinate space.

    ``offset`` is None for an empty (inconsistent) solution set.
    """

    ambient_dim: int
    offset: Optional[Element]
    directions: tuple[Element, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.offset is None

    @property
    def dimension(self) -> int:
        if self.is_empty:
            raise SearchStrategyError("empty affine space has no dimension")
        return len(self.directions)

    def point(self, coefficients: Sequence) -> Element:
        if self.is_empty:
            raise SearchStrategyError("cannot sample from an empty affine space")
        if len(coefficients) != len(self.directions):
            raise SearchStrategyError(
                f"expected {len(self.directions)} coefficients, got {len(coefficients)}"
            )
        acc = self.offset
        for c, d in zip(coefficients, self.directions):
            s = as_scalar(c)
            if s != 0:
                acc = acc + s * d
        return acc


def _difference(ambient: Algebra, c: LinearConstraint, j: int, u: Element) -> Element:
    """lhs - rhs of constraint ``c`` at basis index ``j`` and ambient ``u``."""
    lhs, rhs = LINEAR_SIDES[c.kind](ambient, c.embedding, j, u)
    return lhs - rhs


def solve_linear(ambient: Algebra, constraints: Sequence[LinearConstraint]) -> AffineSpace:
    """The full affine space of u satisfying every linear constraint.

    One block A u = -d per constraint and basis element b; see the module docstring."""
    if not constraints:
        raise MalformedPropertyError("at least one linear constraint is required")
    for c in constraints:
        if c.embedding.ambient != ambient:
            raise MalformedPropertyError("constraint embedding does not live in ambient")
    n = ambient.dim
    units = ambient.basis()
    rows: list[list[Scalar]] = []
    rhs: list[Scalar] = []
    for c in constraints:
        for j in range(c.embedding.sub_dim):
            at0 = _difference(ambient, c, j, ambient.zero())
            cols = [(_difference(ambient, c, j, e) - at0).coords for e in units]
            rows.extend([col[k] for col in cols] for k in range(n))
            rhs.extend(-v for v in at0.coords)
    particular, homogeneous = solve_affine(rows, rhs)
    if particular is None:
        return AffineSpace(n, None)
    return AffineSpace(
        n,
        Element(tuple(canonical(v) for v in particular)),
        tuple(Element(tuple(canonical(v) for v in h)) for h in homogeneous),
    )


@dataclass(frozen=True)
class GridStrategy:
    """Substitute each coefficient tuple into the affine parametrization."""

    points: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def of(points: Sequence[Sequence]) -> "GridStrategy":
        return GridStrategy(tuple(tuple(as_scalar(v) for v in p) for p in points))


@dataclass(frozen=True)
class UnivariateStrategy:
    """Pin all but at most one free direction and solve the quadratic exactly.

    ``pins`` maps direction indices to rational values; the single unpinned
    direction (when there is one) becomes the variable of the quadratic.
    """

    pins: tuple[tuple[int, Scalar], ...]

    @staticmethod
    def of(pins: Mapping[int, object]) -> "UnivariateStrategy":
        return UnivariateStrategy(
            tuple(sorted((int(i), as_scalar(v)) for i, v in pins.items()))
        )


@dataclass(frozen=True)
class SearchResult(Sequence):
    """Elements found, plus human-readable notes (e.g. irrational-root reports)."""

    elements: tuple[Element, ...]
    notes: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)


def _quadratic_rational_roots(q2: Scalar, q1: Scalar, q0: Scalar):
    """Rational roots of q2 t^2 + q1 t + q0 plus an irrationality note."""
    if q2 == 0:
        if q1 == 0:
            return [], None  # constant; no roots (caller excludes the all-zero poly)
        return [canonical(exact_div(-q0, q1))], None
    disc = canonical(q1 * q1 - 4 * q2 * q0)
    if disc < 0:
        return [], None
    root = rational_sqrt(disc)
    if root is None:
        return [], (
            "the quadratic has real roots but they are irrational; "
            "no rational solutions exist along this line"
        )
    if root == 0:
        return [canonical(exact_div(-q1, 2 * q2))], None
    return [
        canonical(exact_div(-q1 + root, 2 * q2)),
        canonical(exact_div(-q1 - root, 2 * q2)),
    ], None


def find_special(
    ambient: Algebra,
    lin: Sequence[LinearConstraint],
    quad: QuadraticConstraint,
    strategy,
) -> SearchResult:
    """All elements satisfying the linear constraints plus the quadratic one.

    The grid strategy tests each supplied coefficient tuple exactly; the
    univariate strategy solves the single-variable quadratic over Q and
    reports irrational roots existentially instead of fabricating values.
    """
    space = solve_linear(ambient, lin)
    if space.is_empty:
        return SearchResult((), ("the linear constraints are inconsistent",))
    found: list[Element] = []
    notes: list[str] = []

    def consider(u: Element):
        if quad.residual(ambient, u).is_zero() and u not in found:
            found.append(u)

    if isinstance(strategy, GridStrategy):
        for p in strategy.points:
            consider(space.point(p))
    elif isinstance(strategy, UnivariateStrategy):
        pins = dict(strategy.pins)
        if any(i < 0 or i >= len(space.directions) for i in pins):
            raise SearchStrategyError("pin index out of range")
        free = [i for i in range(len(space.directions)) if i not in pins]
        if len(free) > 1:
            raise SearchStrategyError(
                f"univariate strategy needs <= 1 unpinned direction, got {len(free)}"
            )
        base = space.point(
            [pins.get(i, 0) for i in range(len(space.directions))]
        )
        if not free:
            consider(base)
        else:
            d = space.directions[free[0]]
            # residual(base + t d) = Q2 t^2 + Q1 t + Q0 coordinatewise, read
            # off at t = 0, 1, -1: Q1 = (r+ - r-)/2 and Q2 = (r+ + r-)/2 - Q0
            q0 = quad.residual(ambient, base)
            r_plus, r_minus = quad.residual(ambient, base + d), quad.residual(ambient, base - d)
            q1 = Fraction(1, 2) * (r_plus - r_minus)
            q2 = Fraction(1, 2) * (r_plus + r_minus) - q0
            coeff_triples = [
                (q2.coords[k], q1.coords[k], q0.coords[k])
                for k in range(ambient.dim)
            ]
            nonzero = [t for t in coeff_triples if t != (0, 0, 0)]
            if not nonzero:
                raise SearchStrategyError(
                    "every value of the free parameter satisfies the quadratic "
                    "constraint; the solution family is infinite, use the grid strategy"
                )
            roots, note = _quadratic_rational_roots(*nonzero[0])
            if note:
                notes.append(note)
            for t in roots:
                consider(base + t * d)
    else:
        raise SearchStrategyError(f"unknown strategy {strategy!r}")
    return SearchResult(tuple(found), tuple(notes))


def verify_element(
    emb: Embedding,
    u: Element,
    lin: Sequence[LinearConstraint] = (),
    quad: Optional[QuadraticConstraint] = None,
) -> list[tuple[str, Verdict]]:
    """Itemized exact pass/fail of each constraint at a concrete u."""
    ambient = emb.ambient
    results: list[tuple[str, Verdict]] = []
    for c in lin:
        verdict = Verdict.ok()
        sides = LINEAR_SIDES[c.kind]
        for idx, b in enumerate(c.embedding.basis):
            lhs, rhs = sides(ambient, c.embedding, idx, u)
            if lhs != rhs:
                verdict = Verdict.fail(Witness((idx,), (b, u), lhs, rhs))
                break
        results.append((c.kind, verdict))
    if quad is not None:
        res = quad.residual(ambient, u)
        if res.is_zero():
            results.append((quad.label(), Verdict.ok()))
        else:
            target = quad.target(u)
            results.append((quad.label(), Verdict.fail(Witness((), (u,), res + target, target))))
    return results

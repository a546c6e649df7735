"""Catalog of worked matrix examples with expected verdicts.

Each fixture bundles an ambient matrix algebra, a subalgebra basis, a
(possibly parametrized) distinguished element u, the derived algebras built
from the induced operator R(x) = u x, and the expected verdict of every
check.  Running a fixture builds u at the given point, and its operator and
each derived algebra on their first read, then compares against the
expectations, so the catalog doubles as the regression suite and the
documentation spine.

A bundle declares u and its basis as square matrices of scalars and
``scalars.Poly``s in its parameters, evaluated at the point (a basis with no
``Poly`` once).  A family that divides declares ``denominator``, a monomial in
parameters that exclude 0, and u is the declared matrix over it.

The plan lists the derived algebras as ``(name, source, construction)``
steps after ``"A"``: the subalgebra the basis spans, or ``base`` if set (F5's
entrywise-product plane).  Making a bundle checks its steps, its negative
control's perturbation and that the control's target is one of its rows.

Check labels:

- ``element:KIND`` or ``element:KIND(args)`` - side conditions on u itself
  (right_identity, right_annihilator, centralize, stabilize, idempotent,
  skew_idempotent, nilpotent2, scaled(g), rb_weighted(lam,beta)).
- ``operator[ALG]:PROP`` - an operator identity checked on the named
  algebra (e.g. ``operator[plus]:endomorphism``).
- ``identity[ALG]:NAME`` - a polynomial identity of the named algebra.
- ``custom:NAME(args)`` - structural checks (solution-space dimension,
  null-product detection), and ``custom:rota_baxter0_mirrored(ALG)``, the
  mirrored weight-0 Rota-Baxter reading, checked as an operator identity.

Argument values may reference fixture parameters as ``@name`` so that a
parametric certification can vary them together with u.

A row declared with the ``_CERTIFIED`` flag is certified for all rational
parameter values: ``certify_row`` runs it at every point of the bundle's
grid, which has more distinct values per parameter than that parameter's
declared degree (Alon, Combinatorial Nullstellensatz, Lemma 2.1).
``FixtureBundle.certified_rows`` lists the flagged labels in row order.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .algebra import (
    Algebra,
    Element,
    Embedding,
    induce_subalgebra,
    matrix_algebra,
    matrix_identity_element,
)
from .constructions import CATALOG, construction, derive, hadamard_algebra
from .errors import GridError, MalformedPropertyError, NonassocError, UnknownFixtureError
from .identities import (
    ParamSpec,
    ParametricVerdict,
    certify_parametric,
    check_identity,
    get_identity,
)
from .operators import (
    LinearOperator,
    OperatorProperty,
    check_operator_property,
    left_multiplication_operator,
)
from .scalars import Poly, as_scalar, exact_div
from .search import (
    LINEAR_KINDS,
    QUAD_KINDS,
    LinearConstraint,
    QuadraticConstraint,
    solve_linear,
    verify_element,
)
from .verdicts import Verdict, Witness


@dataclass(frozen=True)
class ExpectedRow:
    check: str
    expect: bool
    certified: bool = False  # certified over the fixture's parameter grid


@dataclass(frozen=True)
class NegativeControl:
    """A documented perturbation that must flip the targeted verdict."""

    perturb: str  # "u+E11" or "R+I"
    target: str   # row label whose verdict must flip


@dataclass(frozen=True)
class FixtureBundle:
    name: str
    description: str
    basis: Sequence  # square matrices of scalars and Polys
    u: Sequence      # a square matrix of scalars and Polys; over ``denominator`` if set
    rows: tuple[ExpectedRow, ...]
    negative_control: NegativeControl
    plan: tuple[tuple[str, str, str], ...] = ()  # (name, source, construction) after "A"
    base: Optional[Algebra] = None  # "A" when it is not the subalgebra the basis spans
    params: tuple[ParamSpec, ...] = ()
    sample_point: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    denominator: Optional[Poly] = None

    def __post_init__(self):
        steps = {"A": None}  # name -> (source, construction spec)
        for step in self.plan:
            if len(step) != 3 or step[0] in steps or step[1] not in steps:
                raise NonassocError(f"plan step {step!r} of {self.name} is not (a new name, "
                                    f"'A' or an earlier name, a construction)")
            steps[step[0]] = step[1], construction(step[2])
        control = self.negative_control
        if control.perturb not in ("R+I", "u+E11"):
            raise NonassocError(f"unknown perturbation {control.perturb!r}")
        if control.target not in {r.check for r in self.rows}:
            raise NonassocError(f"negative control target {control.target!r} is not a row "
                                f"of {self.name}")
        names = {p.name for p in self.params}
        if set(self.sample_point) != names:
            raise NonassocError(f"sample point of {self.name} names {sorted(self.sample_point)}, "
                                f"not its parameters {sorted(names)}")
        zeros_excluded = {p.name for p in self.params if 0 in p.exclude}
        d = self.denominator
        if d is not None and (len(d.terms) != 1 or not zeros_excluded.issuperset(*d.terms)):
            raise NonassocError(f"denominator of {self.name} is not a monomial in "
                                f"parameters that exclude 0")
        # row-major entries; a basis that holds no Poly is read as it is at every point
        u, basis = _entries(self.u), tuple(_entries(m) for m in self.basis)
        polys = [v for v in (*u, *(v for m in basis for v in m), d) if type(v) is Poly]
        undeclared = {name for v in polys for m in v.terms for name in m} - names
        if undeclared:
            raise NonassocError(f"fixture {self.name} uses {sorted(undeclared)}, "
                                f"which are not its parameters")
        varies = any(type(v) is Poly for m in basis for v in m)
        self.__dict__.update(_steps=steps, _u=u, _basis=basis, _basis_varies=varies)

    @property
    def ambient_n(self) -> int:
        return len(self.u)

    @property
    def certified_rows(self) -> tuple[str, ...]:
        """The labels of the certified rows, in row order."""
        return tuple(r.check for r in self.rows if r.certified)


@dataclass(frozen=True)
class Materialized:
    """A fixture instantiated at a concrete parameter point.

    ``operator`` is R(x) = u x, the one that ``algebras`` builds and derives
    from.  Element rows read neither, so a u whose products leave the span
    still materializes, and only a row that needs R raises ``ImageNotInSpanError``.
    """

    bundle: FixtureBundle
    point: dict
    embedding: Embedding
    u: Element
    algebras: _PlanAlgebras

    @property
    def ambient(self) -> Algebra:
        return self.embedding.ambient

    @property
    def operator(self) -> LinearOperator:
        return self.algebras.operator


@dataclass(frozen=True)
class RowResult:
    check: str
    expected: bool
    verdict: Verdict

    @property
    def matched(self) -> bool:
        return self.verdict.passed == self.expected


@dataclass(frozen=True)
class Report:
    fixture: str
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.matched for r in self.rows)


@dataclass(frozen=True)
class NegativeControlResult:
    fixture: str
    perturb: str
    target: str
    original: Verdict
    perturbed: Verdict

    @property
    def flipped(self) -> bool:
        return self.original.passed != self.perturbed.passed


# ---------------------------------------------------------------------------
# Bundle construction helpers
# ---------------------------------------------------------------------------

# Subalgebra of M3 with every row a multiple of a fixed vector v:
# basis e_i puts v in row i.  Right multiplication acts columnwise, so the
# span is a left ideal and any u stabilizes it.
def _row_family_basis(v):
    return [_outer([int(i == k) for k in range(3)], v) for i in range(3)]


def _outer(col, row) -> tuple:
    """The rank-one matrix with entries col[i] * row[j]."""
    return tuple(tuple(ci * rj for rj in row) for ci in col)


_ROW110 = _row_family_basis((1, 1, 0))


def _entries(matrix) -> tuple:
    """The entries of a square matrix of scalars and Polys, row-major."""
    if any(len(row) != len(matrix) for row in matrix):
        raise NonassocError(f"fixture matrix {matrix!r:.60} is not square")
    return tuple(v if type(v) is Poly else as_scalar(v) for row in matrix for v in row)


def _rows(*specs) -> tuple[ExpectedRow, ...]:
    """Rows from ``(check, expect)`` pairs, or triples ending in ``_CERTIFIED``."""
    return tuple(ExpectedRow(*spec) for spec in specs)


_CERTIFIED = True


_AXIS5 = tuple(range(5))
_AXIS4 = (0, 1, 2, 3)
_SIX = tuple(ParamSpec(n, 2, (0, 1, 2)) for n in "abcefg")  # F1 and F6
_X = ParamSpec("x", 4, _AXIS5)  # F9 to F11
_Y_NONZERO = ParamSpec("y", 4, (1, 2, 3, 4, 5), exclude=(0,))  # F10 and F11 divide by y


def _build_catalog() -> dict[str, FixtureBundle]:
    bundles: list[FixtureBundle] = []
    a, b, c, e, f, g, x, y, lam, beta = map(
        Poly.var, ("a", "b", "c", "e", "f", "g", "x", "y", "lam", "beta")
    )
    u_b = ((1, b, b), (0, 1 - b, -b), (0, b - 1, b))  # F1b and F3b

    # -- F1: six-parameter right-identity family on the row-span subalgebra.
    bundles.append(FixtureBundle(
        name="F1",
        description="right-identity family on the 3-dim subalgebra with rows "
                    "proportional to (1,1,0); induced operator is multiplicative",
        basis=_ROW110,
        u=((a, b, c), (1 - a, 1 - b, -c), (e, f, g)),
        params=_SIX,
        sample_point={"a": 2, "b": 3, "c": 5, "e": 7, "f": 11, "g": 13},
        plan=(("lie", "A", "lie_endo"),),
        rows=_rows(
            ("element:right_identity", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("identity[A]:associativity", True),
            ("operator[A]:endomorphism", True, _CERTIFIED),
            # generic members of the family are not idempotent; only the
            # u^2 = u slice (fixture F1b) is
            ("operator[A]:idempotent_op", False),
            ("identity[lie]:antisymmetry", True, _CERTIFIED),
            # the bracket has the form psi(y) x - psi(x) y for a linear
            # functional psi, which satisfies the Jacobi identity for any
            # operator, idempotent or not
            ("identity[lie]:jacobi", True, _CERTIFIED),
            ("custom:null_product(lie)", False),
            ("custom:lin_dim(right_identity+stabilize,6)", True),
        ),
        negative_control=NegativeControl("R+I", "operator[A]:endomorphism"),
    ))

    # -- F1b: the idempotent one-parameter slice; the derived bracket is Lie.
    bundles.append(FixtureBundle(
        name="F1b",
        description="idempotent right-identity slice u(b); operator is a "
                    "multiplicative projection and both derived brackets are Lie",
        basis=_ROW110,
        u=u_b,
        params=(ParamSpec("b", 2, tuple(range(8))),),
        sample_point={"b": 2},
        plan=(("lie", "A", "lie_endo"), ("lie_alt", "A", "lie_endo_alt")),
        rows=_rows(
            ("element:right_identity", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("element:idempotent", True, _CERTIFIED),
            ("operator[A]:endomorphism", True, _CERTIFIED),
            ("operator[A]:idempotent_op", True, _CERTIFIED),
            ("identity[lie]:antisymmetry", True, _CERTIFIED),
            ("identity[lie]:jacobi", True, _CERTIFIED),
            ("identity[lie_alt]:antisymmetry", True, _CERTIFIED),
            ("identity[lie_alt]:jacobi", True, _CERTIFIED),
            ("custom:null_product(lie)", False),
            ("custom:null_product(lie_alt)", False),
        ),
        negative_control=NegativeControl("R+I", "operator[A]:endomorphism"),
    ))

    # -- F2: involutive right identity (a permutation) on a 6-dim subalgebra.
    bundles.append(FixtureBundle(
        name="F2",
        description="permutation right identity with u^2 = I on the 6-dim "
                    "subalgebra with equal second and third columns",
        basis=[
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],   # x
            [[0, 1, 1], [0, 0, 0], [0, 0, 0]],   # y
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]],   # w
            [[0, 0, 0], [0, 1, 1], [0, 0, 0]],   # k
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]],   # m
            [[0, 0, 0], [0, 0, 0], [0, 1, 1]],   # n
        ],
        u=[[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        plan=(("lie", "A", "lie_endo"),),
        rows=_rows(
            ("element:right_identity", True),
            ("element:stabilize", True),
            ("element:rb_weighted(0,-1)", True),   # u^2 = I
            ("operator[A]:endomorphism", True),
            ("operator[A]:involution_op", True),
            ("operator[A]:idempotent_op", False),
            # the involution also happens to yield a Lie bracket here, even
            # though R^2 = R fails; recorded as a known answer
            ("identity[lie]:jacobi", True),
            ("custom:null_product(lie)", False),
        ),
        negative_control=NegativeControl("R+I", "operator[A]:involution_op"),
    ))

    # -- F3: rank-one idempotent right identity; symmetrized product is Jordan.
    bundles.append(FixtureBundle(
        name="F3",
        description="idempotent right identity on the subalgebra with rows "
                    "proportional to (1,-1,1); the symmetrized product and both "
                    "operator-twisted products are Jordan",
        basis=_row_family_basis((1, -1, 1)),
        u=[[1, -1, 1], [1, -1, 1], [1, -1, 1]],
        plan=(
            ("plus", "A", "jordan_plus"),
            ("jordan1", "plus", "jordan_endo_both"),
            ("jordan2", "jordan1", "jordan_endo_left"),
        ),
        rows=_rows(
            ("element:idempotent", True),
            ("element:right_identity", True),
            ("element:stabilize", True),
            ("identity[A]:associativity", True),
            ("identity[plus]:commutativity", True),
            ("identity[plus]:associativity", False),
            ("operator[A]:endomorphism", True),
            ("operator[plus]:endomorphism", True),
            ("operator[plus]:idempotent_op", True),
            ("identity[plus]:jordan_main", True),
            ("identity[plus]:jordan_flex", True),
            ("identity[jordan1]:jordan_main", True),
            ("identity[jordan1]:jordan_flex", True),
            ("identity[jordan2]:jordan_main", True),
            ("identity[jordan2]:jordan_flex", True),
            ("custom:null_product(plus)", False),
            ("custom:null_product(jordan1)", False),
            ("custom:null_product(jordan2)", False),
        ),
        negative_control=NegativeControl("u+E11", "element:idempotent"),
    ))

    # -- F3b: the F1b slice, symmetrized; operator-squared product is Jordan.
    bundles.append(FixtureBundle(
        name="F3b",
        description="symmetrized product on the (1,1,0) row subalgebra with the "
                    "u(b) operator; x o y = R(x) R(y) under the symmetrized "
                    "product satisfies both Jordan identities",
        basis=_ROW110,
        u=u_b,
        params=(ParamSpec("b", 2, _AXIS4),),
        sample_point={"b": 2},
        plan=(("plus", "A", "jordan_plus"), ("jordan1", "plus", "jordan_endo_both")),
        rows=_rows(
            ("identity[plus]:commutativity", True),
            ("identity[plus]:jordan_main", True, _CERTIFIED),
            ("identity[plus]:jordan_flex", True),
            ("operator[plus]:endomorphism", True, _CERTIFIED),
            ("operator[plus]:idempotent_op", True, _CERTIFIED),
            ("identity[jordan1]:jordan_main", True, _CERTIFIED),
            ("identity[jordan1]:jordan_flex", True, _CERTIFIED),
            ("custom:null_product(jordan1)", False),
        ),
        negative_control=NegativeControl("R+I", "operator[plus]:endomorphism"),
    ))

    # -- F4: idempotent right identity; twisted brackets are left Leibniz.
    bundles.append(FixtureBundle(
        name="F4",
        description="idempotent right identity on the subalgebra with rows "
                    "proportional to (-1,1,1); both twisted brackets satisfy "
                    "the left Leibniz identity",
        basis=_row_family_basis((-1, 1, 1)),
        u=[[-1, 1, 1], [-1, 1, 1], [-1, 1, 1]],
        plan=(("leib", "A", "leibniz_endo"), ("leibc", "A", "leibniz_comm")),
        rows=_rows(
            ("element:idempotent", True),
            ("element:right_identity", True),
            ("element:stabilize", True),
            ("operator[A]:endomorphism", True),
            ("operator[A]:idempotent_op", True),
            # this R makes R(x) y - R(y) R(x) vanish identically, so the
            # bracket is Leibniz (and antisymmetric) vacuously
            ("identity[leib]:left_leibniz", True),
            ("identity[leib]:antisymmetry", True),
            ("custom:null_product(leib)", True),
            # the commutator-style bracket R(x) y - y R(x) is nonzero and is
            # where the Leibniz content lives; it is not antisymmetric
            ("identity[leibc]:left_leibniz", True),
            ("identity[leibc]:antisymmetry", False),
            ("custom:null_product(leibc)", False),
        ),
        negative_control=NegativeControl("u+E11", "element:idempotent"),
        notes=(
            "with this operator the bracket R(x) y - R(y) R(x) is identically "
            "zero, so its Leibniz rows pass vacuously; the commutator-style "
            "bracket carries the non-vacuous Leibniz structure",
        ),
    ))

    # -- F5: entrywise-product plane; usual-product projection u induces a
    #        multiplicative idempotent operator and a pre-Lie product.
    bundles.append(FixtureBundle(
        name="F5",
        description="first-column plane under the entrywise product with the "
                    "operator induced (via the usual product) by the idempotent "
                    "diag(1,0); the twisted products are left pre-Lie",
        basis=[
            [[1, 0], [0, 0]],
            [[0, 0], [1, 0]],
        ],
        u=[[1, 0], [0, 0]],
        base=hadamard_algebra(2, 1),
        plan=(("prelie", "A", "prelie_endo"), ("prelie_alt", "A", "prelie_endo_alt")),
        rows=_rows(
            ("element:idempotent", True),
            ("element:right_identity", True),
            ("element:stabilize", True),
            ("identity[A]:commutativity", True),
            ("identity[A]:associativity", True),
            ("operator[A]:endomorphism", True),
            ("operator[A]:idempotent_op", True),
            ("identity[prelie]:left_prelie", True),
            ("identity[prelie_alt]:left_prelie", True),
            ("custom:null_product(A)", False),
            ("custom:null_product(prelie)", True),
            ("custom:null_product(prelie_alt)", True),
        ),
        negative_control=NegativeControl("R+I", "operator[A]:endomorphism"),
        notes=(
            "the element conditions use the usual matrix product of the ambient, "
            "while the operator and identity rows use the entrywise product",
            "both twisted products vanish identically on this plane (R(x) and x "
            "agree in the surviving entry), so the pre-Lie rows pass vacuously "
            "and the operator rows carry the content",
        ),
    ))

    # -- F6: right-annihilator family; the induced operator is a derivation.
    bundles.append(FixtureBundle(
        name="F6",
        description="six-parameter right-annihilator family on the (1,1,0) row "
                    "subalgebra; left multiplication by u satisfies the Leibniz "
                    "product rule",
        basis=_ROW110,
        u=((a, b, c), (-a, -b, -c), (e, f, g)),
        params=_SIX,
        sample_point={"a": 2, "b": 3, "c": 5, "e": 7, "f": 11, "g": 13},
        rows=_rows(
            ("element:right_annihilator", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("operator[A]:derivation", True, _CERTIFIED),
            ("operator[A]:endomorphism", False),
            ("custom:null_product(A)", False),
            ("custom:lin_dim(right_annihilator+stabilize,6)", True),
        ),
        negative_control=NegativeControl("u+E11", "element:right_annihilator"),
    ))

    # -- F7: rank-one line annihilated from the right; null product, scaled
    #        operator.  The quadratic and operator rows are the informative
    #        ones; the derived pre-Lie product is vacuously pre-Lie.
    bundles.append(FixtureBundle(
        name="F7",
        description="one-dimensional rank-one subalgebra with x u = 0; the "
                    "subalgebra product vanishes identically and u acts as the "
                    "scalar lam*beta, so R^2 = (lam*beta) R",
        # rank-1 matrix (a, b, 1)^T (n, p, q) with b=n=p=1, a=-beta, q=beta-1,
        # which enforces x u = 0 for the companion u below.
        basis=(_outer((-beta, 1, 1), (1, 1, beta - 1)),),
        u=_outer((-beta, 1, 1), (1, beta, lam * beta)),
        params=(
            ParamSpec("beta", 8, tuple(range(9))),
            ParamSpec("lam", 3, _AXIS4),
        ),
        sample_point={"beta": 2, "lam": 3},
        plan=(("prelie", "A", "prelie_diff"),),
        rows=_rows(
            ("element:right_annihilator", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("element:scaled(6)", True),            # gamma = lam*beta at the sample point
            ("operator[A]:derivation", True, _CERTIFIED),
            ("operator[A]:scaled_idempotent_op(6)", True),
            ("operator[A]:scaled_involution_op(36)", True),
            ("custom:null_product(A)", True),
            ("identity[A]:associativity", True),
            ("identity[A]:commutativity", True),
            ("identity[prelie]:left_prelie", True),
        ),
        negative_control=NegativeControl("u+E11", "element:scaled(6)"),
        notes=(
            "the subalgebra product is identically zero, so every identity row "
            "passes vacuously; the element and operator rows carry the content, "
            "and the negative control targets them",
        ),
    ))

    # -- F8: central idempotent; averaging operator, flexible twisted product.
    bundles.append(FixtureBundle(
        name="F8",
        description="central idempotent diag(1,1,0) inside a commutative 3-dim "
                    "subalgebra; the induced operator is left averaging and "
                    "multiplicative, and x o y = R(x y) is flexible",
        basis=[
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        ],
        u=[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        plan=(("flex", "A", "flexible_avg"), ("lie", "A", "lie_endo")),
        rows=_rows(
            ("element:idempotent", True),
            ("element:centralize", True),
            ("element:stabilize", True),
            ("operator[A]:left_averaging", True),
            ("operator[A]:endomorphism", True),
            ("operator[A]:idempotent_op", True),
            ("identity[A]:associativity", True),
            ("identity[A]:commutativity", True),
            ("identity[A]:flexible", True),
            ("identity[flex]:flexible", True),
            ("custom:null_product(flex)", False),
            # commutativity of A makes x R(y) - y R(x) vanish identically,
            # so the bracket rows hold vacuously; the averaged product is
            # the non-vacuous part
            ("identity[lie]:antisymmetry", True),
            ("identity[lie]:jacobi", True),
            ("identity[lie]:flexible", True),
            ("custom:null_product(lie)", True),
        ),
        negative_control=NegativeControl("u+E11", "element:idempotent"),
        notes=(
            "the subalgebra is commutative and u is central, so the derived "
            "bracket vanishes identically; x o y = R(x y) is the nonzero "
            "derived product",
        ),
    ))

    # -- F9: square-zero u on the zero-first-column plane; weight-0
    #        Rota-Baxter operator.  Both readings of the weight-0 identity
    #        (x R(y) versus y R(x) inside R) hold on this family because
    #        det u = 0 makes R kill the difference.
    _COLUMN_PLANE = [
        [[0, 1], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    bundles.append(FixtureBundle(
        name="F9",
        description="rank-one square-zero family u(x,y) acting on the plane of "
                    "matrices with zero first column; the induced operator is "
                    "Rota-Baxter of weight 0 under both argument orders",
        basis=_COLUMN_PLANE,
        u=((x * y, -x * x), (y * y, -x * y)),
        params=(_X, ParamSpec("y", 4, _AXIS5)),
        sample_point={"x": 1, "y": 1},
        rows=_rows(
            ("element:nilpotent2", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("operator[A]:rota_baxter(0)", True, _CERTIFIED),
            ("custom:rota_baxter0_mirrored(A)", True, _CERTIFIED),
            ("custom:null_product(A)", False),
        ),
        negative_control=NegativeControl("R+I", "operator[A]:rota_baxter(0)"),
    ))

    # -- F10: skew-idempotent family; weight-1 Rota-Baxter operator.
    bundles.append(FixtureBundle(
        name="F10",
        description="skew-idempotent family u(x,y) (u^2 = -u, y nonzero) acting "
                    "on the zero-first-column plane; the induced operator is "
                    "Rota-Baxter of weight 1",
        basis=_COLUMN_PLANE,
        u=((x * y, y * y), (-x * x - x, (-x - 1) * y)),
        denominator=y,
        params=(_X, _Y_NONZERO),
        sample_point={"x": 0, "y": 1},
        rows=_rows(
            ("element:skew_idempotent", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("operator[A]:rota_baxter(1)", True, _CERTIFIED),
            ("custom:null_product(A)", False),
        ),
        negative_control=NegativeControl("R+I", "operator[A]:rota_baxter(1)"),
    ))

    # -- F11: trace -lam, determinant beta family; weighted Rota-Baxter.
    bundles.append(FixtureBundle(
        name="F11",
        description="family u(x,y,lam,beta) with u^2 = -lam u - beta I (y "
                    "nonzero) acting on the zero-first-column plane; the induced "
                    "operator satisfies the weight-(lam,beta) Rota-Baxter identity",
        basis=_COLUMN_PLANE,
        u=((x * y, y * y), (-x * x - lam * x - beta, (-x - lam) * y)),
        denominator=y,
        params=(_X, _Y_NONZERO, ParamSpec("lam", 3, _AXIS4), ParamSpec("beta", 3, _AXIS4)),
        sample_point={"x": 0, "y": 1, "lam": 1, "beta": 2},
        rows=_rows(
            ("element:rb_weighted(@lam,@beta)", True, _CERTIFIED),
            ("element:stabilize", True, _CERTIFIED),
            ("operator[A]:rota_baxter_weighted(@lam,@beta)", True, _CERTIFIED),
            ("custom:null_product(A)", False),
        ),
        negative_control=NegativeControl(
            "R+I", "operator[A]:rota_baxter_weighted(@lam,@beta)"
        ),
    ))

    return {b.name: b for b in bundles}


_CATALOG: dict[str, FixtureBundle] = _build_catalog()


def list_fixtures() -> list[str]:
    """The fixture names, in catalog order (stable across runs)."""
    return list(_CATALOG)


def load_fixture(name: str) -> FixtureBundle:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownFixtureError(f"unknown fixture {name!r}") from None


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------

_ambient = cache(matrix_algebra)


# One fixture-catalog set-up and pass reads 16 distinct (basis, ambient_n)
# keys, so 64 keeps every hit on the default grids, while a basis that varies
# over a large grid (F7's) cannot keep one subalgebra per point alive.
@lru_cache(maxsize=64)
def _induced(basis: tuple, ambient_n: int) -> tuple[Algebra, Embedding]:
    """The subalgebra and embedding of one basis (row-major entries), built once."""
    return induce_subalgebra(_ambient(ambient_n), tuple(map(Element, basis)))


def _evaluate(entries: tuple, pt: Mapping) -> tuple:  # each Poly at pt
    return tuple(v(pt) if type(v) is Poly else v for v in entries)


def materialize(bundle: FixtureBundle, point: Optional[Mapping] = None) -> Materialized:
    pt = dict(bundle.sample_point)
    if point:
        for k, v in point.items():
            if k not in pt:
                raise NonassocError(f"fixture {bundle.name} has no parameter {k!r}")
            try:
                pt[k] = as_scalar(v)
            except (TypeError, ValueError) as exc:
                raise GridError(f"parameter {k} of fixture {bundle.name}: {exc}") from None
    for p in bundle.params:
        if pt[p.name] in p.exclude:
            raise GridError(f"parameter {p.name} = {pt[p.name]} is excluded for fixture "
                            f"{bundle.name}")
    u = _evaluate(bundle._u, pt)
    if bundle.denominator is not None:
        d = bundle.denominator(pt)
        u = tuple(exact_div(v, d) for v in u)
    basis = bundle._basis
    if bundle._basis_varies:
        basis = tuple(_evaluate(m, pt) for m in basis)
    induced, emb = _induced(basis, bundle.ambient_n)
    base = induced if bundle.base is None else bundle.base
    u = Element(u)
    return Materialized(bundle, pt, emb, u, _PlanAlgebras(bundle._steps, base, emb, u))


class _PlanAlgebras(Mapping):
    """The algebras of a fixture's plan, in plan order, and their operator
    R(x) = u x, each built on its first read, so a row pays only for what it
    reads.  It holds (embedding, u) rather than the ``Materialized``, so no
    reference cycle keeps a grid point alive."""

    def __init__(self, steps: dict, base: Algebra, embedding: Embedding, u: Element):
        self._steps, self._embedding, self._u = steps, embedding, u
        self._built: dict[str, Algebra] = {"A": base}

    @cached_property
    def operator(self) -> LinearOperator:
        """R(x) = u x, read by operator rows and the derived steps whose words read R."""
        return left_multiplication_operator(self._embedding, self._u)

    def __getitem__(self, name: str) -> Algebra:
        algebra = self._built.get(name)
        if algebra is None:
            source, spec = self._steps[name]
            operator = self.operator if CATALOG[spec.kind].needs_operator else None
            algebra = self._built[name] = derive(self[source], operator, spec)
        return algebra

    def __contains__(self, name) -> bool:
        return name in self._steps

    def __iter__(self):
        return iter(self._steps)

    def __len__(self) -> int:
        return len(self._steps)


# ---------------------------------------------------------------------------
# Row evaluation
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(
    r"^(element|operator|identity|custom)(?:\[([^\]]+)\])?:([a-z0-9_]+)(?:\(([^)]*)\))?$"
)


def _resolve_args(raw: Optional[str], point: Mapping) -> tuple:
    """The label's arguments, each ``@name`` read from ``point``."""
    out = [piece.strip() for piece in raw.split(",")] if raw else []
    for i, piece in enumerate(out):
        if piece.startswith("@"):
            if piece[1:] not in point:
                raise NonassocError(f"label references unknown parameter {piece[1:]!r}")
            out[i] = point[piece[1:]]
    return tuple(out)


def _custom_lin_dim(kinds_raw, dim_raw) -> Callable[[Materialized], Verdict]:
    """u's solutions of the ``+``-joined linear conditions span this dimension (-1: none)."""
    kinds = str(kinds_raw).split("+")
    for kind in kinds:
        if kind not in LINEAR_KINDS:
            raise MalformedPropertyError(f"unknown linear constraint {kind!r}")
    try:
        dim = int(str(dim_raw))
    except ValueError as exc:
        raise NonassocError(f"lin_dim expects an integer dimension, got {dim_raw!r}") from exc

    def check(m: Materialized) -> Verdict:
        space = solve_linear(m.ambient, [LinearConstraint(k, m.embedding) for k in kinds])
        actual = -1 if space.is_empty else space.dimension
        return Verdict.ok() if actual == dim else Verdict.fail(Witness((), (), actual, dim))

    return check


def _custom_null_product(a: Algebra) -> Verdict:
    if not a.entries:
        return Verdict.ok()
    i, j, *_ = a.entries[0]
    return Verdict.fail(Witness((i, j), (a.basis_vector(i), a.basis_vector(j)),
                                a.basis_product(i, j), a.zero()))


# custom check -> its number of arguments
_CUSTOM_ARITY = {"lin_dim": 2, "null_product": 1, "rota_baxter0_mirrored": 1}


def bind_row(bundle: FixtureBundle, label: str) -> Callable[[Materialized], Verdict]:
    """The check of ``label`` on a materialized ``bundle``, parsed, its
    record built and its names (condition, identity, algebra in the plan)
    checked once.  A label with ``@param`` arguments is bound once per
    argument tuple, first at the sample point.  An identity row re-checks
    only where its plan algebra changes (``Algebra.__eq__``)."""
    match = _LABEL_RE.match(label)
    if not match:
        raise NonassocError(f"malformed check label {label!r}")
    if "@" not in (match[4] or ""):
        return _bind(bundle, label, match, _resolve_args(match[4], {}))
    bind = cache(lambda args: _bind(bundle, label, match, args))
    bind(_resolve_args(match[4], bundle.sample_point))  # its names checked once, here
    return lambda m: bind(_resolve_args(match[4], m.point))(m)


def _bind(bundle, label, match, args: tuple) -> Callable[[Materialized], Verdict]:
    family, alg_name, kind, _ = match.groups()
    if family == "element":
        if kind in LINEAR_KINDS:
            return lambda m: verify_element(
                m.embedding, m.u, [LinearConstraint(kind, m.embedding)], None
            )[0][1]
        if kind in QUAD_KINDS:
            unit = matrix_identity_element(bundle.ambient_n) if QUAD_KINDS[kind].unit else None
            quad = QuadraticConstraint.parse(kind, args, unit=unit)
            return lambda m: verify_element(m.embedding, m.u, [], quad)[0][1]
        raise NonassocError(f"unknown element constraint {kind!r}")
    if family == "custom":
        if kind not in _CUSTOM_ARITY:
            raise NonassocError(f"unknown custom check {kind!r}")
        if len(args) != _CUSTOM_ARITY[kind]:
            raise NonassocError(f"{kind} takes {_CUSTOM_ARITY[kind]} argument(s), got {len(args)}")
        if kind == "lin_dim":
            return _custom_lin_dim(*args)
        alg_name = str(args[0])
        if kind == "rota_baxter0_mirrored":  # catalogued as custom, checked as operator[ALG]
            family, args = "operator", ()
    if family == "operator":
        prop = OperatorProperty.parse(kind, args)
    elif family == "identity":
        if args:
            raise NonassocError("identity rows take no arguments")
        get_identity(kind)  # an unknown name raises here, not at the first point
    if alg_name not in bundle._steps:
        raise NonassocError(f"check {label!r} names no algebra in the plan of {bundle.name}")
    if family == "custom":
        return lambda m: _custom_null_product(m.algebras[alg_name])
    if family == "operator":
        return lambda m: check_operator_property(m.algebras[alg_name], m.operator, prop)
    last = [None, None]  # the previous call's plan algebra and its verdict

    def check(m: Materialized) -> Verdict:
        algebra = m.algebras[alg_name]
        if algebra != last[0]:
            last[:] = algebra, check_identity(algebra, kind)
        return last[1]

    return check


def run_row(m: Materialized, label: str) -> Verdict:
    """Evaluate one check label against a materialized fixture."""
    return bind_row(m.bundle, label)(m)


def verify_fixture(name: str) -> Report:
    """Run every expected-verdict row of a fixture; mismatches are reported, not thrown."""
    bundle = load_fixture(name)
    m = materialize(bundle)
    results = tuple(RowResult(r.check, r.expect, run_row(m, r.check)) for r in bundle.rows)
    return Report(name, results)


# ---------------------------------------------------------------------------
# Parametric certification and negative controls
# ---------------------------------------------------------------------------

def certify_row(name: str, label: str) -> ParametricVerdict:
    """Certify one fixture row over the product of its parameters' declared axes.

    A pass certifies the row for all rational parameter values away from
    the excluded ones, provided each ``ParamSpec.degree`` bounds the row's
    degree in that parameter (``certify_parametric``).  Every grid point is
    materialized and counted; the label is bound once (``bind_row``), for
    all of them and only for this call.
    """
    bundle = load_fixture(name)
    if label not in {r.check for r in bundle.rows}:
        raise NonassocError(f"fixture {name} has no row {label!r}")
    check = bind_row(bundle, label)
    return certify_parametric(bundle.params, lambda pt: check(materialize(bundle, pt)))


def check_negative_control(name: str) -> NegativeControlResult:
    """Apply the fixture's documented perturbation to u; the target verdict must flip.

    ``u+E11`` adds E11.  ``R+I`` adds the ambient identity, as (u + I) x = u x + x
    makes R + I the left multiplication by u + I.  The shift is added to u's
    declaration (times its denominator), and the perturbed fixture is built at
    the sample point like any other, its R and plan algebras from the perturbed u."""
    bundle = load_fixture(name)
    perturb, target = bundle.negative_control.perturb, bundle.negative_control.target
    d = 1 if bundle.denominator is None else bundle.denominator
    u = [list(row) for row in bundle.u]
    for i in range(bundle.ambient_n if perturb == "R+I" else 1):
        u[i][i] = u[i][i] + d
    check = bind_row(bundle, target)
    m = materialize(bundle)
    perturbed = check(materialize(replace(bundle, u=u), m.point))
    return NegativeControlResult(name, perturb, target, check(m), perturbed)

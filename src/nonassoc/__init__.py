"""Exact construction and verification of operator-induced non-associative algebras.

Build finite-dimensional associative algebras over Q from structure
constants or matrix subalgebras, equip them with distinguished linear
operators (multiplicative, differential, averaging, Rota-Baxter), derive
the induced non-associative products (Lie, Jordan, Leibniz, pre-Lie,
Novikov, flexible), and verify every defining identity exactly.
"""
from .algebra import (
    Algebra,
    Element,
    Embedding,
    element_from_matrix,
    induce_subalgebra,
    is_associative,
    is_commutative,
    make_algebra,
    matrix_algebra,
    matrix_identity_element,
    matrix_unit,
)
from .constructions import CATALOG as CONSTRUCTION_CATALOG
from .constructions import ConstructionSpec, construction, derive, hadamard_algebra
from .errors import NonassocError
from .identities import (
    IDENTITY_NAMES,
    ParametricVerdict,
    ParamSpec,
    certify_parametric,
    check_identity,
    check_identity_random,
)
from .operators import (
    LinearOperator,
    OperatorProperty,
    check_operator_property,
    left_multiplication_operator,
    make_operator,
)
from .search import (
    AffineSpace,
    GridStrategy,
    LinearConstraint,
    QuadraticConstraint,
    SearchResult,
    UnivariateStrategy,
    find_special,
    solve_linear,
    verify_element,
)
from .fixtures import (
    check_negative_control,
    certify_row,
    list_fixtures,
    load_fixture,
    materialize,
    verify_fixture,
)
from .verdicts import Verdict, Witness

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AffineSpace",
    "CONSTRUCTION_CATALOG",
    "ConstructionSpec",
    "Element",
    "Embedding",
    "GridStrategy",
    "IDENTITY_NAMES",
    "LinearConstraint",
    "LinearOperator",
    "NonassocError",
    "OperatorProperty",
    "ParamSpec",
    "ParametricVerdict",
    "QuadraticConstraint",
    "SearchResult",
    "UnivariateStrategy",
    "Verdict",
    "Witness",
    "certify_parametric",
    "certify_row",
    "check_identity",
    "check_identity_random",
    "check_negative_control",
    "check_operator_property",
    "construction",
    "derive",
    "element_from_matrix",
    "find_special",
    "hadamard_algebra",
    "induce_subalgebra",
    "is_associative",
    "is_commutative",
    "left_multiplication_operator",
    "list_fixtures",
    "load_fixture",
    "make_algebra",
    "make_operator",
    "materialize",
    "matrix_algebra",
    "matrix_identity_element",
    "matrix_unit",
    "solve_linear",
    "verify_element",
    "verify_fixture",
]

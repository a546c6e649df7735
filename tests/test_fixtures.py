import importlib.util
import itertools
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from nonassoc import fixtures, search
from nonassoc.algebra import (
    Element,
    element_from_matrix,
    induce_subalgebra,
    matrix_algebra,
    matrix_identity_element,
)
from nonassoc.constructions import CATALOG, construction, derive, hadamard_algebra
from nonassoc.errors import GridError, ImageNotInSpanError, NonassocError, UnknownFixtureError
from nonassoc.fixtures import (
    ExpectedRow,
    NegativeControl,
    NegativeControlResult,
    bind_row,
    check_negative_control,
    certify_row,
    list_fixtures,
    load_fixture,
    materialize,
    run_row,
    verify_fixture,
)
from nonassoc.identities import ParamSpec, certify_parametric
from nonassoc.operators import LinearOperator, OperatorProperty, left_multiplication_operator
from nonassoc.scalars import Poly, canonical, exact_div
from nonassoc.search import QuadraticConstraint
from nonassoc.verdicts import Verdict, Witness

ALL_NAMES = ["F1", "F1b", "F2", "F3", "F3b", "F4", "F5",
             "F6", "F7", "F8", "F9", "F10", "F11"]


def test_list_fixtures_catalog_order():
    names = list_fixtures()
    assert names == ALL_NAMES
    assert names[0] == "F1"
    assert "F9" in names
    assert list_fixtures() == names  # stable across calls


def test_load_fixture_unknown():
    with pytest.raises(UnknownFixtureError):
        load_fixture("F99")


def test_load_fixture_bundles():
    f1b = load_fixture("F1b")
    assert [p.name for p in f1b.params] == ["b"]
    assert f1b.params[0].degree == 2
    assert f1b.params[0].axis == tuple(range(8))

    f11 = load_fixture("F11")
    assert [p.name for p in f11.params] == ["x", "y", "lam", "beta"]
    y = next(p for p in f11.params if p.name == "y")
    assert 0 in y.exclude


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fixture_reports_pass(name):
    report = verify_fixture(name)
    failing = [r.check for r in report.rows if not r.matched]
    assert report.passed, f"{name} mismatched rows: {failing}"


def test_verify_fixture_detects_corrupted_expectations(monkeypatch):
    bundle = load_fixture("F9")
    corrupted = list(bundle.rows)
    corrupted[0] = ExpectedRow(corrupted[0].check, not corrupted[0].expect)
    monkeypatch.setitem(fixtures._CATALOG, "T9", replace(bundle, name="T9", rows=tuple(corrupted)))
    report = verify_fixture("T9")
    assert not report.passed
    bad = [r for r in report.rows if not r.matched]
    assert len(bad) == 1 and bad[0].check == corrupted[0].check


def test_materialize_at_other_parameter_points():
    m = materialize(load_fixture("F1b"), {"b": 5})
    assert run_row(m, "operator[A]:endomorphism").passed
    assert run_row(m, "operator[A]:idempotent_op").passed
    with pytest.raises(NonassocError):
        materialize(load_fixture("F1b"), {"nope": 1})
    with pytest.raises(GridError):
        materialize(load_fixture("F10"), {"y": 0})   # excluded value


def test_run_row_label_validation():
    m = materialize(load_fixture("F9"))
    with pytest.raises(NonassocError):
        run_row(m, "bogus label")
    with pytest.raises(NonassocError):
        run_row(m, "element:unknown_kind")
    with pytest.raises(NonassocError):
        run_row(m, "custom:missing_check")


@pytest.mark.parametrize("label", [
    "operator[A]:rota_baxter",
    "operator[A]:rota_baxter(1,2)",
    "operator[A]:endomorphism(1)",
    "operator[A]:rota_baxter_weighted(1)",
    "operator[A]:no_such_property",
    "element:scaled",
    "element:rb_weighted(1)",
    "element:nilpotent2(0)",
    "custom:rota_baxter0_mirrored",
    "custom:rota_baxter0_mirrored(A,A)",
    "operator[A]:rota_baxter(x)",
    "element:scaled(1/0)",
])
def test_run_row_wrong_argument_count(label):
    """Positional label arguments bind to the kind's parameter names; a wrong
    count or a non-scalar is a library error, not an unpacking error."""
    with pytest.raises(NonassocError):
        run_row(materialize(load_fixture("F11")), label)


@pytest.mark.parametrize("label", [
    "operator[B]:rota_baxter(0)",
    "identity[B]:jacobi",
    "custom:null_product(B)",
    "identity:jacobi",
])
def test_run_row_algebra_outside_plan(label):
    """A label naming an algebra outside the plan (or none) is a library error
    that names the label."""
    with pytest.raises(NonassocError, match=re.escape(repr(label))):
        run_row(materialize(load_fixture("F9")), label)


@pytest.mark.parametrize("label", [
    "custom:null_product",
    "custom:lin_dim(stabilize)",
    # a dimension that is not an integer
    "custom:lin_dim(stabilize,zz)",
    "custom:lin_dim(stabilize,1/2)",
])
def test_run_row_custom_argument_count(label):
    with pytest.raises(NonassocError):
        run_row(materialize(load_fixture("F9")), label)


def test_run_row_binds_keyword_arguments():
    m = materialize(load_fixture("F11"))
    label = "operator[A]:rota_baxter_weighted"
    assert repr(run_row(m, label + "(beta=2,lam=1)")) == repr(run_row(m, label + "(1,2)"))
    for args in ("(lam=1)", "(lam=1,gamma=2)", "(lam=1,lam=2)", "(1,beta=2)"):
        with pytest.raises(NonassocError):
            run_row(m, label + args)


def _counting_parse(monkeypatch, cls) -> list:
    calls = []
    parse = cls.parse

    def counting(kind, args, **fixed):
        calls.append((kind, list(args)))
        return parse(kind, args, **fixed)

    monkeypatch.setattr(cls, "parse", counting)
    return calls


@pytest.mark.parametrize("name,label,cls", [
    ("F1", "operator[A]:endomorphism", OperatorProperty),
    ("F9", "custom:rota_baxter0_mirrored(A)", OperatorProperty),
    ("F10", "operator[A]:rota_baxter(1)", OperatorProperty),
    ("F1b", "element:idempotent", QuadraticConstraint),
])
def test_certify_row_binds_its_label_once(monkeypatch, name, label, cls):
    calls = _counting_parse(monkeypatch, cls)
    v = certify_row(name, label)
    assert v.passed and v.points_checked == _CERTIFIED_POINTS[name]
    assert len(calls) == 1


@pytest.mark.parametrize("label,cls", [
    ("operator[A]:rota_baxter_weighted(@lam,@beta)", OperatorProperty),
    ("element:rb_weighted(@lam,@beta)", QuadraticConstraint),
])
def test_certify_row_binds_param_arguments_at_each_point(monkeypatch, label, cls):
    calls = _counting_parse(monkeypatch, cls)
    v = certify_row("F11", label)
    assert v.passed and v.points_checked == 400
    assert len(calls) == 16  # the 16 (lam, beta) pairs, the sample point's among them
    axes = {p.name: p.axis for p in load_fixture("F11").params}
    assert {tuple(args) for _, args in calls} == {
        (lam, beta) for lam in axes["lam"] for beta in axes["beta"]
    }


@pytest.mark.parametrize("label", [
    "operator[A]:rota_baxter_weighted(@lam,@beta)",
    "element:rb_weighted(@lam,@beta)",
])
def test_a_param_value_past_the_int_text_limit_binds(label):
    """A bound value is not read as text: lam = 2^14300 (4,305 digits, past
    CPython's int-to-text limit) binds like any other value."""
    assert run_row(materialize(load_fixture("F11"), {"lam": 2**14300}), label).passed


@pytest.mark.parametrize("label,message", [
    ("bogus label", "malformed check label 'bogus label'"),
    ("operator[A]:endomorphism(", "malformed check label 'operator[A]:endomorphism('"),
    ("element:unknown_kind", "unknown element constraint 'unknown_kind'"),
    ("custom:missing_check", "unknown custom check 'missing_check'"),
    ("custom:null_product", "null_product takes 1 argument(s), got 0"),
    ("identity[A]:jacobi(1)", "identity rows take no arguments"),
    ("operator[A]:rota_baxter(@zz)", "label references unknown parameter 'zz'"),
    ("operator[A]:rota_baxter(1,2)", "rota_baxter takes 1 argument(s), got 2"),
])
def test_malformed_labels_keep_their_error_text(label, message):
    m = materialize(load_fixture("F11"))
    with pytest.raises(NonassocError) as raised:
        run_row(m, label)
    assert str(raised.value) == message


@pytest.mark.parametrize("name", ALL_NAMES)
def test_negative_controls_flip(name):
    res = check_negative_control(name)
    assert res.original.passed, f"{name}: control target must pass originally"
    assert res.flipped, f"{name}: perturbation {res.perturb} did not flip {res.target}"


class _OnceRunPoint(SimpleNamespace):
    """A perturbed point as negative controls once built it: the plan algebras
    of the unperturbed point, and R read off ``u`` unless ``given``."""

    @property
    def operator(self):
        return self.given or left_multiplication_operator(self.embedding, self.u)


def _negative_control_oracle(name: str) -> NegativeControlResult:
    """The control with the target run on R + I, or on u + E11, at the
    unperturbed sample point's plan algebras."""
    bundle = load_fixture(name)
    perturb, target = bundle.negative_control.perturb, bundle.negative_control.target
    m = materialize(bundle)
    kept = dict(bundle=m.bundle, point=m.point, ambient=m.ambient,
                embedding=m.embedding, algebras=m.algebras)
    if perturb == "R+I":
        given = m.operator + LinearOperator.identity(m.operator.dim)
        perturbed = _OnceRunPoint(**kept, u=m.u, given=given)
    else:
        assert perturb == "u+E11"
        perturbed = _OnceRunPoint(**kept, u=m.u + m.ambient.basis_vector(0), given=None)
    return NegativeControlResult(name, perturb, target, run_row(m, target),
                                 run_row(perturbed, target))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_negative_controls_perturb_u_as_the_once_run_controls(name):
    m = materialize(load_fixture(name))
    shifted = m.u + matrix_identity_element(m.bundle.ambient_n)
    r_plus_i = m.operator + LinearOperator.identity(m.operator.dim)
    assert left_multiplication_operator(m.embedding, shifted) == r_plus_i
    assert repr(check_negative_control(name)) == repr(_negative_control_oracle(name))


_NOT_A_STEP = " of F1 is not (a new name, 'A' or an earlier name, a construction)"


@pytest.mark.parametrize("plan,message", [
    ((("lie", "Z", "lie_endo"),), "plan step ('lie', 'Z', 'lie_endo')" + _NOT_A_STEP),
    ((("lie", "A", "lie_endo"), ("lie", "A", "lie_endo_alt")),
     "plan step ('lie', 'A', 'lie_endo_alt')" + _NOT_A_STEP),
    ((("A", "A", "lie_endo"),), "plan step ('A', 'A', 'lie_endo')" + _NOT_A_STEP),
    ((("lie", "A", "bogus"),), "unknown construction 'bogus'; choose from "),
    ((("nov", "A", "novikov_affine"),), "novikov_affine requires parameter a"),
    ((("lie", "A"),), "plan step ('lie', 'A')" + _NOT_A_STEP),
    ((("lie", "derive", "A", "lie_endo", None),),
     "plan step ('lie', 'derive', 'A', 'lie_endo', None)" + _NOT_A_STEP),
], ids=["unknown-source", "repeated-name", "redefined-A", "unknown-construction",
        "needs-a-parameter", "too-short", "old-form"])
def test_plan_steps_are_checked_when_the_bundle_is_made(plan, message):
    with pytest.raises(NonassocError) as raised:
        replace(load_fixture("F1"), plan=plan)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("control,message", [
    (NegativeControl("R+2I", "operator[A]:rota_baxter(0)"), "unknown perturbation 'R+2I'"),
    (NegativeControl("R+I", "operator[A]:endomorphism"),
     "negative control target 'operator[A]:endomorphism' is not a row of F9"),
], ids=["perturbation", "target"])
def test_negative_control_is_checked_when_the_bundle_is_made(control, message):
    with pytest.raises(NonassocError) as raised:
        replace(load_fixture("F9"), negative_control=control)
    assert str(raised.value) == message


@pytest.mark.parametrize("label,message", [
    ("identity[B]:jacobi", "check 'identity[B]:jacobi' names no algebra in the plan of F9"),
    ("custom:null_product(B)", "check 'custom:null_product(B)' names no algebra in the plan of F9"),
    ("custom:lin_dim(stabilize,zz)", "lin_dim expects an integer dimension, got 'zz'"),
    ("custom:lin_dim(bogus,6)", "unknown linear constraint 'bogus'"),
    ("identity[A]:bogus", "unknown identity 'bogus'"),
    # labels whose arguments name parameters are checked at the sample point
    ("operator[B]:rota_baxter_weighted(@x,@y)",
     "check 'operator[B]:rota_baxter_weighted(@x,@y)' names no algebra in the plan of F9"),
    ("operator[A]:bogus(@x,@y)", "unknown operator property 'bogus'; choose from "),
    ("operator[A]:rota_baxter_weighted(@zz,@y)", "label references unknown parameter 'zz'"),
    ("operator[A]:rota_baxter_weighted(@x)", "rota_baxter_weighted takes 2 argument(s), got 1"),
])
def test_bind_row_checks_names_and_dimensions_without_a_point(label, message):
    with pytest.raises(NonassocError) as raised:
        bind_row(load_fixture("F9"), label)
    assert str(raised.value).startswith(message)


def test_certify_row_f1b_full_grid():
    v = certify_row("F1b", "identity[lie]:jacobi")
    assert v.passed and v.points_checked == 8


def test_certify_row_unknown_label():
    with pytest.raises(NonassocError):
        certify_row("F1b", "identity[lie]:left_leibniz")


def test_certify_row_too_small_grid():
    """F1b's b has declared degree 2: a spec with two values is refused when it is made."""
    with pytest.raises(GridError, match="parameter b has 2 distinct values"):
        replace(load_fixture("F1b").params[0], axis=(0, 1))


def test_certify_row_counts_distinct_scalars_not_strings(monkeypatch):
    """"1", "1/1" and "2/2" are one rational: a one-point grid, too small."""
    f1b = load_fixture("F1b")
    with pytest.raises(GridError, match="1 distinct"):
        replace(f1b.params[0], axis=("1", "1/1", "2/2"))
    with pytest.raises(GridError):
        replace(f1b.params[0], axis=("x", 1, 2))
    spec = replace(f1b.params[0], axis=("1/2", "2/3", "3"))
    assert spec.axis == (Fraction(1, 2), Fraction(2, 3), 3)
    monkeypatch.setitem(fixtures._CATALOG, "T1b", replace(f1b, name="T1b", params=(spec,)))
    v = certify_row("T1b", "identity[lie]:jacobi")
    assert v.passed and v.points_checked == 3


def test_certify_row_rejects_repeated_axis_values():
    """A repeated value would be checked and counted twice."""
    b = load_fixture("F1b").params[0]
    with pytest.raises(GridError, match=r"parameter b repeats the value 2$"):
        replace(b, axis=(0, 1, 2, 2, "2/1", 3))
    with pytest.raises(GridError, match=r"parameter b repeats the value 1/2$"):
        replace(b, axis=("1/2", 0, 1, "2/4"))
    with pytest.raises(GridError, match=r"parameter t repeats the value 1$"):
        ParamSpec("t", 2, (0, 1, 1, 2))


_IDENTITY_ROWS = [(name, r.check) for name in ALL_NAMES
                  for r in load_fixture(name).rows if r.check.startswith("identity[")]


def test_identity_rows_catalog():
    assert len(_IDENTITY_ROWS) == 40
    failing = [(n, label) for n, label in _IDENTITY_ROWS
               if not next(r for r in load_fixture(n).rows if r.check == label).expect]
    assert failing == [("F3", "identity[plus]:associativity"),
                       ("F4", "identity[leibc]:antisymmetry")]


@pytest.mark.parametrize("name,label", _IDENTITY_ROWS)
def test_certify_row_identity_matches_every_point_checked(name, label):
    """Re-checking an identity row only where its algebra changes gives the
    verdict of checking it at every point."""
    bundle = load_fixture(name)
    reference = certify_parametric(bundle.params,
                                   lambda pt: run_row(materialize(bundle, pt), label))
    assert repr(certify_row(name, label)) == repr(reference)


def _counting_check_identity(monkeypatch) -> list:
    calls = []
    check_identity = fixtures.check_identity

    def counting(algebra, name):
        calls.append(name)
        return check_identity(algebra, name)

    monkeypatch.setattr(fixtures, "check_identity", counting)
    return calls


def test_certify_row_checks_an_unchanged_algebra_once(monkeypatch):
    # psi(y) x - psi(x) y is one Lie algebra at all 729 points of F1
    calls = _counting_check_identity(monkeypatch)
    v = certify_row("F1", "identity[lie]:jacobi")
    assert v.passed and v.points_checked == 729
    assert calls == ["jacobi"]


def test_certify_row_rechecks_when_the_algebra_changes(monkeypatch):
    """u = 0 makes the bracket null (associative) at t = 0, 1, 2; the sample
    u of F1 at t = 3 makes it fail associativity."""
    f1 = load_fixture("F1")
    t = Poly.var("t")
    scale = t * (t - 1) * (t - 2) * Fraction(1, 6)  # 0 at t = 0, 1, 2 and 1 at t = 3
    label = "identity[lie]:associativity"
    bundle = replace(
        f1, name="T1", params=(ParamSpec("t", 1, (0, 1, 2, 3)),), sample_point={"t": 0},
        u=[[scale * v for v in row] for row in _f1_u(f1.sample_point)],
        rows=f1.rows + (ExpectedRow(label, False),),
    )
    monkeypatch.setitem(fixtures._CATALOG, "T1", bundle)
    reference = certify_parametric(bundle.params,
                                   lambda pt: run_row(materialize(bundle, pt), label))
    calls = _counting_check_identity(monkeypatch)
    v = certify_row("T1", label)
    assert calls == ["associativity", "associativity"]
    assert not v.passed and v.failing_point == {"t": 3} and v.points_checked == 4
    assert repr(v) == repr(reference)


def test_f7_is_flagged_vacuous():
    bundle = load_fixture("F7")
    assert any("zero" in note for note in bundle.notes)
    m = materialize(bundle)
    a = m.algebras["A"]
    assert all(
        a.basis_product(i, j).is_zero() for i in range(a.dim) for j in range(a.dim)
    )
    # the negative control targets the element conditions, not an identity row
    assert bundle.negative_control.target.startswith("element:")


def test_f9_mirrored_reading_passes_at_more_points():
    for x in (0, 1, 2):
        for y in (0, 1, 3):
            m = materialize(load_fixture("F9"), {"x": x, "y": y})
            assert run_row(m, "operator[A]:rota_baxter(0)").passed
            assert run_row(m, "custom:rota_baxter0_mirrored(A)").passed


def test_plan_algebras_are_derived_on_first_lookup(monkeypatch):
    calls = []

    def counting_derive(*args):
        calls.append(args[2].kind)
        return derive(*args)

    monkeypatch.setattr(fixtures, "derive", counting_derive)
    m = materialize(load_fixture("F1"))
    assert "lie" in m.algebras and "jordan" not in m.algebras
    assert run_row(m, "element:right_identity").passed
    assert run_row(m, "operator[A]:endomorphism").passed
    assert calls == []
    assert run_row(m, "identity[lie]:jacobi").passed
    assert calls == ["lie_endo"]
    assert run_row(m, "identity[lie]:jacobi").passed
    assert run_row(m, "identity[lie]:antisymmetry").passed
    assert calls == ["lie_endo"]


def _eager_plan(m) -> dict:
    """Every algebra of the plan, built in plan order as a reference."""
    if m.bundle.name == "F5":
        built = {"A": hadamard_algebra(2, 1)}
    else:
        built = {"A": induce_subalgebra(m.ambient, m.embedding.basis)[0]}
    for name, source, cons_name in m.bundle.plan:
        operator = m.operator if CATALOG[cons_name].needs_operator else None
        built[name] = derive(built[source], operator, construction(cons_name))
    return built


@pytest.mark.parametrize("name", ALL_NAMES)
def test_plan_algebras_match_eager_derivation(name):
    m = materialize(load_fixture(name))
    assert list(m.algebras) == ["A", *(step[0] for step in m.bundle.plan)]
    eager = _eager_plan(m)
    for alg_name in reversed(list(eager)):  # a derived algebra before its source
        assert m.algebras[alg_name] == eager[alg_name]
        assert m.algebras[alg_name].meta == eager[alg_name].meta
    assert m.algebras == eager
    assert list(m.algebras.items()) == list(eager.items())


# Grid points of every certified row, per fixture, as certified before derived
# algebras were built lazily; a grid pass must visit exactly these.
_CERTIFIED_POINTS = {"F1": 729, "F1b": 8, "F3b": 4, "F6": 729, "F7": 36,
                     "F9": 25, "F10": 25, "F11": 400}
_CERTIFIED = [(name, label) for name in ALL_NAMES
              for label in load_fixture(name).certified_rows]


def test_certified_rows_catalog():
    assert len(_CERTIFIED) == 35
    assert {name for name, _ in _CERTIFIED} == set(_CERTIFIED_POINTS)


@pytest.mark.parametrize("name,label", _CERTIFIED)
def test_certified_row_passes_on_its_whole_grid(name, label):
    v = certify_row(name, label)
    assert v.passed and v.failing_point is None and v.inner is None
    assert v.points_checked == _CERTIFIED_POINTS[name]


def test_certify_row_reports_first_failing_point():
    v = certify_row("F1", "operator[A]:idempotent_op")
    inner = Verdict.fail(Witness(
        (2,), (Element((0, 0, 1)),), Element((0, 0, 4)), Element((0, 0, 2))
    ))
    assert not v.passed
    assert v.failing_point == {"a": 0, "b": 0, "c": 0, "e": 0, "f": 0, "g": 2}
    assert v.points_checked == 3
    assert v.inner == inner
    m = materialize(load_fixture("F1"), v.failing_point)
    assert run_row(m, "operator[A]:idempotent_op") == inner


def _dense_stabilize(amb, emb, j, u):
    """The stabilize row's sides from the ambient product and its residual."""
    return emb.residual(amb.product(u, emb.basis[j])), amb.zero()


def _eager_oracle(bundle, label, monkeypatch):
    """``label`` certified as every grid point was once checked: R built as
    soon as the point is materialized, the stabilize row from the dense
    residual, and every identity row checked at every point."""

    def check(point):
        m = materialize(bundle, point)
        m.operator  # noqa: B018 -- built here, as materialize once built it
        return run_row(m, label)

    with monkeypatch.context() as patch:
        patch.setitem(search.LINEAR_SIDES, "stabilize", _dense_stabilize)
        return certify_parametric(bundle.params, check)


@pytest.mark.parametrize("name,label", _CERTIFIED)
def test_certified_row_matches_the_eager_oracle(name, label, monkeypatch):
    oracle = _eager_oracle(load_fixture(name), label, monkeypatch)
    assert repr(certify_row(name, label)) == repr(oracle)


def _counting_left_multiplication(monkeypatch) -> list:
    calls = []
    build = fixtures.left_multiplication_operator

    def counting(emb, u):
        calls.append(u)
        return build(emb, u)

    monkeypatch.setattr(fixtures, "left_multiplication_operator", counting)
    return calls


def test_r_is_built_only_for_rows_that_read_it(monkeypatch):
    calls = _counting_left_multiplication(monkeypatch)
    assert certify_row("F1", "element:stabilize").points_checked == 729
    assert calls == []
    assert certify_row("F1", "operator[A]:endomorphism").points_checked == 729
    assert len(calls) == 729
    assert certify_row("F1", "identity[lie]:jacobi").points_checked == 729
    assert len(calls) == 2 * 729  # the plan builds R when it derives lie
    m = materialize(load_fixture("F1"))
    assert m.operator is m.operator and m.algebras["lie"] == m.algebras["lie"]
    assert len(calls) == 2 * 729 + 1  # one R, which derives lie


@pytest.mark.parametrize("label", ["operator[plus]:endomorphism", "operator[plus]:idempotent_op"])
def test_one_r_per_point_serves_the_row_and_the_derived_algebra(monkeypatch, label):
    calls = _counting_left_multiplication(monkeypatch)
    assert certify_row("F3b", label).points_checked == 4
    assert len(calls) == 4


def _f8_leaving_the_span(monkeypatch, **changes):
    """F8 with a parameter t and u + t E11: its u at t = 0, and diag(2, 1, 0)
    at t = 1, whose product with the first basis element E11 + E22 leaves
    the span."""
    f8 = load_fixture("F8")
    u = [list(row) for row in f8.u]
    u[0][0] += Poly.var("t")
    bundle = replace(
        f8, name="T8", params=(ParamSpec("t", 1, (0, 1)),), sample_point={"t": 0}, u=u,
        **changes,
    )
    monkeypatch.setitem(fixtures._CATALOG, "T8", bundle)
    return bundle


def test_u_leaving_the_span_fails_its_rows_that_read_u_or_r(monkeypatch):
    bundle = _f8_leaving_the_span(monkeypatch)
    m = materialize(bundle, {"t": 1})  # R is not built, so nothing raises yet
    amb, emb = m.ambient, m.embedding
    images = [amb.product(m.u, b) for b in emb.basis]
    j = next(j for j, img in enumerate(images) if not emb.residual(img).is_zero())
    residual = emb.residual(images[j])
    expected = Verdict.fail(Witness((j,), (emb.basis[j], m.u), residual, amb.zero()))
    assert j == 0 and repr(run_row(m, "element:stabilize")) == repr(expected)
    for label in ("element:idempotent", "element:centralize"):
        assert not run_row(m, label).passed
    assert run_row(m, "identity[A]:associativity").passed  # A needs no R

    v = certify_row("T8", "element:stabilize")
    assert not v.passed and v.failing_point == {"t": 1} and v.points_checked == 2
    assert repr(v.inner) == repr(expected)

    for label in ("operator[A]:endomorphism", "identity[lie]:jacobi",
                  "identity[flex]:flexible"):
        with pytest.raises(ImageNotInSpanError) as exc:
            run_row(m, label)
        assert exc.value.basis_index == j and exc.value.residual == residual.coords
        with pytest.raises(ImageNotInSpanError) as exc:
            certify_row("T8", label)
        assert exc.value.basis_index == j and exc.value.residual == residual.coords
    with pytest.raises(ImageNotInSpanError):  # where R was built with every point
        _eager_oracle(bundle, "element:stabilize", monkeypatch)


def test_r_is_built_only_for_steps_whose_words_read_it(monkeypatch):
    calls = _counting_left_multiplication(monkeypatch)
    assert certify_row("F3b", "identity[plus]:jordan_main").points_checked == 4
    assert calls == []
    algebras = materialize(load_fixture("F3")).algebras
    assert "operator" not in algebras["plus"].meta
    assert "operator" in algebras["jordan1"].meta


def test_u_leaving_the_span_leaves_the_steps_that_read_no_r(monkeypatch):
    plan = load_fixture("F8").plan + (("plus", "A", "jordan_plus"),)
    m = materialize(_f8_leaving_the_span(monkeypatch, plan=plan), {"t": 1})
    for label in ("identity[plus]:commutativity", "identity[plus]:jordan_main"):
        assert run_row(m, label).passed
    with pytest.raises(ImageNotInSpanError):
        run_row(m, "identity[lie]:jacobi")


def test_denominator_must_be_a_monomial_whose_zeros_are_excluded():
    f10 = load_fixture("F10")
    x, y = f10.params
    assert y.exclude == (0,) and f10.denominator.terms == {("y",): 1}
    message = "denominator of F10 is not a monomial in parameters that exclude 0"
    for bad in (dict(params=(x, replace(y, exclude=()))), dict(denominator=Poly.var("y") + 1)):
        with pytest.raises(NonassocError) as raised:
            replace(f10, **bad)
        assert str(raised.value) == message


@pytest.mark.parametrize("change,message", [
    (dict(u=[[Poly.var("zz"), 0], [0, 0]]), "fixture F9 uses ['zz'], which are not its parameters"),
    (dict(basis=[[[Poly.var("w"), 0], [0, 1]]]), "fixture F9 uses ['w'], which are not its parameters"),
    (dict(sample_point={"x": 1}), "sample point of F9 names ['x'], not its parameters ['x', 'y']"),
])
def test_bundle_declarations_are_checked_when_it_is_made(change, message):
    with pytest.raises(NonassocError) as raised:
        replace(load_fixture("F9"), **change)
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [1.5, True, "1.5"], ids=["float", "bool", "decimal"])
def test_bad_point_value_is_a_grid_error(value):
    with pytest.raises(GridError, match="^parameter x of fixture F9: "):
        materialize(load_fixture("F9"), {"x": value})


def test_induced_cache_is_bounded():
    """A basis that varies with beta gives each beta its own subalgebra."""
    fixtures._induced.cache_clear()
    f7 = load_fixture("F7")
    for beta in range(100):
        assert run_row(materialize(f7, {"beta": beta}), "element:stabilize").passed
    info = fixtures._induced.cache_info()
    assert info.misses == 100 and info.currsize == info.maxsize < 100


# The closures that once declared u and the bases, kept as the oracle of
# the polynomial declarations: u(point) and basis(point) as nested tuples.

def _f1_u(p):
    a, b, c, e, f, g = (p["a"], p["b"], p["c"], p["e"], p["f"], p["g"])
    return (
        (a, b, c),
        (canonical(1 - a), canonical(1 - b), canonical(-c)),
        (e, f, g),
    )


def _f1b_u(p):
    b = p["b"]
    return (
        (1, b, b),
        (0, canonical(1 - b), canonical(-b)),
        (0, canonical(b - 1), b),
    )


def _f6_u(p):
    a, b, c, e, f, g = (p["a"], p["b"], p["c"], p["e"], p["f"], p["g"])
    return (
        (a, b, c),
        (canonical(-a), canonical(-b), canonical(-c)),
        (e, f, g),
    )


def _f7_basis(p):
    beta = p["beta"]
    a = canonical(-beta)
    q = canonical(beta - 1)
    col = (a, 1, 1)
    row = (1, 1, q)
    return (tuple(tuple(canonical(ci * rj) for rj in row) for ci in col),)


def _f7_u(p):
    beta, lam = p["beta"], p["lam"]
    a = canonical(-beta)
    col = (a, 1, 1)
    row = (1, beta, canonical(lam * beta))
    return tuple(tuple(canonical(ci * rj) for rj in row) for ci in col)


def _f9_u(p):
    x, y = p["x"], p["y"]
    return (
        (canonical(x * y), canonical(-x * x)),
        (canonical(y * y), canonical(-x * y)),
    )


def _f10_u(p):
    x, y = p["x"], p["y"]
    return (
        (x, y),
        (exact_div(-x * x - x, y), canonical(-x - 1)),
    )


def _f11_u(p):
    x, y, lam, beta = p["x"], p["y"], p["lam"], p["beta"]
    return (
        (x, y),
        (exact_div(-x * x - lam * x - beta, y), canonical(-x - lam)),
    )


_U_CLOSURES = {"F1": _f1_u, "F1b": _f1b_u, "F3b": _f1b_u, "F6": _f6_u, "F7": _f7_u,
               "F9": _f9_u, "F10": _f10_u, "F11": _f11_u}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_polynomial_u_and_basis_match_the_closures(name):
    """At every default-grid point and the sample point: u, the embedding
    basis and A's structure constants, as the closures gave them (a fixed
    declaration was read as it is)."""
    bundle = load_fixture(name)
    grid = [dict(zip([p.name for p in bundle.params], combo))
            for combo in itertools.product(*(p.axis for p in bundle.params))]
    points = grid + ([] if bundle.sample_point in grid else [bundle.sample_point])
    for point in points:
        m = materialize(bundle, point)
        closure = _U_CLOSURES.get(name)
        u = element_from_matrix(closure(point) if closure else bundle.u)
        basis = _f7_basis(point) if name == "F7" else bundle.basis
        a, emb = induce_subalgebra(matrix_algebra(bundle.ambient_n),
                                   [element_from_matrix(b) for b in basis])
        if name == "F5":  # the entrywise-product plane, not the subalgebra of M2
            a = hadamard_algebra(2, 1)
        assert repr(m.u) == repr(u), point
        assert repr(m.embedding.basis) == repr(emb.basis), point
        assert repr(m.algebras["A"].sparse_rows) == repr(a.sparse_rows), point
    assert len(points) == {"F1": 730, "F6": 730, "F7": 36, "F9": 25, "F10": 25,
                           "F11": 400, "F1b": 8, "F3b": 4}.get(name, 1)


def test_reproduce_examples_stdout_ends_in_the_row_count(capsys):
    """The elapsed time goes to stderr, so stdout is the same on every run."""
    script = Path(__file__).parent.parent / "scripts" / "reproduce_examples.py"
    spec = importlib.util.spec_from_file_location("reproduce_examples", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    outs = []
    for _ in range(2):
        assert module.main() == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(r"elapsed \d+\.\ds\n", err)
        outs.append(out)
    assert outs[0].splitlines()[-1] == "ALL EXAMPLES REPRODUCED (121 rows)"
    assert outs[0] == outs[1]

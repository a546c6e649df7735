import importlib.util
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from nonassoc import fixtures, search
from nonassoc.algebra import Element, induce_subalgebra, matrix_identity_element
from nonassoc.constructions import construction, derive, hadamard_algebra
from nonassoc.errors import GridError, ImageNotInSpanError, NonassocError, UnknownFixtureError
from nonassoc.fixtures import (
    ExpectedRow,
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


def test_verify_fixture_detects_corrupted_expectations():
    bundle = load_fixture("F9")
    corrupted = list(bundle.rows)
    corrupted[0] = ExpectedRow(corrupted[0].check, not corrupted[0].expect)
    report = verify_fixture("F9", expectations=corrupted)
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
    that names the label, directly and through caller-given expectations."""
    with pytest.raises(NonassocError, match=re.escape(repr(label))):
        run_row(materialize(load_fixture("F9")), label)
    with pytest.raises(NonassocError, match=re.escape(repr(label))):
        verify_fixture("F9", expectations=[ExpectedRow(label, True)])


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
    assert len(calls) == 400
    axes = {p.name: p.axis for p in load_fixture("F11").params}
    assert {tuple(args) for _, args in calls} == {
        (lam, beta) for lam in axes["lam"] for beta in axes["beta"]
    }


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


@pytest.mark.parametrize("plan,message", [
    ((("A", "induced"), ("A", "bogus")), "unknown base algebra step ('A', 'bogus')"),
    ((("A", "induced"), ("lie", "build", "A", "lie_endo", None)),
     "unknown plan step ('lie', 'build', 'A', 'lie_endo', None)"),
])
def test_malformed_plan_steps_fail_when_the_bundle_is_made(plan, message):
    with pytest.raises(NonassocError) as raised:
        replace(load_fixture("F1"), plan=plan)
    assert str(raised.value) == message


@pytest.mark.parametrize("label,message", [
    ("identity[B]:jacobi", "check 'identity[B]:jacobi' names no algebra in the plan of F9"),
    ("custom:null_product(B)", "check 'custom:null_product(B)' names no algebra in the plan of F9"),
    ("custom:lin_dim(stabilize,zz)", "lin_dim expects an integer dimension, got 'zz'"),
])
def test_bind_row_checks_names_and_dimensions_without_a_point(label, message):
    with pytest.raises(NonassocError) as raised:
        bind_row(load_fixture("F9"), label)
    assert str(raised.value) == message


def test_certify_row_f1b_full_grid():
    v = certify_row("F1b", "identity[lie]:jacobi")
    assert v.passed and v.points_checked == 8


def test_certify_row_unknown_label():
    with pytest.raises(NonassocError):
        certify_row("F1b", "identity[lie]:left_leibniz")


def test_certify_row_too_small_grid():
    with pytest.raises(GridError):
        certify_row("F1b", "identity[lie]:jacobi", axes={"b": [0, 1]})


def test_certify_row_counts_distinct_scalars_not_strings():
    """"1", "1/1" and "2/2" are one rational: a one-point grid, too small."""
    with pytest.raises(GridError, match="1 distinct"):
        certify_row("F1b", "identity[lie]:jacobi", axes={"b": ["1", "1/1", "2/2"]})
    with pytest.raises(GridError):
        certify_row("F1b", "identity[lie]:jacobi", axes={"b": ["x", 1, 2]})
    v = certify_row("F1b", "identity[lie]:jacobi", axes={"b": ["1/2", "2/3", "3"]})
    assert v.passed and v.points_checked == 3


def test_certify_row_rejects_repeated_axis_values():
    """A repeated value would be checked and counted twice."""
    with pytest.raises(GridError, match=r"parameter b repeats the value 2$"):
        certify_row("F1b", "element:idempotent", {"b": [0, 1, 2, 2, "2/1", 3]})
    with pytest.raises(GridError, match=r"parameter b repeats the value 1/2$"):
        certify_row("F1b", "element:idempotent", {"b": ["1/2", 0, 1, "2/4"]})


def test_certify_row_rejects_a_string_axis():
    """A string axis would be read as one value per character."""
    with pytest.raises(GridError, match="parameter b must be a list"):
        certify_row("F1b", "element:idempotent", {"b": "01234567"})
    assert certify_row("F1b", "element:idempotent", {"b": list("01234567")}).points_checked == 8


def test_certify_row_rejects_unknown_axes():
    with pytest.raises(GridError, match="'bb'"):
        certify_row("F1b", "identity[lie]:jacobi", axes={"bb": [0, 1]})
    with pytest.raises(GridError, match="'z'"):
        certify_row("F1b", "identity[lie]:jacobi", axes={"b": [0, 1, 2], "z": [0]})


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
    reference = certify_parametric(load_fixture(name), lambda m: run_row(m, label))
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
    sample_u = f1.u_fn(f1.sample_point)
    zero_u = tuple(tuple(0 for _ in row) for row in sample_u)
    label = "identity[lie]:associativity"
    bundle = replace(
        f1, name="T1", params=(ParamSpec("t", 1, (0, 1, 2, 3)),), sample_point={"t": 0},
        u_fn=lambda p: sample_u if p["t"] == 3 else zero_u,
        rows=f1.rows + (ExpectedRow(label, False),),
    )
    monkeypatch.setitem(fixtures._CATALOG, "T1", bundle)
    reference = certify_parametric(bundle, lambda m: run_row(m, label))
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
    built = {}
    for step in m.bundle.plan:
        if step == ("A", "induced"):
            built["A"] = induce_subalgebra(m.ambient, m.embedding.basis)[0]
        elif step[:2] == ("A", "hadamard"):
            built["A"] = hadamard_algebra(step[2], step[3])
        else:
            name, _, source, cons_name, a = step
            built[name] = derive(built[source], m.operator, construction(cons_name, a))
    return built


@pytest.mark.parametrize("name", ALL_NAMES)
def test_plan_algebras_match_eager_derivation(name):
    m = materialize(load_fixture(name))
    assert list(m.algebras) == [step[0] for step in m.bundle.plan]
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

    def instantiate(point):
        m = materialize(bundle, point)
        m.operator  # noqa: B018 -- built here, as materialize once built it
        return m

    family = SimpleNamespace(params=bundle.params, instantiate=instantiate)
    with monkeypatch.context() as patch:
        patch.setitem(search.LINEAR_SIDES, "stabilize", _dense_stabilize)
        return certify_parametric(family, lambda m: run_row(m, label))


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


def _f8_leaving_the_span(monkeypatch):
    """F8 with a parameter t: its u at t = 0, and u + E11 = diag(2, 1, 0) at
    t = 1, whose product with the first basis element E11 + E22 leaves the
    span."""
    f8 = load_fixture("F8")
    u = f8.u_fn(f8.sample_point)
    bumped = ((u[0][0] + 1,) + u[0][1:],) + u[1:]
    bundle = replace(
        f8, name="T8", params=(ParamSpec("t", 1, (0, 1)),), sample_point={"t": 0},
        u_fn=lambda p: bumped if p["t"] == 1 else u,
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

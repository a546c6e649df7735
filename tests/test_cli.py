import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonassoc.algebra import matrix_algebra
from nonassoc.cli import main
from nonassoc.identities import IDENTITY_NAMES
from nonassoc.serial import algebra_to_dict

DATA = Path(__file__).parent.parent / "src" / "nonassoc" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_fixtures(capsys):
    code, out, _ = run(capsys, "list-fixtures")
    assert code == 0
    assert out.splitlines()[0] == "F1"
    assert "F9" in out.splitlines()


def test_check_null_algebra_passes(capsys):
    code, out, _ = run(
        capsys, "check",
        "--algebra", str(DATA / "examples" / "null2.json"),
        "--identity", "jacobi",
    )
    assert code == 0
    assert "result: PASS" in out


def test_check_nonassociative_fails_with_witness(capsys):
    code, out, _ = run(
        capsys, "check",
        "--algebra", str(DATA / "examples" / "f3plus.json"),
        "--identity", "associativity",
    )
    assert code == 1
    assert "FAIL" in out
    assert "witness indices" in out
    assert "lhs = " in out and "rhs = " in out
    # exact rationals only, no decimals
    assert "." not in out.replace("result: FAIL", "").replace(".json", "")


def test_check_random_corroboration(capsys):
    code, out, _ = run(
        capsys, "check",
        "--algebra", str(DATA / "fixtures" / "F1b.algebra.json"),
        "--identity", "associativity",
        "--random", "trials=50,seed=11",
    )
    assert code == 0
    assert "random(trials=50, seed=11): PASS" in out


def test_check_reports_are_byte_identical(capsys):
    args = (
        "check",
        "--algebra", str(DATA / "examples" / "f3plus.json"),
        "--identity", "associativity",
        "--random", "trials=20,seed=3",
        "--json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 1
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is False
    assert payload["checks"][0]["witness"]["indices"] == [0, 0, 1]


def test_verify_fixture_cli(capsys):
    code, out, _ = run(capsys, "verify-fixture", "F1b")
    assert code == 0
    assert "result: PASS" in out


def test_verify_fixture_all_json(capsys):
    code, out, _ = run(capsys, "verify-fixture", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 13


def test_verify_fixture_reports_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify-fixture", "--all", "--json")
    code2, out2, _ = run(capsys, "verify-fixture", "--all", "--json")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_fixture_unknown(capsys):
    code, _, err = run(capsys, "verify-fixture", "F99")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [("F1", "--all"), ()], ids=["both", "neither"])
def test_verify_fixture_takes_a_name_or_all(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(["verify-fixture", *argv])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: verify-fixture needs a fixture name or --all, not both\n")


def test_props_with_operator_file(capsys):
    code, out, _ = run(
        capsys, "props",
        "--algebra", str(DATA / "fixtures" / "F10.algebra.json"),
        "--operator", str(DATA / "fixtures" / "F10.operator.json"),
        "--property", "rota_baxter:lam=1",
    )
    assert code == 0
    assert "rota_baxter(1): PASS" in out


def test_props_from_u(capsys):
    code, out, _ = run(
        capsys, "props",
        "--algebra", str(DATA / "fixtures" / "F1b.algebra.json"),
        "--from-u", str(DATA / "fixtures" / "F1b.u.json"),
        "--embedding", str(DATA / "fixtures" / "F1b.embedding.json"),
        "--property", "endomorphism",
        "--property", "idempotent_op",
    )
    assert code == 0
    assert "endomorphism: PASS" in out
    assert "idempotent_op: PASS" in out


def test_props_failing_property(capsys):
    code, out, _ = run(
        capsys, "props",
        "--algebra", str(DATA / "fixtures" / "F2.algebra.json"),
        "--operator", str(DATA / "fixtures" / "F2.operator.json"),
        "--property", "idempotent_op",
    )
    assert code == 1
    assert "idempotent_op: FAIL" in out


def test_derive_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "lie.json"
    code, out, _ = run(
        capsys, "derive",
        "--algebra", str(DATA / "fixtures" / "F1b.algebra.json"),
        "--operator", str(DATA / "fixtures" / "F1b.operator.json"),
        "--construction", "lie_endo",
        "--out", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    code, out, _ = run(
        capsys, "check", "--algebra", str(out_path), "--identity", "jacobi"
    )
    assert code == 0


def test_derive_with_param(tmp_path, capsys):
    out_path = tmp_path / "nov.json"
    code, _, _ = run(
        capsys, "derive",
        "--algebra", str(DATA / "fixtures" / "F7.algebra.json"),
        "--operator", str(DATA / "fixtures" / "F7.operator.json"),
        "--construction", "novikov_affine",
        "--param", "a=1/2",
        "--out", str(out_path),
    )
    assert code == 0


def test_search_element_grid(capsys):
    code, out, _ = run(
        capsys, "search-element",
        "--ambient", str(DATA / "fixtures" / "F9.ambient.json"),
        "--embedding", str(DATA / "fixtures" / "F9.embedding.json"),
        "--lin", "stabilize",
        "--quad", "nilpotent2",
        "--grid", str(DATA / "examples" / "grid_f9.json"),
    )
    assert code == 0
    assert "(1, -1, 1, -1)" in out


def test_search_element_univariate(capsys):
    code, out, _ = run(
        capsys, "search-element",
        "--ambient", str(DATA / "fixtures" / "F9.ambient.json"),
        "--embedding", str(DATA / "fixtures" / "F9.embedding.json"),
        "--lin", "stabilize",
        "--quad", "idempotent",
        "--strategy", "univariate",
        "--pin", "1=0", "--pin", "2=0", "--pin", "3=0",
    )
    assert code == 0
    assert "(1, 0, 0, 0)" in out


def test_search_element_quad_params(tmp_path, capsys):
    """--quad-param binds as a label's arguments do: k=v pairs, across repeated
    flags too, or positional.  scaled(0) and rb_weighted(0,0) are nilpotent2;
    bad bindings are cases of test_bad_spec_value_exits_2."""
    grid = ("--grid", str(DATA / "examples" / "grid_f9.json"))
    unit = tmp_path / "unit.json"
    unit.write_text('{"dim": 4, "coords": ["1", "0", "0", "1"]}', encoding="utf-8")
    code, want, _ = run(capsys, *_SEARCH_F9, "--quad", "nilpotent2", *grid)
    assert code == 0 and "found 3 element(s)" in want
    for quad in (
        ("scaled", "--quad-param", "gamma=0"),
        ("scaled", "--quad-param", "0"),
        ("rb_weighted", "--quad-param", "lam=0", "--quad-param", "beta=0", "--unit", str(unit)),
        ("rb_weighted", "--quad-param", "beta=0,lam=0", "--unit", str(unit)),
    ):
        code, out, _ = run(capsys, *_SEARCH_F9, "--quad", *quad, *grid)
        assert code == 0
        assert out.splitlines()[1:] == want.splitlines()[1:]


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "check", "--algebra", str(bad), "--identity", "jacobi")
    assert code == 2
    assert "error:" in err


def _out_of_memory(*args, **kwargs):
    raise MemoryError


_F1B = DATA / "fixtures" / "F1b"
_F10 = DATA / "fixtures" / "F10"


@pytest.mark.parametrize("target, argv", [
    ("nonassoc.serial.make_algebra",
     ("check", "--algebra", str(DATA / "examples" / "null2.json"), "--identity", "jacobi")),
    ("nonassoc.serial.make_operator",
     ("props", "--algebra", f"{_F10}.algebra.json", "--operator", f"{_F10}.operator.json",
      "--property", "rota_baxter:lam=1")),
    ("nonassoc.serial.Embedding.build",
     ("props", "--algebra", f"{_F1B}.algebra.json", "--from-u", f"{_F1B}.u.json",
      "--embedding", f"{_F1B}.embedding.json", "--property", "endomorphism")),
])
def test_memory_error_while_loading_exits_2(capsys, monkeypatch, target, argv):
    monkeypatch.setattr(target, _out_of_memory)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_memory_error_during_check_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("nonassoc.cli.check_identity", _out_of_memory)
    code, out, err = run(
        capsys, "check",
        "--algebra", str(DATA / "examples" / "f3plus.json"),
        "--identity", "associativity",
    )
    assert code == 2
    assert err == "error: out of memory\n"
    assert "FAIL" not in out


def test_module_entry_point_exit_codes(tmp_path):
    """``python -m nonassoc`` on shipped files: the process exit status itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(DATA.parent.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "nonassoc", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )

    passed = run_module("check", "--algebra", str(DATA / "examples" / "null2.json"),
                        "--identity", "jacobi")
    assert passed.returncode == 0 and "result: PASS" in passed.stdout
    refuted = run_module("check", "--algebra", str(DATA / "examples" / "f3plus.json"),
                         "--identity", "associativity")
    assert refuted.returncode == 1 and "witness indices" in refuted.stdout
    assert "Traceback" not in refuted.stderr
    missing = run_module("check", "--algebra", str(tmp_path / "missing.json"),
                         "--identity", "jacobi")
    assert missing.returncode == 2 and missing.stderr.startswith("error:")
    assert "Traceback" not in missing.stderr


def test_importing_the_cli_loads_no_openssl():
    """``hashlib`` loads OpenSSL (about 5 ms and 3.6 MiB); only the content
    hashes import it, when first called."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(DATA.parent.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = ("import sys, nonassoc.cli; "
             "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules)); "
             "from nonassoc.algebra import make_algebra; "
             "from nonassoc.serial import algebra_content_hash; "
             "algebra_content_hash(make_algebra(1, [])); print('hashlib' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "True"]


@pytest.mark.parametrize("random_trials", [False, True], ids=["exact", "random"])
def test_null_dim_200_passes_every_identity_in_bounded_memory(tmp_path, random_trials):
    """A 200-dimensional null algebra: each catalog identity exits 0 with PASS,
    in a child process whose address space is capped at 512 MiB."""
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20
    (tmp_path / "null200.json").write_text('{"dim": 200, "sc": []}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(DATA.parent.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    extra = ("--random", "trials=100,seed=7") if random_trials else ()
    for name in IDENTITY_NAMES:
        done = subprocess.run(
            [sys.executable, "-m", "nonassoc", "check", "--algebra", "null200.json",
             "--identity", name, *extra],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 0, (name, done.stderr)
        assert "result: PASS" in done.stdout


def test_matrix_algebra_dim_100_checks_jordan_in_bounded_memory(tmp_path):
    """M10 (dim 100, a file of about 20 kB), whose automorphism group S_10 has
    3,628,800 elements: ``jordan_main`` exits 0 with PASS in a child process
    whose address space is capped at 512 MiB."""
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20
    (tmp_path / "m10.json").write_text(json.dumps(algebra_to_dict(matrix_algebra(10))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(DATA.parent.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "nonassoc", "check", "--algebra", "m10.json",
         "--identity", "jordan_main"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0, done.stderr
    assert "result: PASS" in done.stdout


def test_unknown_identity_exits_2(capsys):
    code, _, err = run(
        capsys, "check",
        "--algebra", str(DATA / "examples" / "null2.json"),
        "--identity", "nonexistent",
    )
    assert code == 2


_SEARCH_F9 = (
    "search-element",
    "--ambient", str(DATA / "fixtures" / "F9.ambient.json"),
    "--embedding", str(DATA / "fixtures" / "F9.embedding.json"),
    "--lin", "stabilize",
)


@pytest.mark.parametrize("argv", [
    ("check", "--algebra", str(DATA / "examples" / "null2.json"),
     "--identity", "jacobi", "--random", "trials=abc"),
    ("props", "--algebra", str(DATA / "fixtures" / "F10.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F10.operator.json"),
     "--property", "rota_baxter:lam=x"),
    ("props", "--algebra", str(DATA / "fixtures" / "F10.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F10.operator.json"),
     "--property", "rota_baxter:bogus=1"),
    _SEARCH_F9 + ("--quad", "idempotent", "--strategy", "univariate", "--pin", "a=0"),
    _SEARCH_F9 + ("--quad", "idempotent", "--strategy", "univariate", "--pin", "1=x"),
    _SEARCH_F9 + ("--quad", "idempotent", "--quad-param", "bogus=2",
                  "--grid", str(DATA / "examples" / "grid_f9.json")),
    ("derive", "--algebra", str(DATA / "fixtures" / "F7.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F7.operator.json"),
     "--construction", "novikov_affine", "--param", "a=abc", "--out", "unwritten.json"),
    ("derive", "--algebra", str(DATA / "fixtures" / "F7.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F7.operator.json"),
     "--construction", "novikov_affine", "--param", "b=1", "--out", "unwritten.json"),
    ("derive", "--algebra", str(DATA / "fixtures" / "F7.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F7.operator.json"),
     "--construction", "novikov_affine", "--out", "unwritten.json"),
    *(_SEARCH_F9 + ("--quad", *quad, "--grid", str(DATA / "examples" / "grid_f9.json"))
      for quad in [("scaled",),
                   ("scaled", "--quad-param", "gamma=0", "--quad-param", "gamma=1"),
                   ("scaled", "--quad-param", "gamma=0,0"),
                   ("scaled", "--quad-param", "gamma=x"),
                   ("rb_weighted", "--quad-param", "lam=0,beta=0"),
                   ("idempotent", "--quad-param", "1")]),
    # an exponent is refused at once, before Fraction would expand it
    ("props", "--algebra", str(DATA / "fixtures" / "F10.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F10.operator.json"),
     "--property", "rota_baxter:lam=1e99999999"),
    _SEARCH_F9 + ("--quad", "scaled", "--quad-param", "gamma=1e99999999",
                  "--grid", str(DATA / "examples" / "grid_f9.json")),
    _SEARCH_F9 + ("--quad", "idempotent", "--strategy", "univariate", "--pin", "1=1e99999999"),
    # a key given twice, within one flag or across two
    ("check", "--algebra", str(DATA / "examples" / "null2.json"),
     "--identity", "jacobi", "--random", "trials=5,trials=7"),
    _SEARCH_F9 + ("--quad", "idempotent", "--strategy", "univariate", "--pin", "1=0,1=5",
                  "--pin", "2=0", "--pin", "3=0"),
    _SEARCH_F9 + ("--quad", "idempotent", "--strategy", "univariate", "--pin", "0=1",
                  "--pin", "1=0", "--pin", "2=0", "--pin", "3=0", "--pin", "0=2"),
    ("derive", "--algebra", str(DATA / "fixtures" / "F7.algebra.json"),
     "--operator", str(DATA / "fixtures" / "F7.operator.json"),
     "--construction", "novikov_affine", "--param", "a=1e99999999", "--out", "unwritten.json"),
])
def test_bad_spec_value_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    '{"dim": 2, "sc": 5}',
    '{"dim": 2, "sc": [["x", 0, 0, "1"]]}',
    '{"dim":1,"sc":[[0,0,0,"1e99999999"]]}',
], ids=["sc_not_a_list", "sc_bad_index", "sc_exponent"])
def test_malformed_structure_constants_exit_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    code, _, err = run(capsys, "check", "--algebra", str(bad), "--identity", "jacobi")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


_NULL2 = str(DATA / "examples" / "null2.json")
_PROPS_F9_FROM_U = (
    "props", "--algebra", str(DATA / "fixtures" / "F9.algebra.json"),
    "--property", "rota_baxter:lam=1",
    "--embedding", str(DATA / "fixtures" / "F9.embedding.json"), "--from-u",
)


@pytest.mark.parametrize("argv, name, content", [
    (("check", "--identity", "associativity", "--algebra"), "a.json",
     '{"dim": 2, "sc": [[1.5, 0, 0, "1"]]}'),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     '{"dim": 2.0, "sc": []}'),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     '{"dim": 2, "sc": [[0, true, 0, "1"]]}'),
    (("props", "--algebra", _NULL2, "--property", "rota_baxter:lam=1", "--operator"),
     "r.json", '{"dim": 2.9, "matrix": [["1", "0"], ["0", "1"]]}'),
    (("props", "--algebra", _NULL2, "--property", "rota_baxter:lam=1", "--operator"),
     "r.json", '{"dim": 2, "matrix": 5}'),
    (_SEARCH_F9[:3] + ("--lin", "stabilize", "--quad", "idempotent", "--embedding"),
     "emb.json", '{"ambient": "%s", "basis": 5}' % (DATA / "fixtures" / "F9.ambient.json")),
    (_PROPS_F9_FROM_U, "u.json", '{"dim": 4, "coords": 5}'),
    (_PROPS_F9_FROM_U, "u.json", '{"dim": 4.5, "coords": ["1", "-1", "1", "-1"]}'),
    (_SEARCH_F9 + ("--quad", "idempotent", "--grid"), "grid.json", '{"points": 5}'),
    (_SEARCH_F9 + ("--quad", "idempotent", "--grid"), "grid.json", '{"points": ["12", "34"]}'),
    (_SEARCH_F9 + ("--quad", "idempotent", "--grid"), "grid.json", '{"points": "12"}'),
    (_PROPS_F9_FROM_U, "u.json", '{"coords": "1111"}'),
    (("props", "--algebra", _NULL2, "--property", "rota_baxter:lam=1", "--operator"),
     "r.json", '{"dim": 2, "matrix": ["10", "01"]}'),
    (_SEARCH_F9[:3] + ("--lin", "stabilize", "--quad", "idempotent", "--embedding"),
     "emb.json", '{"ambient": "%s", "basis": ["1000"]}' % (DATA / "fixtures" / "F9.ambient.json")),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     '{"dim": 2, "labels": "ab", "sc": []}'),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     '{"dim": 2, "labels": [1, 2], "sc": []}'),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     b'{"dim": 2, "labels": ["\xff", "b"], "sc": []}'),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     "[" * 100_000 + "]" * 100_000),
    (("check", "--identity", "jacobi", "--algebra"), "a.json",
     '{"dim": %s, "sc": []}' % ("1" * 5000)),
], ids=["float_index", "float_dim", "bool_index", "operator_float_dim",
        "operator_matrix_not_a_list", "embedding_basis_not_a_list",
        "element_coords_not_a_list", "element_float_dim", "grid_points_not_a_list",
        "grid_points_strings", "grid_points_a_string", "element_coords_a_string",
        "operator_columns_strings", "embedding_basis_strings",
        "labels_a_string", "labels_not_strings", "not_utf8", "nested_100000_deep",
        "int_over_4300_digits"])
def test_malformed_file_field_exits_2(tmp_path, capsys, argv, name, content):
    bad = tmp_path / name
    bad.write_bytes(content if type(content) is bytes else content.encode("utf-8"))
    code, _, err = run(capsys, *argv, str(bad))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_derive_unwritable_out_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "derive",
        "--algebra", str(DATA / "fixtures" / "F1b.algebra.json"),
        "--operator", str(DATA / "fixtures" / "F1b.operator.json"),
        "--construction", "lie_endo",
        "--out", str(tmp_path / "missing" / "dir" / "x.json"),
    )
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


# sha256 of the reports as the 0.1.0 code printed them: a change in any
# verdict, witness value, coordinate type or order changes the digest.
_EVERY_PROPERTY = (
    "endomorphism", "idempotent_op", "involution_op", "scaled_idempotent_op:alpha=3/2",
    "scaled_involution_op:alpha=-1", "derivation", "left_averaging", "rota_baxter:lam=1/2",
    "rota_baxter_weighted:lam=1,beta=-2/3",
)


def test_props_json_golden(capsys, monkeypatch):
    monkeypatch.chdir(DATA)  # the report echoes the algebra path
    argv = ["props", "--algebra", "fixtures/F2.algebra.json",
            "--operator", "fixtures/F2.operator.json", "--json"]
    for spec in _EVERY_PROPERTY:
        argv += ["--property", spec]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "28b6172a7b06fc48433d8b24e5ef726892d9d8f3dab5feea9acec04599208cbc"
    )


def test_verify_fixture_all_json_golden(capsys):
    code, out, _ = run(capsys, "verify-fixture", "--all", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "35c388e77c6ed69ee2c7a3c8f28f18f1ee7b952e23e3952bcdd306e7ea16ccb4"
    )


_F9 = ("--ambient", "fixtures/F9.ambient.json",
       "--embedding", "fixtures/F9.embedding.json", "--lin", "stabilize")


@pytest.mark.parametrize("argv, digest, want", [
    (("check", "--algebra", "examples/f3plus.json", "--identity", "associativity"),
     "30bde2bf03d670b014f2a835db5e63d07dd83517b08084a9b600e8881791227d", 1),
    (("check", "--algebra", "examples/f3plus.json", "--identity", "associativity",
      "--json", "--random", "trials=50,seed=3"),
     "a2a7989045995cc560d00dbe5c8e299ec48d299fc6bab9cd97eb492cce12f4f5", 1),
    (("props", "--algebra", "fixtures/F2.algebra.json",
      "--operator", "fixtures/F2.operator.json",
      "--property", "endomorphism", "--property", "idempotent_op"),
     "c7626e57ca99d9d63adbd8cdb5a43e0b3e63f38e252a45a7a77397ccc755e37b", 1),
    (("props", "--algebra", "fixtures/F1b.algebra.json", "--from-u", "fixtures/F1b.u.json",
      "--embedding", "fixtures/F1b.embedding.json", "--property", "endomorphism",
      "--property", "idempotent_op"),
     "72b190606af3ac4047e2dd84f9295c2d91292bc8ca493763e7eaddfd245a6288", 0),
    (("search-element", *_F9, "--quad", "nilpotent2", "--grid", "examples/grid_f9.json"),
     "1b4b0f2a2bb23865a688f5c093985537fe9c1e0b85f0dc333f8fe84afd8c5c11", 0),
    (("search-element", *_F9, "--quad", "nilpotent2", "--grid", "examples/grid_f9.json",
      "--json"),
     "b0d3e784ea7aa8d03ddce670d2571299285196368d8f5bb4e6a2cd32252baf78", 0),
    (("search-element", *_F9, "--quad", "idempotent", "--strategy", "univariate",
      "--pin", "1=0", "--pin", "2=0", "--pin", "3=0"),
     "d9a9a20c2565d4447cbfbd3245b434630350d1cab1538f090c68e1a46cd3cc15", 0),
    (("verify-fixture", "F4"),
     "6afd18798fc1ecbbe0e2f00334f87fe69b5596f10b2c5896f11420a135a8b398", 0),
    (("verify-fixture", "F4", "--json"),
     "3bff29ef49b368cacc027688195beeb9ab80baab91709b0fe9d75e13e1aea89a", 0),
    (("list-fixtures",),
     "a3de85d0175c92a8c5595cdfc94ac92243f91feacd170df755772bfe9090cbdb", 0),
    (("list-fixtures", "--json"),
     "adad03a6fdef0069648e03b79d5424f6d1607fdfe9f3a1e8a3e615a07ebb438f", 0),
])
def test_report_golden(capsys, monkeypatch, argv, digest, want):
    """sha256 of each command's stdout, with its exit code, pinned so that a
    change to how reports are built cannot change a byte of them."""
    monkeypatch.chdir(DATA)  # reports echo the input paths
    code, out, _ = run(capsys, *argv)
    assert code == want
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_EVERY_CONSTRUCTION = (
    "commutator", "lie_endo", "lie_endo_alt", "jordan_plus", "jordan_endo_left",
    "jordan_endo_right", "jordan_endo_both", "leibniz_comm", "leibniz_endo", "prelie_endo",
    "prelie_endo_alt", "prelie_diff", "novikov_affine", "prelie_rb1", "flexible_avg",
)


def test_derive_json_golden(capsys, tmp_path):
    """sha256 of the derived algebras and their provenance, as the per-construction
    product functions computed them; ``out`` is a tmp path, so it stays out."""
    digest = hashlib.sha256()
    for name in _EVERY_CONSTRUCTION:
        argv = ["derive", "--algebra", str(DATA / "fixtures" / "F2.algebra.json"),
                "--operator", str(DATA / "fixtures" / "F2.operator.json"),
                "--construction", name, "--out", str(tmp_path / f"{name}.json"), "--json"]
        if name == "novikov_affine":
            argv += ["--param", "a=1/2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        digest.update(json.dumps([obj["result"], obj["provenance"]]).encode())
    assert digest.hexdigest() == (
        "c9e52ef354962fa76ab5462b3edaf6b9971d98bed237215513ec2879639233bf"
    )


def test_derive_text_golden(capsys, tmp_path):
    """sha256 of the text reports of ``derive``, provenance line included,
    with the data directory and the tmp ``out`` path written as names."""
    digest = hashlib.sha256()
    for name in _EVERY_CONSTRUCTION:
        out_path = str(tmp_path / f"{name}.json")
        argv = ["derive", "--algebra", str(DATA / "fixtures" / "F2.algebra.json"),
                "--operator", str(DATA / "fixtures" / "F2.operator.json"),
                "--construction", name, "--out", out_path]
        if name == "novikov_affine":
            argv += ["--param", "a=1/2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digest.update(out.replace(out_path, "OUT").replace(str(DATA), "DATA").encode())
    assert digest.hexdigest() == (
        "ab34e72cb51ffa3e1b46a7b7afb248daeff960126634e03a7d663d21abd475cf"
    )

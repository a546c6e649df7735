"""The exit-code contract of ``cli.main`` under mutated input files and arguments.

Exit 0 is a pass, 1 a refutation and 2 an error.  A caller reads exit 1 as
"refuted", so it must come with the refutation on stdout: a ``FAIL`` line
followed by its witness, a ``MISMATCH`` row or ``found 0 element(s)`` (or
their ``--json`` forms).  Exit 2 must come with an ``error:`` line, and no
input may end in a traceback.  Every generated algebra has dimension at
most 4.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonassoc.cli import main
from nonassoc.constructions import CATALOG
from nonassoc.identities import IDENTITY_NAMES
from nonassoc.search import LINEAR_KINDS, QUAD_KINDS

DATA = Path(__file__).parent.parent / "src" / "nonassoc" / "data"

# Leaf values that no reader accepts where a dimension, index or scalar belongs.
_HOSTILE = st.sampled_from([1.5, 2.0, True, None, "x", "1/0", "", [], {}, [1], "1" * 40,
                            "1e99999999"])


def _mostly(good):
    """``good``, and one draw in eight a hostile leaf."""
    return st.integers(0, 7).flatmap(lambda k: _HOSTILE if k == 0 else good)


_DIM = _mostly(st.integers(-1, 4))
_INDEX = _mostly(st.integers(-1, 4))
# A product of two 2,200-digit scalars is past Python's 4,300-digit limit for printing.
_SCALAR = _mostly(st.one_of(st.integers(-3, 3),
                            st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "3", "9" * 2200])))
_VECTOR = _mostly(st.lists(_SCALAR, max_size=5))
_ALGEBRA = st.fixed_dictionaries(
    {"dim": _DIM,
     "sc": _mostly(st.lists(_mostly(st.lists(_INDEX, min_size=3, max_size=3).flatmap(
         lambda ijk: _SCALAR.map(lambda v: ijk + [v]))), max_size=8))},
    optional={"labels": _mostly(st.lists(st.text(max_size=2), max_size=5))},
)
_OPERATOR = st.fixed_dictionaries({"dim": _DIM, "matrix": _mostly(st.lists(_VECTOR, max_size=5))})
_ELEMENT = st.fixed_dictionaries({"coords": _VECTOR}, optional={"dim": _DIM})
_EMBEDDING = st.fixed_dictionaries({
    "ambient": st.one_of(st.just("ambient.json"), _ALGEBRA, _HOSTILE),
    "basis": _mostly(st.lists(_VECTOR, max_size=4)),
})
_GRID = st.fixed_dictionaries({"points": _mostly(st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(_SCALAR, min_size=k, max_size=k), max_size=4)))})


def _document(objects):
    """A file's text: the JSON of an object, a cut-off prefix of it, or another value."""
    text = objects.map(json.dumps)
    return st.one_of(
        text,
        text.flatmap(lambda t: st.integers(0, len(t)).map(lambda k: t[:k])),
        st.sampled_from(["", "[]", "5", '"x"', "null", "{}", "{\"dim\": 2}"]),
    )


# Paths in a generated command line start with TMP, the directory of its files.
TMP = "{tmp}"
_FIXTURES = ("F1b", "F2", "F9", "F10")
# A missing file, a directory, a name too long and a NUL byte (an in-process
# argv may hold one).
_UNREADABLE = (f"{TMP}/missing/x.json", TMP, f"{TMP}/{'n' * 300}.json", f"{TMP}/nul\x00.json")
# File kind -> (its objects, its shipped data file for a fixture)
_KINDS = {
    "algebra": (_ALGEBRA, "fixtures/{}.algebra.json"),
    "ambient": (_ALGEBRA, "fixtures/{}.ambient.json"),
    "operator": (_OPERATOR, "fixtures/{}.operator.json"),
    "embedding": (_EMBEDDING, "fixtures/{}.embedding.json"),
    "u": (_ELEMENT, "fixtures/{}.u.json"),
    "grid": (_GRID, "examples/grid_f9.json"),
}

_PROPERTIES = ("endomorphism", "idempotent_op", "involution_op", "derivation",
               "left_averaging", "rota_baxter:lam=1", "rota_baxter:0", "rota_baxter:lam=x",
               "rota_baxter_weighted:lam=1,beta=2", "scaled_idempotent_op:alpha=3/2",
               "scaled_involution_op", "bogus", ":", "rota_baxter:lam=1,lam=2")
_SPECS = ("", "a=1/2", "a=x", "1", "b=1", "a=1,a=2", "gamma=2", "lam=1,beta=0", "0,0", "=")


def _opt(*tokens):
    """The tokens, or nothing."""
    return st.sampled_from([list(tokens), []])


@st.composite
def _invocation(draw):
    """(argv, files): files maps a file name under TMP to its text."""
    files = {}
    fixture = draw(st.sampled_from(_FIXTURES))

    def path(kind):
        """Mostly the fixture's shipped file, else a generated file, or a path
        that cannot be read."""
        objects, shipped = _KINDS[kind]
        source = draw(st.sampled_from(["shipped"] * 8 + ["generated"] * 3 + ["unreadable"]))
        if source == "shipped":
            return str(DATA / shipped.format(fixture))
        if source == "unreadable":
            return draw(st.sampled_from(_UNREADABLE))
        files[f"{kind}.json"] = draw(_document(objects))
        return f"{TMP}/{kind}.json"

    command = draw(st.sampled_from(["check", "props", "derive", "search-element",
                                    "verify-fixture"]))
    if command == "check":
        argv = ["check", "--algebra", path("algebra"),
                "--identity", draw(st.sampled_from(IDENTITY_NAMES + ("bogus",)))]
        argv += draw(_opt("--random", draw(st.sampled_from(
            ["trials=5,seed=1", "trials=3", "seed=2", "trials=x", "bogus=1", "trials=-1",
             "", "trials"]))))
    elif command == "props":
        argv = ["props", "--algebra", path("algebra")]
        source = draw(st.sampled_from(["operator", "u", "operator", "u", "both", "neither"]))
        if source in ("operator", "both"):
            argv += ["--operator", path("operator")]
        if source in ("u", "both"):
            argv += ["--from-u", path("u")] + draw(_opt("--embedding", path("embedding")))
        for spec in draw(st.lists(st.sampled_from(_PROPERTIES), min_size=1, max_size=3)):
            argv += ["--property", spec]
    elif command == "derive":
        argv = ["derive", "--algebra", path("algebra"),
                "--construction", draw(st.sampled_from(sorted(CATALOG) + ["bogus"])),
                "--out", draw(st.sampled_from([f"{TMP}/out.json"] * 3 + list(_UNREADABLE)))]
        argv += draw(_opt("--operator", path("operator")))
        argv += draw(_opt("--param", draw(st.sampled_from(_SPECS))))
    elif command == "search-element":
        lin = draw(st.lists(st.sampled_from(LINEAR_KINDS + ("bogus", "")), min_size=1,
                            max_size=2))
        quad = draw(st.sampled_from(sorted(QUAD_KINDS)))
        argv = ["search-element", "--ambient", path("ambient"),
                "--embedding", path("embedding"), "--lin", ",".join(lin), "--quad", quad]
        names = QUAD_KINDS[quad].params
        if names or draw(st.integers(0, 7)) == 0:
            fit = ",".join(f"{n}={draw(st.sampled_from(['0', '1', '-1', '1/2']))}" for n in names)
            argv += ["--quad-param", draw(st.sampled_from([fit] * 3 + list(_SPECS)))]
        if QUAD_KINDS[quad].unit or draw(st.integers(0, 7)) == 0:
            argv += ["--unit", path("u")]
        if draw(st.booleans()):
            argv += ["--strategy", "univariate"]
            for spec in draw(st.lists(st.sampled_from(["0=1", "1=0", "2=1/2", "3=0", "-1=0",
                                                       "9=0", "a=0", "1=x"]), max_size=3)):
                argv += ["--pin", spec]
        else:
            argv += ["--grid", path("grid")]
    else:
        argv = ["verify-fixture", draw(st.sampled_from(["F9", "F10", "F99", ""]))]
    argv += draw(_opt("--json"))
    if draw(st.integers(0, 3)) == 0:  # drop one token, or put a stray one in
        k = draw(st.integers(0, len(argv) - 1))
        argv = argv[:k] + draw(st.sampled_from([[], ["--bogus"], [f"{TMP}/x"]])) + argv[k + 1:]
    return argv, files


def _refutes(out: str) -> bool:
    """Whether stdout carries a refutation: a witnessed FAIL, a MISMATCH, or none found."""
    if out.startswith("{"):
        obj = json.loads(out)
        failed = [e for e in obj.get("checks", []) + obj.get("properties", []) if not e["passed"]]
        return (any(e["witness"] for e in failed) or obj.get("found") == []
                or any(not r["matched"] for r in obj.get("rows", [])))
    lines = out.splitlines()
    return (any(line.endswith(": FAIL") and nxt.startswith("  witness indices: ")
                for line, nxt in zip(lines, lines[1:]))
            or any(line.endswith(" MISMATCH") for line in lines)
            or "found 0 element(s)" in lines)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(_invocation())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_code_contract(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        code, out, err = _run([token.replace(TMP, tmp) for token in argv])
    assert code in (0, 1, 2), (code, out, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert any("error:" in line for line in err.splitlines()), err
    if code == 1:
        assert _refutes(out), out


@pytest.mark.parametrize("bad", _UNREADABLE)
def test_unusable_path_exits_2(tmp_path, bad):
    bad = bad.replace(TMP, str(tmp_path))
    f9 = str(DATA / "fixtures" / "F9.algebra.json")
    for paths in (["--algebra", bad, "--out", str(tmp_path / "out.json")],
                  ["--algebra", f9, "--out", bad]):
        code, _, err = _run(["derive", "--construction", "jordan_plus", *paths])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_witness_past_the_digit_limit_prints_exactly(tmp_path):
    """(e0 e0) e0 = c^2 e0 but e0 (e0 e0) = 0: refuted, with a witness value of
    8,000 digits, past what Python's str() prints; it is printed in full."""
    c = "9" * 4000
    c_squared = "9" * 3999 + "8" + "0" * 3999 + "1"  # (10^4000 - 1)^2
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "sc": [[0, 0, 1, c], [1, 0, 0, c]]}), encoding="utf-8")
    code, out, err = _run(["check", "--algebra", str(path), "--identity", "associativity"])
    assert code == 1 and err == ""
    assert f"  lhs = ({c_squared}, 0)" in out.splitlines()
    code, out, err = _run(["check", "--algebra", str(path), "--identity", "associativity",
                           "--json"])
    assert code == 1 and err == ""
    witness = json.loads(out)["checks"][0]["witness"]
    assert (witness["lhs"], witness["rhs"]) == ([c_squared, "0"], ["0", "0"])

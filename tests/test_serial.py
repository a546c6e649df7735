import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from nonassoc.algebra import Element, make_algebra, matrix_algebra
from nonassoc.errors import FileFormatError
from nonassoc.fixtures import load_fixture, materialize
from nonassoc.operators import make_operator
from nonassoc.serial import (
    algebra_content_hash,
    algebra_from_dict,
    algebra_to_dict,
    element_from_dict,
    element_to_dict,
    embedding_from_dict,
    embedding_to_dict,
    grid_from_dict,
    load_algebra,
    load_embedding,
    operator_content_hash,
    operator_from_dict,
    operator_to_dict,
    save_algebra,
)


def test_algebra_roundtrip_exact():
    a = make_algebra(2, [(0, 0, 0, Fraction(-2, 3)), (0, 1, 1, 5)], ["u", "v"])
    d = algebra_to_dict(a)
    assert d["sc"] == [[0, 0, 0, "-2/3"], [0, 1, 1, "5"]]
    b = algebra_from_dict(d)
    assert b == a
    assert b.basis_labels == ("u", "v")


def test_algebra_omitted_triples_are_zero():
    a = algebra_from_dict({"dim": 2, "sc": []})
    assert all(
        a.basis_product(i, j).is_zero() for i in range(2) for j in range(2)
    )


def test_algebra_rejects_malformed():
    with pytest.raises(FileFormatError):
        algebra_from_dict({"dim": 2, "sc": [[0, 0, 0]]})       # missing scalar
    with pytest.raises(FileFormatError):
        algebra_from_dict({"dim": 2, "sc": [[0, 0, 5, "1"]]})  # index range
    with pytest.raises(FileFormatError):
        algebra_from_dict({"dim": 2, "sc": [[0, 0, 0, 1.5]]})  # float scalar
    with pytest.raises(FileFormatError):
        algebra_from_dict({"sc": []})                          # missing dim
    with pytest.raises(FileFormatError, match="dimension must be positive, got -1$"):
        algebra_from_dict({"dim": -1, "labels": ["a"], "sc": []})  # dim before labels


def test_grid_rejects_strings_where_arrays_belong():
    """A string is never read character by character as a list of points or values."""
    with pytest.raises(FileFormatError, match="a grid point must be an array"):
        grid_from_dict({"points": ["12", "34"]})
    with pytest.raises(FileFormatError, match="points must be an array"):
        grid_from_dict({"points": "12"})
    assert grid_from_dict({"points": [["1", "2"], [3, "4/2"]]}) == [(1, 2), (3, 2)]


def test_element_rejects_string_coords():
    with pytest.raises(FileFormatError, match="coords must be an array"):
        element_from_dict({"coords": "123"})
    with pytest.raises(FileFormatError, match="coords must be an array"):
        element_from_dict({"dim": 3, "coords": "123"})


def test_operator_rejects_string_matrix_and_columns():
    a = make_algebra(2, [])
    with pytest.raises(FileFormatError, match="matrix must be an array"):
        operator_from_dict({"dim": 2, "matrix": "12"}, a)
    with pytest.raises(FileFormatError, match="an operator column must be an array"):
        operator_from_dict({"dim": 2, "matrix": ["10", "01"]}, a)


def test_embedding_rejects_string_basis_and_rows():
    ambient = algebra_to_dict(make_algebra(2, []))
    with pytest.raises(FileFormatError, match="basis must be an array"):
        embedding_from_dict({"ambient": ambient, "basis": "10"})
    with pytest.raises(FileFormatError, match="a basis element must be an array"):
        embedding_from_dict({"ambient": ambient, "basis": ["10"]})


def test_operator_roundtrip_column_major():
    a = matrix_algebra(2)
    r = make_operator(a, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, Fraction(1, 2), 0], [0, 0, 0, 1]])
    d = operator_to_dict(r)
    # column-major: entry [j] is the image of basis vector e_j
    assert d["matrix"][2] == ["0", "0", "1/2", "0"]
    assert operator_from_dict(d, a) == r


def test_operator_dimension_guard():
    a = matrix_algebra(2)
    with pytest.raises(FileFormatError):
        operator_from_dict({"dim": 2, "matrix": [["1", "0"], ["0", "1"]]}, a)


def test_element_roundtrip():
    e = Element((1, Fraction(-7, 2)))
    d = element_to_dict(e)
    assert d == {"dim": 2, "coords": ["1", "-7/2"]}
    assert element_from_dict(d) == e
    with pytest.raises(FileFormatError):
        element_from_dict({"dim": 3, "coords": ["1", "2"]})


def test_embedding_roundtrip_inline(tmp_path):
    m = materialize(load_fixture("F9"))
    d = embedding_to_dict(m.embedding)
    emb = embedding_from_dict(d)
    assert emb.ambient == m.embedding.ambient
    assert emb.basis == m.embedding.basis


def test_embedding_ambient_by_path(tmp_path):
    m = materialize(load_fixture("F9"))
    save_algebra(m.ambient, tmp_path / "ambient.json")
    d = {**embedding_to_dict(m.embedding), "ambient": "ambient.json"}
    (tmp_path / "emb.json").write_text(json.dumps(d), encoding="utf-8")
    emb = load_embedding(tmp_path / "emb.json")
    assert emb.ambient == m.ambient
    assert emb.basis == m.embedding.basis


def test_file_errors(tmp_path):
    with pytest.raises(FileFormatError):
        load_algebra(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_algebra(bad)


def test_content_hash_stability_and_sensitivity():
    a = make_algebra(2, [(0, 0, 0, 1)])
    b = make_algebra(2, [(0, 0, 0, 1)], ["x", "y"])   # labels do not matter
    c = make_algebra(2, [(0, 0, 0, 2)])
    assert algebra_content_hash(a) == algebra_content_hash(b)
    assert algebra_content_hash(a) != algebra_content_hash(c)

    m = matrix_algebra(2)
    r1 = make_operator(m, [[1, 0, 0, 0]] + [[0] * 4] * 3)
    r2 = make_operator(m, [[0, 1, 0, 0]] + [[0] * 4] * 3)
    assert operator_content_hash(r1) != operator_content_hash(r2)


def test_shipped_fixture_data_matches_catalog():
    """The packaged JSON files are exactly what the in-code catalog produces."""
    data_dir = Path(__file__).parent.parent / "src" / "nonassoc" / "data" / "fixtures"
    from nonassoc.fixtures import list_fixtures

    for name in list_fixtures():
        bundle = load_fixture(name)
        m = materialize(bundle)
        shipped_algebra = load_algebra(data_dir / f"{name}.algebra.json")
        assert shipped_algebra == m.algebras["A"]
        with open(data_dir / f"{name}.operator.json", encoding="utf-8") as f:
            assert operator_from_dict(json.load(f), m.algebras["A"]) == m.operator


def test_shipped_data_matches_export():
    """Every JSON file under the package data is what the export script
    builds from the catalog: no file differs, none is missing, none is extra."""
    script = Path(__file__).parent.parent / "scripts" / "export_fixture_data.py"
    spec = importlib.util.spec_from_file_location("export_fixture_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    expected = module.build()
    shipped = {
        path.relative_to(module.DATA).as_posix(): json.loads(path.read_text(encoding="utf-8"))
        for path in module.DATA.rglob("*.json")
    }
    assert sorted(shipped) == sorted(expected)
    for rel, obj in expected.items():
        assert shipped[rel] == obj, rel

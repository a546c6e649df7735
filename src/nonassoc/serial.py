"""JSON file formats and content hashing.

All scalars are serialized as canonical strings: ``"p"`` for integers and
``"p/q"`` in lowest terms with positive q otherwise.  Decimals never appear.

Formats (all UTF-8 JSON):

- algebra:   {"dim": n, "labels": ["e1", ...], "sc": [[i, j, k, "p/q"], ...]}
             indices 0-based; omitted (i, j, k) triples are zero; labels,
             when given, are exactly n strings.
- operator:  {"dim": n, "matrix": [["p/q", ...], ...]}
             column-major: matrix[j] is the image of basis vector e_j.
- element:   {"dim": n, "coords": ["p/q", ...]}
- embedding: {"ambient": <algebra object or file path>, "basis": [[...], ...]}
- grid:      {"points": [["p/q", ...], ...]}
"""
from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra, Element, Embedding, make_algebra
from .errors import FileFormatError
from .operators import LinearOperator, make_operator
from .scalars import as_scalar, format_scalar


def _scalar_in(v):
    if isinstance(v, bool) or isinstance(v, float):
        raise FileFormatError(f"scalars must be strings or integers, got {v!r}")
    try:
        return as_scalar(v)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(str(exc)) from exc


def _list_in(v, what: str) -> list:
    """``v`` itself, which must be a JSON array: a string would be read by character."""
    if type(v) is not list:
        raise FileFormatError(f"{what} must be an array, got {v!r:.40}")
    return v


def _int_in(v) -> int:
    if type(v) is not int:
        raise FileFormatError(f"dimensions and indices must be JSON integers, got {v!r}")
    return v


def algebra_to_dict(a: Algebra) -> dict:
    sc = [[i, j, k, format_scalar(v)] for i, j, k, v in a.entries]
    return {"dim": a.dim, "labels": list(a.basis_labels), "sc": sc}


def algebra_from_dict(d: dict) -> Algebra:
    try:
        dim = _int_in(d["dim"])
        raw = d["sc"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed algebra object: {exc}") from exc
    if dim < 1:
        raise FileFormatError(f"invalid algebra: dimension must be positive, got {dim}")
    labels = d.get("labels", ())
    if "labels" in d and (
        type(labels) is not list
        or len(labels) != dim
        or any(type(label) is not str for label in labels)
    ):
        raise FileFormatError(f"labels must be a list of {dim} strings, got {labels!r}")
    entries = []
    try:
        for item in raw:
            if len(item) != 4:
                raise FileFormatError(
                    f"structure constant entry {item!r} must be [i,j,k,scalar]"
                )
            i, j, k, v = item
            entries.append((_int_in(i), _int_in(j), _int_in(k), _scalar_in(v)))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed structure constants: {exc}") from exc
    try:
        return make_algebra(dim, entries, tuple(labels))
    except MemoryError:
        raise
    except Exception as exc:
        raise FileFormatError(f"invalid algebra: {exc}") from exc


def operator_to_dict(r: LinearOperator) -> dict:
    return {
        "dim": r.dim,
        "matrix": [[format_scalar(v) for v in col.coords] for col in r.columns],
    }


def operator_from_dict(d: dict, algebra: Algebra) -> LinearOperator:
    try:
        dim = _int_in(d["dim"])
        cols = [[_scalar_in(v) for v in _list_in(col, "an operator column")]
                for col in _list_in(d["matrix"], "matrix")]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed operator object: {exc}") from exc
    if dim != algebra.dim:
        raise FileFormatError(
            f"operator dimension {dim} differs from algebra dimension {algebra.dim}"
        )
    try:
        return make_operator(algebra, cols)
    except MemoryError:
        raise
    except Exception as exc:
        raise FileFormatError(f"invalid operator: {exc}") from exc


def element_to_dict(e: Element) -> dict:
    return {"dim": len(e.coords), "coords": [format_scalar(v) for v in e.coords]}


def element_from_dict(d: dict) -> Element:
    try:
        e = Element(tuple(_scalar_in(v) for v in _list_in(d["coords"], "coords")))
        dim = _int_in(d["dim"]) if "dim" in d else len(e.coords)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed element object: {exc}") from exc
    if dim != len(e.coords):
        raise FileFormatError("element dim field disagrees with coordinate count")
    return e


def embedding_to_dict(emb: Embedding) -> dict:
    return {
        "ambient": algebra_to_dict(emb.ambient),
        "basis": [[format_scalar(v) for v in b.coords] for b in emb.basis],
    }


def embedding_from_dict(d: dict, base_dir: Path | None = None) -> Embedding:
    try:
        ambient_spec = d["ambient"]
        basis = [Element(tuple(_scalar_in(v) for v in _list_in(row, "a basis element")))
                 for row in _list_in(d["basis"], "basis")]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed embedding object: {exc}") from exc
    if isinstance(ambient_spec, str):
        path = Path(ambient_spec)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        ambient = load_algebra(path)
    else:
        ambient = algebra_from_dict(ambient_spec)
    try:
        return Embedding.build(ambient, basis)
    except MemoryError:
        raise
    except Exception as exc:
        raise FileFormatError(f"invalid embedding: {exc}") from exc


def grid_from_dict(d: dict) -> list[tuple]:
    try:
        return [tuple(_scalar_in(v) for v in _list_in(p, "a grid point"))
                for p in _list_in(d["points"], "points")]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed grid object: {exc}") from exc


def _load_json(path) -> dict:
    try:
        f = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    with f:
        try:
            return json.load(f)
        except OSError as exc:
            raise FileFormatError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or UTF-8, or an integer literal too long to convert
            raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise FileFormatError(f"{path} nests too deeply: {exc}") from exc


def _dump_json(obj: dict, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, indent=2)
            f.write("\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def load_algebra(path) -> Algebra:
    return algebra_from_dict(_load_json(path))


def save_algebra(a: Algebra, path) -> None:
    _dump_json(algebra_to_dict(a), path)


def load_operator(path, algebra: Algebra) -> LinearOperator:
    return operator_from_dict(_load_json(path), algebra)


def load_element(path) -> Element:
    return element_from_dict(_load_json(path))


def load_embedding(path) -> Embedding:
    p = Path(path)
    return embedding_from_dict(_load_json(p), p.parent)


def load_grid(path) -> list[tuple]:
    return grid_from_dict(_load_json(path))


def algebra_content_hash(a: Algebra) -> str:
    """Stable hash of the mathematical content (dim + structure constants)."""
    import hashlib  # here: it loads OpenSSL, which only the two content hashes need
    payload = json.dumps(
        {"dim": a.dim, "sc": algebra_to_dict(a)["sc"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def operator_content_hash(r: LinearOperator) -> str:
    import hashlib
    payload = json.dumps(operator_to_dict(r), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]

#!/usr/bin/env python3
"""Regenerate the JSON data files shipped inside the package.

Per fixture: an expectations file plus, at the sample point, the check
algebra, the induced operator, the embedding, and u as an element file.
Also writes the small example inputs referenced by the README.

Run from the repository root after changing the fixture catalog:

    python3 scripts/export_fixture_data.py
"""
from __future__ import annotations

import json
from pathlib import Path

from nonassoc import fixtures as fx
from nonassoc.algebra import make_algebra
from nonassoc.constructions import construction, derive
from nonassoc.serial import (
    algebra_to_dict,
    element_to_dict,
    embedding_to_dict,
    operator_to_dict,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "nonassoc" / "data"


def build() -> dict[str, dict]:
    """Every shipped data file, as {path relative to DATA: JSON object}."""
    out: dict[str, dict] = {}
    for name in fx.list_fixtures():
        bundle = fx.load_fixture(name)
        m = fx.materialize(bundle)
        out[f"fixtures/{name}.expectations.json"] = {
            "fixture": name,
            "rows": [
                {"check": r.check, "expect": "pass" if r.expect else "fail"}
                for r in bundle.rows
            ],
        }
        out[f"fixtures/{name}.algebra.json"] = algebra_to_dict(m.algebras["A"])
        out[f"fixtures/{name}.ambient.json"] = algebra_to_dict(m.ambient)
        out[f"fixtures/{name}.operator.json"] = operator_to_dict(m.operator)
        out[f"fixtures/{name}.embedding.json"] = embedding_to_dict(m.embedding)
        out[f"fixtures/{name}.u.json"] = element_to_dict(m.u)

    # Small ready-to-run inputs for the command-line examples.
    out["examples/null2.json"] = algebra_to_dict(make_algebra(2, []))
    m3 = fx.materialize(fx.load_fixture("F3"))
    f3plus = derive(m3.algebras["A"], None, construction("jordan_plus"))
    out["examples/f3plus.json"] = algebra_to_dict(f3plus)
    out["examples/grid_f9.json"] = {
        "points": [["1", "-1", "1", "-1"], ["2", "-4", "1", "-2"], ["0", "0", "0", "0"]]
    }
    return out


def main() -> None:
    for rel, obj in build().items():
        path = DATA / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, indent=2)
            f.write("\n")
        print(f"wrote {path.relative_to(DATA.parent.parent.parent)}")


if __name__ == "__main__":
    main()

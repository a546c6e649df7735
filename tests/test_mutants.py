"""The mutants of ``scripts/mutants.py`` still apply to the tree.

Each mutant's old text must occur exactly once in its file under ``src/``,
so no entry silently stops mutating anything as the code moves on, and its
test selections must name test files that exist and, after ``::``, a test
function defined in that file, so a renamed or deleted test fails here.
No mutant is run here: ``python3 scripts/mutants.py`` runs them.
"""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_each_mutants_old_text_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = [m.name for m in module.MUTANTS]
    assert len(set(names)) == len(names) >= 43
    for m in module.MUTANTS:
        assert m.path.startswith("src/") and m.old != m.new, m.name
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        for t in m.tests:
            path, _, name = t.partition("::")
            assert (ROOT / path).is_file(), (m.name, t)
            if name:
                assert name.split("[")[0] in defined_functions(ROOT / path), (m.name, t)


def defined_functions(path):
    """The names of the functions defined at the top level of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

"""README's Layout block names every module of the package."""
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("## Layout")
    block = readme[readme.index("```", start):readme.index("```", readme.index("```", start) + 3)]
    listed = set(re.findall(r"^  (\w+\.py)\b", block, flags=re.M))
    modules = {p.name for p in (ROOT / "src" / "nonassoc").glob("*.py")}
    assert modules - listed == set(), "modules missing from README's Layout"
    assert listed - modules == set(), "README's Layout names modules that do not exist"

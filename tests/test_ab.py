"""``scripts/ab.py`` times one tree against itself.

One round of ``identity-dense`` with the same tree on both sides: both
packages load under their own names, every verdict compares equal, and
each label gets a line of the table.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_times_a_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
         "--rounds", "1", "--workload", "identity-dense"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "identity-dense:"
    assert sum(line.lstrip().startswith("M3-dense/") for line in lines) == 10
    assert "of 10 labels" in lines[-1]

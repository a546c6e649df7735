#!/usr/bin/env python3
"""Check that the tests catch faults in the exact kernels.

Each entry of ``MUTANTS`` names one fault: a text of a file under ``src/``
and the text that replaces it, the tests that should catch it, and what it
breaks.  For each, the tree is copied afresh to a temporary directory, the
text replaced there (it must occur exactly once), and the mutant's tests
run with ``pytest -x``.  A mutant is killed when a test fails, and survives
when every test passes; the first failing test is printed beside it.  The
unmutated copy runs every selection first, so a kill is the mutant's.  The
tree itself is never changed:

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py NAME ...   # the named ones

The exit status is nonzero when the unmutated copy fails, when a mutant
survives, or when its tests could not run (exit status 2 or more from
pytest, such as a collection error).
``tests/test_mutants.py`` checks that each text still occurs exactly once,
without running any mutant.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# Not needed by any test: version control, caches, benchmark output and records.
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "out", "BENCH_*.json")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    old: str
    new: str
    tests: tuple[str, ...]  # pytest selections, relative to the root of the tree
    breaks: str


IDENTITIES = "src/nonassoc/identities.py"

MUTANTS = (
    # The last slot's leaf as a phantom basis index, its cells filled as read.
    Mutant("phantom-cell-transposed", IDENTITIES,
           "out[x] += (_times(rows, {x: 1}, leaf),)",
           "out[x] += (_times(rows, leaf, {x: 1}),)",
           ("tests/test_packed.py",),
           "cell (x, n) holds L e_x, summed from rows[j][x], where e_x L is meant"),
    Mutant("phantom-row-without-R", IDENTITIES,
           "[*rows, *[()] * (n - len(rows)), [None] * n]",
           "[*rows, *[()] * (n - len(rows)), [None] * len(rows)]",
           ("tests/test_packed.py",),
           "row n runs over the basis only, so it has no cell for R(L) at R's index"),
    Mutant("phantom-leaf-over-run", IDENTITIES,
           "phantom, rows, fill = _phantom_leaf(rows, leaf, sched.beside_last)",
           "phantom, rows, fill = _phantom_leaf(\n                    rows, "
           "{i: 1 << width * p for p, i in enumerate(run)}, sched.beside_last)",
           ("tests/test_packed.py::test_the_genalgebras_families_match_the_oracles",
            "tests/test_null_indices.py"),
           "the phantom's cells stand for slot last - 1's run, not the last slot's order"),
    Mutant("phantom-index-at-dim", IDENTITIES,
           "    n = len(rows[0])\n    out = ",
           "    n = len(rows)\n    out = ",
           ("tests/test_packed.py",),
           "the phantom leaf takes index dim, R's phantom, when the words apply R"),
    Mutant("row-n-never-filled", IDENTITIES,
           "        for v in rights:",
           "        for v in ():",
           ("tests/test_packed.py",),
           "no cell of row n is filled, so a product by L on its left reads none"),
    Mutant("beside-last-sides-swapped", IDENTITIES,
           "for side in (2, 1))",
           "for side in (1, 2))",
           ("tests/test_packed.py",),
           "the schedule names L's right operands as its left ones, so fills miss the cells read"),
    Mutant("phantom-for-tied-last-slot", IDENTITIES,
           "if d == last and tied[d]:",
           "if d == last and tied[d] and not group:",
           ("tests/test_symmetry.py", "tests/test_packed.py"),
           "under G a tied last slot multiplies by L, then its phantom, not by its own run"),
    # Packing, scaling, null pruning and the orbit test.
    Mutant("width-one-bit-short", IDENTITIES,
           "return bound.bit_length() + 1",
           "return bound.bit_length()",
           ("tests/test_packed.py",),
           "a packed field can carry into the next, so a sum can read as zero"),
    Mutant("decode-first-field", IDENTITIES,
           "field = ((bits & -bits).bit_length() - 1) // width",
           "field = 0",
           ("tests/test_packed.py",),
           "a failing block reports its first tuple, not its first failing one"),
    Mutant("witness-not-unscaled", IDENTITIES,
           "_unscaled(_signed_sum(r, vals), dim, scale)",
           "_unscaled(_signed_sum(r, vals), dim, 1)",
           ("tests/test_identities.py",),
           "a witness's sides keep the lcm scale of the int constants"),
    Mutant("cmax-without-R", IDENTITIES,
           "cmax = max(a.integer_cell_norm, rnorm)",
           "cmax = a.integer_cell_norm",
           ("tests/test_packed.py::test_field_width_bounds_every_coordinate",),
           "the field width ignores R's columns, so operator words can overflow a field"),
    Mutant("survivors-prune-equal-image", IDENTITIES,
           "if image < run:",
           "if image <= run:",
           ("tests/test_symmetry.py",),
           "a prefix whose sorted image equals it is pruned, losing representatives"),
    Mutant("survivors-prune-larger-image", IDENTITIES,
           "if g[a] < a:",
           "if g[a] > a:",
           ("tests/test_symmetry.py",),
           "a run's first index is pruned when g maps it higher, not lower"),
    Mutant("no-live-index-from-R", IDENTITIES,
           "live.update(i for i, row in enumerate(rows) if row[dim])",
           "live.update(())",
           ("tests/test_null_indices.py",),
           "a null index whose R column is nonzero is skipped, though R(e_i) != 0"),
    Mutant("mirror-sign-dropped", "src/nonassoc/constructions.py",
           "else tuple((k, -c) for k, c in rows[j][i])",
           "else rows[j][i]",
           ("tests/test_constructions.py",),
           "an antisymmetric product copies x∘y into y∘x instead of negating it"),
)


def run(mutant: Mutant) -> tuple[str, str]:
    """``killed``, ``survived`` or ``error ...`` for one mutant (the unmutated
    tree when ``mutant.old`` is empty), and the first failing test."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if mutant.old and text.count(mutant.old) != 1:
            return f"error (old text occurs {text.count(mutant.old)} times)", ""
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    failed = next((line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), "")
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return outcome, failed


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start, bad = time.monotonic(), 0
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    outcome, failed = run(Mutant("unmutated", IDENTITIES, "", "", tests, ""))
    if outcome != "survived":
        print(f"the unmutated copy fails its selections: {outcome} {failed}")
        return 1
    print(f"unmutated copy passes {len(tests)} selections in {time.monotonic() - start:.1f} s")
    for m in chosen:
        began = time.monotonic()
        outcome, failed = run(m)
        bad += outcome != "killed"
        print(f"{outcome:9} {m.name:29} {time.monotonic() - began:4.1f} s  {m.breaks}", flush=True)
        if failed:
            print(f"{'':10}by {failed}")
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

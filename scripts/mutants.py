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
ALGEBRA = "src/nonassoc/algebra.py"
SYMMETRY = "src/nonassoc/symmetry.py"
_SUMMARIES = ("tests/test_null_indices.py::"
              "test_the_summaries_of_the_constants_read_every_nonempty_row")

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
           "cmax = max(norm, rnorm)",
           "cmax = norm",
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
    # The minimal-image tables of the automorphism list, read at the first slot.
    Mutant("table-low-as-max", SYMMETRY,
           "self.low = [min(c) for c in zip(*elements)]",
           "self.low = [max(c) for c in zip(*elements)]",
           ("tests/test_symmetry.py",),
           "the least image of an index is taken as its greatest, so the first slot prunes too little"),
    Mutant("preimages-keyed-by-image", SYMMETRY,
           "out.setdefault(g.index(a), []).append(g)",
           "out.setdefault(g[a], []).append(g)",
           ("tests/test_symmetry.py",),
           "the elements are grouped by the image of a, not by the index they send to a"),
    Mutant("first-slot-keeps-movers", IDENTITIES,
           "return hits.get(a, ()) if closed else alive",
           "return alive",
           ("tests/test_symmetry.py",),
           "a closed first run keeps the elements that move its index, not only those fixing it"),
    Mutant("first-slot-prunes-equal-low", IDENTITIES,
           "if tables.low[a] < a:",
           "if tables.low[a] <= a:",
           ("tests/test_symmetry.py",),
           "the first slot prunes an index that no element maps lower, losing representatives"),
    # Only the first variable repeats, so every slot after the first run is untied.
    Mutant("untied-keeps-movers", IDENTITIES,
           "if g[a] == a:",
           "if True:",
           ("tests/test_symmetry.py::test_untied_slots_keep_the_elements_that_fix_them",),
           "an untied slot keeps the elements that move its index, which then prune wrongly below"),
    Mutant("later-group-accepted", IDENTITIES,
           "    if any(g[0] for g in groups):\n        raise AssertionError(",
           "    if False:\n        raise AssertionError(",
           ("tests/test_symmetry.py::test_a_slot_group_after_slot_0_is_refused",),
           "a slot group after slot 0 is scheduled, though the orbit test reads no table for it"),
    # Null indices: identity loops run over the support, operator loops over every index.
    Mutant("identity-loop-drops-an-index", IDENTITIES,
           "rows, a.support, cmax,",
           "rows, a.support[1:], cmax,",
           ("tests/test_null_indices.py::test_check_identity_equals_every_index_active",),
           "the identity loop skips the support's first index, though tuples holding it can fail"),
    Mutant("operator-loop-over-support", IDENTITIES,
           "rows, range(a.dim), cmax,",
           "rows, a.support, cmax,",
           ("tests/test_null_indices.py::test_check_operator_property_equals_every_index_active",
            "tests/test_null_indices.py::test_a_bare_leaf_keeps_every_index"),
           "operator words skip a null index, though R(e_i) or a bare leaf e_i need not vanish"),
    Mutant("bare-leaf-accepted", IDENTITIES,
           "        if isinstance(word, int):\n            raise AssertionError(",
           "        if False:\n            raise AssertionError(",
           ("tests/test_null_indices.py::test_an_identity_with_a_bare_leaf_is_refused",),
           "an identity word may be a bare leaf, which a null index of the support does not zero"),
    # The one walk of the constants, and the summaries read off it.
    Mutant("entries-over-wrong-rows", ALGEBRA,
           "if any(row)",
           "if row[0]",
           (_SUMMARIES,),
           "the constants skip rows whose first cell is empty, so every summary misreads them"),
    Mutant("norm-per-constant", ALGEBRA,
           "norms.get((i, j), 0) + abs(c.numerator)",
           "abs(c.numerator)",
           (_SUMMARIES,),
           "a cell's norm is its last constant's, so a packed field can overflow"),
    # The random trials' generated product and their witnesses.
    Mutant("generated-term-transposed", ALGEBRA,
           "l{x}*r{y}\"",
           "l{y}*r{x}\"",
           ("tests/test_identities.py::test_integer_random_path_matches_rational_oracle",),
           "each generated term reads l[y]*r[x], so the random trials multiply y x"),
    Mutant("last-piece-dropped", ALGEBRA,
           "for f in parts]",
           "for f in parts[:-1]]",
           ("tests/test_identities.py::"
            "test_random_trials_compile_a_dense_dim_60_product_in_bounded_memory",),
           "a product compiled in several pieces loses the last piece's terms"),
    # The random trials' bulk draws, read as randint(-6, 6) and randrange(4) read them.
    Mutant("drawer-tail-dropped", IDENTITIES,
           "_COORD.split(self._tail + top",
           "_COORD.split(top",
           ("tests/test_identities.py::test_a_later_trial_fails_as_the_oracle_says",
            "tests/test_identities.py::test_drawer_takes_continue_the_randint_stream"),
           "a read drops the nibbles after its last whole coordinate, so a later take skips a num"),
    Mutant("quarter-halves-below-0x40", IDENTITIES,
           "(num if c < 0x20 and num % 2",
           "(num if c < 0x40 and num % 2",
           ("tests/test_identities.py::test_random_element_stream_is_pinned",
            "tests/test_identities.py::test_drawer_takes_continue_the_randint_stream"),
           "randrange(4) giving 1 halves an odd num too, as if it gave 0"),
    Mutant("num-rejected-from-0xE0", IDENTITIES,
           "_NEVER_TAKEN = bytes(range(0xD0, 0x100))",
           "_NEVER_TAKEN = bytes(range(0xE0, 0x100))",
           ("tests/test_identities.py::test_random_element_stream_is_pinned",
            "tests/test_identities.py::test_drawer_takes_continue_the_randint_stream"),
           "a num word whose top byte is in [0xD0, 0xE0) is kept, not rejected"),
    Mutant("witness-side-from-lhs", IDENTITIES,
           "for side in sides)",
           "for side in sides[:1] * 2)",
           ("tests/test_identities.py",),
           "a random witness reports the lhs roots' sum as its rhs too"),
    Mutant("mirror-sign-dropped", "src/nonassoc/constructions.py",
           "else tuple((k, -c) for k, c in rows[j][i])",
           "else rows[j][i]",
           ("tests/test_constructions.py",),
           "an antisymmetric product copies x∘y into y∘x instead of negating it"),
    # The support, the automorphism search, the catalogs and the grid's checks.
    Mutant("support-without-outputs", ALGEBRA,
           "for x in (i, j, k)}",
           "for x in (i, j)}",
           ("tests/test_symmetry.py::test_every_found_permutation_is_an_automorphism",),
           "the support misses an index that is only a product's output, as e_1 in e_0 e_0 = e_1"),
    Mutant("renumber-keeps-output", SYMMETRY,
           "at[j], at[k], v)",
           "at[j], k, v)",
           ("tests/test_symmetry.py::test_every_found_permutation_is_an_automorphism",),
           "the search reads each output by its index in the algebra, not in the support"),
    Mutant("refine-one-round", SYMMETRY,
           "        if len(rank) == cells:\n            return colour\n",
           "        return colour\n",
           ("tests/test_symmetry.py::test_refinement_stops_at_a_stable_colouring",),
           "colour refinement stops after one round, before the colouring is stable"),
    Mutant("null-product-witness-last", "src/nonassoc/fixtures.py",
           "a.entries[0]",
           "a.entries[-1]",
           ("tests/test_cli.py::test_verify_fixture_all_json_golden",),
           "a failing null_product check reports the last nonzero product, not the first"),
    Mutant("left-table-transposed", ALGEBRA,
           "images[k][out]",
           "images[out][k]",
           ("tests/test_operators.py::test_left_mult_operator_matches_matrix_oracle",),
           "the left table holds the coefficient of e_k in e_out b_j, not of e_out in e_k b_j"),
    Mutant("derivation-sign", "src/nonassoc/operators.py",
           "((1, (R(X), Y)), (1, (X, R(Y))))",
           "((1, (R(X), Y)), (-1, (X, R(Y))))",
           ("tests/test_operators.py",),
           "the derivation words read R(x) y - x R(y) = R(x y), not the Leibniz rule"),
    Mutant("right-identity-side", "src/nonassoc/search.py",
           "(amb.product(emb.basis[j], u), emb.basis[j])",
           "(amb.product(u, emb.basis[j]), emb.basis[j])",
           ("tests/test_search.py", "tests/test_search_conditions.py"),
           "right_identity solves u x = x, a left identity, in place of x u = x"),
    Mutant("grid-degree-off-by-one", IDENTITIES,
           "if len(distinct) < self.degree + 1:",
           "if len(distinct) < self.degree:",
           ("tests/test_identities.py::test_certify_parametric_grid_too_small",
            "tests/test_fixtures.py::test_certify_row_too_small_grid"),
           "a grid of d distinct values certifies a parameter of degree d, one point short"),
    Mutant("grid-repeat-let-through", IDENTITIES,
           "if len(distinct) < len(axis):",
           "if len(distinct) < len(axis) - 1:",
           ("tests/test_fixtures.py::test_certify_row_rejects_repeated_axis_values",),
           "an axis that repeats one value is walked, that value checked and counted twice"),
    Mutant("grid-exclusion-unchecked", IDENTITIES,
           "bad = distinct.intersection(self.exclude)",
           "bad = distinct.intersection(())",
           ("tests/test_identities.py::test_certify_parametric_rejects_excluded_values",),
           "an axis that holds an excluded value is accepted, a point where the family is undefined"),
    # The sum steps of factored words, which no catalogued word list compiles to.
    Mutant("element-sum-term-dropped", IDENTITIES,
           "vals[n] = sum((vals[t] for t in right[1:]), vals[right[0]])",
           "vals[n] = sum((vals[t] for t in right[2:]), vals[right[0]])",
           ("tests/test_constructions.py::test_derive_sums_factored_words",),
           "derive's sum node drops its second term, so R(xy + yx) reads R(xy)"),
    Mutant("trial-sum-term-dropped", IDENTITIES,
           "vals[n] = [sum(c) for c in zip(*(vals[t] for t in right))]",
           "vals[n] = [sum(c) for c in zip(*(vals[t] for t in right[1:]))]",
           ("tests/test_identities.py::test_random_trials_sum_factored_words",),
           "a random trial's sum node drops its first term, so x(yz + zy) reads x(zy)"),
    Mutant("error-exits-1", "src/nonassoc/cli.py",
           "        print(f\"error: {exc}\", file=sys.stderr)\n        return 2\n    except MemoryError",
           "        print(f\"error: {exc}\", file=sys.stderr)\n        return 1\n    except MemoryError",
           ("tests/test_cli.py::test_verify_fixture_unknown",),
           "an input error exits 1, which a caller reads as a refutation"),
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

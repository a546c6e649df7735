"""The benchmark's four workloads: seeded inputs, verdict tasks and known answers.

Every verdict goes through a ``nonassoc`` module attribute looked up at call
time, so the traced run sees it.  ``Task.check`` judges a result against
its known answer and replays failing witnesses; it runs outside the timed
region.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from nonassoc import algebra, constructions, fixtures, identities
from nonassoc.scalars import canonical

# Verdicts that follow from algebra theory.  M_n is associative, hence
# left pre-Lie, flexible and Jordan-admissible in the raw product; it is
# neither commutative nor anticommutative.  commutator(M_n) is a Lie
# algebra: anticommutative, Jacobi, left Leibniz, and flexible/Jordan
# because x x = 0.  A change of basis leaves every verdict unchanged.
MATRIX_PASSES = frozenset({"associativity", "left_prelie", "flexible", "jordan_flex", "jordan_main"})
COMMUTATOR_PASSES = frozenset(
    {"antisymmetry", "jacobi", "left_leibniz", "flexible", "jordan_flex", "jordan_main"}
)

# A fixed rational basis of M_3 (row-major 3x3 matrices) whose structure
# constants have 219 of 729 entries nonzero, 156 of them Fractions.  Each
# seed reorders it and flips signs, a change of basis that is always
# invertible and yields the same structure constants up to relabelling and
# signs, and so the same cost.
DENSE_BASIS = tuple(
    tuple(Fraction(c) for c in row.split())
    for row in (
        "0 0 -1  -1 0 0  0 0 0",
        "-1 0 0  0 1/2 0  0 0 0",
        "2 0 -1  0 0 0  0 0 0",
        "0 0 0  0 -2/3 0  0 1 0",
        "0 1/2 1  0 0 0  0 0 0",
        "0 0 0  0 0 0  -1 1 0",
        "0 0 0  0 0 -2/3  0 0 0",
        "0 2/3 0  0 0 0  0 0 2",
        "0 0 0  0 2 0  0 1 0",
    )
)

RANDOM_TRIALS = 100
TRIAL_SEEDS_PER_PAIR = 2

_IDENTITY_ROW = re.compile(r"^identity\[([^\]]+)\]:([a-z0-9_]+)$")


@dataclass(frozen=True)
class Task:
    """One verdict: ``run`` computes it, ``check`` says whether it is right.

    Tasks with one label repeat one verdict; its latency is their median.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def _evaluate(a, words, leaf) -> object:
    def value(word):
        if isinstance(word, int):
            return leaf(word)
        return a.product(value(word[0]), value(word[1]))

    acc = a.zero()
    for sign, word in words:
        v = value(word)
        acc = acc + v if sign == 1 else acc + sign * v
    return acc


def replay_polarized(a, name: str, witness) -> bool:
    """Re-evaluate the polarized identity at the witness's basis tuple."""
    plan = identities.polarized_plan(name)
    leaf = lambda slot: a.basis_vector(witness.indices[slot])  # noqa: E731
    lhs, rhs = _evaluate(a, plan.lhs, leaf), _evaluate(a, plan.rhs, leaf)
    return lhs == witness.lhs and rhs == witness.rhs and lhs != rhs


def replay_raw(a, name: str, witness) -> bool:
    """Re-evaluate the identity at the witness's elements."""
    ident = identities.get_identity(name)
    leaf = lambda var: witness.inputs[var]  # noqa: E731
    lhs, rhs = _evaluate(a, ident.lhs, leaf), _evaluate(a, ident.rhs, leaf)
    return lhs == witness.lhs and rhs == witness.rhs and lhs != rhs


def _identity_task(label: str, a, name: str, expect: bool) -> Task:
    def check(v) -> bool:
        if v.passed != expect:
            return False
        return v.passed or replay_polarized(a, name, v.witness)

    return Task(f"{label}/{name}", lambda: identities.check_identity(a, name), check)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def permuted_matrix_algebra(n: int, rng: random.Random):
    """M_n in its matrix-unit basis, listed in a seeded order."""
    ambient = algebra.matrix_algebra(n)
    order = list(range(ambient.dim))
    rng.shuffle(order)
    sub, _ = algebra.induce_subalgebra(ambient, [ambient.basis_vector(i) for i in order])
    return sub


def dense_basis(rng: random.Random) -> list:
    """The seeded rational basis of M_3 for ``identity-dense``."""
    order = list(range(9))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in order]
    return [
        algebra.Element(tuple(canonical(sign * c) for c in DENSE_BASIS[k]))
        for k, sign in zip(order, signs)
    ]


def sparse_algebras(seed: int) -> list[tuple]:
    """(label, algebra, identities that pass) for ``identity-sparse``."""
    rng = random.Random(seed)
    m4 = permuted_matrix_algebra(4, rng)
    m5 = permuted_matrix_algebra(5, rng)
    c5 = constructions.derive(
        permuted_matrix_algebra(5, rng), None, constructions.construction("commutator")
    )
    return [
        ("M4", m4, MATRIX_PASSES),
        ("M5", m5, MATRIX_PASSES),
        ("commutator(M5)", c5, COMMUTATOR_PASSES),
    ]


def dense_algebras(seed: int) -> list[tuple]:
    """(label, algebra, identities that pass) for ``identity-dense``."""
    m3 = algebra.matrix_algebra(3)
    dense, _ = algebra.induce_subalgebra(m3, dense_basis(random.Random(seed)))
    return [("M3-dense", dense, MATRIX_PASSES)]


def _suites(algebras: list[tuple]) -> list[Task]:
    return [
        _identity_task(label, a, name, name in passes)
        for label, a, passes in algebras
        for name in identities.IDENTITY_NAMES
    ]


def _row_task(name: str, m, label: str, expect: bool) -> Task:
    match = _IDENTITY_ROW.match(label)

    def check(v) -> bool:
        if v.passed != expect:
            return False
        if v.passed or match is None:
            return True
        return replay_polarized(m.algebras[match.group(1)], match.group(2), v.witness)

    return Task(f"{name}/{label}", lambda: fixtures.run_row(m, label), check)


def fixture_catalog(seed: int) -> list[Task]:
    """Every row, control and certified row of the catalog; ``seed`` is unused."""
    rows, controls, certified = [], [], []
    for name in fixtures.list_fixtures():
        bundle = fixtures.load_fixture(name)
        m = fixtures.materialize(bundle)
        rows += [_row_task(name, m, r.check, r.expect) for r in bundle.rows]
        controls.append(Task(
            f"{name}/control",
            lambda n=name: fixtures.check_negative_control(n),
            lambda res: res.original.passed and res.flipped,
        ))
        certified += [
            Task(f"{name}/certify/{label}",
                 lambda n=name, lab=label: fixtures.certify_row(n, lab),
                 lambda v: v.passed)
            for label in bundle.certified_rows
        ]
    return rows + controls + certified


def trial_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(TRIAL_SEEDS_PER_PAIR)]


def random_corroboration(seed: int) -> list[Task]:
    """Random trials on every materialized fixture algebra, judged by exact verdicts.

    The trial seeds of one (algebra, identity) pair share a label, so the run
    takes the median over seeds and passes: 100 trials cost the same
    whatever the seed.
    """
    seeds = trial_seeds(seed)
    tasks = []
    for fixture in fixtures.list_fixtures():
        m = fixtures.materialize(fixtures.load_fixture(fixture))
        for alg_name, a in m.algebras.items():
            for name in identities.IDENTITY_NAMES:
                exact = identities.check_identity(a, name).passed
                for ts in seeds:
                    tasks.append(_random_task(f"{fixture}:{alg_name}/{name}", a, name, ts, exact))
    return tasks


def _random_task(label: str, a, name: str, trial_seed: int, exact: bool) -> Task:
    def check(v) -> bool:
        if v.passed != exact:
            return False
        return v.passed or replay_raw(a, name, v.witness)

    return Task(
        label,
        lambda: identities.check_identity_random(a, name, RANDOM_TRIALS, trial_seed),
        check,
    )


WORKLOADS: dict[str, Callable[[int], list[Task]]] = {
    "identity-sparse": lambda seed: _suites(sparse_algebras(seed)),
    "identity-dense": lambda seed: _suites(dense_algebras(seed)),
    "fixture-catalog": fixture_catalog,
    "random-corroboration": random_corroboration,
}

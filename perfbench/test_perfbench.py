"""Tests of the benchmark itself: counts, known answers, seeds and exit codes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import run
import spans
import workloads
from nonassoc import algebra, identities


def _traced(fn):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return spans.summarize(tracer, (0, tracer.mark()), [(0, 0)], 0.0)


def test_jordan_main_tuples_match_closed_form():
    rng = random.Random(1)
    m4 = workloads.permuted_matrix_algebra(4, rng)
    m5 = workloads.permuted_matrix_algebra(5, rng)
    for a, expected in ((m4, 13_056), (m5, 73_125)):
        metrics = _traced(lambda: identities.check_identity(a, "jordan_main"))
        assert metrics["identities.check_identity.tuples"][0] == expected
        assert metrics["identities.check_identity.calls"][0] == 1


@pytest.mark.parametrize("name", ["associativity", "flexible", "jordan_main", "antisymmetry"])
def test_grouped_rank_matches_enumeration(name):
    dim = 3
    plan = identities.polarized_plan(name)
    ordered = [
        t for t in itertools.product(range(dim), repeat=plan.slots)
        if all(t[g[i]] <= t[g[i + 1]] for g in plan.groups for i in range(len(g) - 1))
    ]
    assert len(ordered) == spans.closed_form_tuples(dim, name)
    for rank, t in enumerate(ordered, start=1):
        assert spans.grouped_rank(dim, name, t) == rank


def test_fixture_catalog_counts():
    tasks = workloads.fixture_catalog(1)
    certified = [t for t in tasks if "/certify/" in t.label]
    controls = [t for t in tasks if t.label.endswith("/control")]
    assert (len(tasks) - len(certified) - len(controls), len(controls), len(certified)) == (121, 13, 35)
    results = run.run_pass(certified)
    assert run.judge(results) == []
    assert sum(r.points_checked for _, r, *_ in results) == 7_407


def test_flipped_answer_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads, "MATRIX_PASSES", workloads.MATRIX_PASSES - {"associativity"})
    code = run.main(["--workload", "identity-dense", "--seed", "1", "--seconds", "0"])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] / out["attempted"] > 0


def test_missing_package_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "identity-dense", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def _passed(tasks):
    results = run.run_pass(tasks)
    assert run.judge(results) == []
    return [r.passed for _, r, *_ in results]


def test_two_seeds_give_other_inputs_and_the_same_verdicts():
    for make in (workloads.sparse_algebras, workloads.dense_algebras):
        first, second, again = make(1), make(2), make(1)
        assert all(x[1].sc != y[1].sc for x, y in zip(first, second))
        assert all(x[1].sc == y[1].sc for x, y in zip(first, again))
        tasks = [workloads._suites(first), workloads._suites(second)]
        if make is workloads.sparse_algebras:
            tasks = [[t for t in ts if t.label.startswith("M4/")] for ts in tasks]
        assert _passed(tasks[0]) == _passed(tasks[1])
    assert workloads.trial_seeds(1) != workloads.trial_seeds(2)
    assert workloads.trial_seeds(1) == workloads.trial_seeds(1)
    rand = [workloads.random_corroboration(s)[:60] for s in (1, 2)]
    assert _passed(rand[0]) == _passed(rand[1])


def test_dense_basis_shape():
    a, _ = algebra.induce_subalgebra(algebra.matrix_algebra(3), workloads.dense_basis(random.Random(5)))
    entries = [c for row in a.sc for col in row for c in col if c != 0]
    assert len(entries) == 219
    assert sum(isinstance(c, Fraction) for c in entries) == 156


def test_replay_rejects_a_forged_witness():
    a = algebra.matrix_algebra(2)
    v = identities.check_identity(a, "commutativity")
    assert workloads.replay_polarized(a, "commutativity", v.witness)
    forged = replace(v.witness, lhs=v.witness.rhs)
    assert not workloads.replay_polarized(a, "commutativity", forged)


def test_layer_map_rejects_a_silent_span():
    metrics = {f"{t}.calls": (1.0, "count") for t in spans.TARGETS}
    spans.check_layer_map("fixture-catalog", metrics)
    metrics["fixtures.run_row.calls"] = (0.0, "count")
    with pytest.raises(spans.TraceError, match="fixtures.run_row"):
        spans.check_layer_map("fixture-catalog", metrics)

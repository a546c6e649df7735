"""The benchmark's span map against the package.

``perfbench/spans.py`` times the package's public functions by name, and its
``LAYER_MAP`` says which of them must fire on which workload.  A renamed
target, or a mapped span that a refactor silences, would otherwise show only
in a traced benchmark run (``python3 perfbench/run.py --trace 1``).  These
tests resolve every target and run one traced set-up and pass of the
``fixture-catalog`` workload.  ``perfbench`` is imported as it is, unchanged.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from nonassoc import fixtures  # noqa: E402


@pytest.mark.parametrize("target", spans.TARGETS)
def test_span_target_resolves(target):
    spans._resolve(target)


def test_fixture_catalog_fires_every_mapped_span():
    # Cold caches, so that the set-up spans (induce_subalgebra, make_algebra,
    # rref) fire as they do in a fresh benchmark process.
    fixtures._induced.cache_clear()
    fixtures._ambient.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tasks = workloads.fixture_catalog(1)
        setup = (0, tracer.mark())
        wrong = []
        for task in tasks:
            tracer.verdict += 1
            if not task.check(task.run()):
                wrong.append(task.label)
    finally:
        tracer.uninstall()
    assert wrong == []
    metrics = spans.summarize(tracer, setup, [(setup[1], tracer.mark())], 0.0)
    spans.check_layer_map("fixture-catalog", metrics)

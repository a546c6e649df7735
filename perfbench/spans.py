"""Spans around calls into the package's public functions, recorded from outside.

A ``Tracer`` replaces each target function with a wrapper in every
``nonassoc`` module that bound it by name (``check_identity`` is bound in
``identities``, ``fixtures``, ``cli`` and the package itself), and each
target method on its class.  Spans stay in memory as
``(name, start, end, parent, verdict, info)`` and are written out once, when
the run ends.  The package itself is not modified.
"""
from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from time import process_time

from nonassoc import identities
from workloads import WORKLOADS

# Public functions timed in the traced run, named module.function or
# module.Class.method.
TARGETS = (
    "identities.check_identity",
    "identities.check_identity_random",
    "identities.certify_parametric",
    "algebra.Algebra.product",
    "algebra.Embedding.to_sub",
    "algebra.induce_subalgebra",
    "algebra.make_algebra",
    "linalg.rref",
    "linalg.SpanSolver.coordinates",
    "operators.left_multiplication_operator",
    "operators.LinearOperator.apply",
    "operators.check_operator_property",
    "constructions.derive",
    "search.solve_linear",
    "search.verify_element",
    "fixtures.materialize",
    "fixtures.run_row",
    "fixtures.certify_row",
    "fixtures.check_negative_control",
    "serial.algebra_content_hash",
)

# Which end-to-end metric each layer should move, and on which workload.
# The traced run fails when a span listed here never fires on a workload
# it maps to, so a renamed function cannot silently zero a metric.
LAYER_MAP = (
    (("identities.check_identity",),
     ("verdicts_per_s", "verdict_p90_ms"),
     ("identity-sparse", "identity-dense")),
    (("identities.check_identity_random", "algebra.Algebra.product"),
     ("verdicts_per_s",),
     ("random-corroboration",)),
    (("fixtures.materialize", "constructions.derive", "operators.left_multiplication_operator",
      "algebra.Embedding.to_sub", "linalg.SpanSolver.coordinates",
      "identities.certify_parametric", "serial.algebra_content_hash"),
     ("verdict_p90_ms", "verdicts_per_s"),
     ("fixture-catalog",)),
    (("operators.check_operator_property", "operators.LinearOperator.apply",
      "fixtures.run_row", "search.solve_linear", "search.verify_element"),
     ("verdict_p50_ms",),
     ("fixture-catalog",)),
    (("algebra.induce_subalgebra", "algebra.make_algebra", "linalg.rref"),
     ("setup_s",),
     tuple(WORKLOADS)),
)


def _identity_info(args, result):
    a, name = args[0], args[1]
    return (a.dim, name, None if result.passed else result.witness.indices)


def _product_info(args, result):
    return any(type(c) is Fraction for c in result.coords)


def _materialize_info(args, result):
    return (result.bundle.name, tuple(sorted(result.point.items())))


def _points_info(args, result):
    return result.points_checked


# Facts recorded per call, for the counts and ratios derived from them.
_INFO = {
    "identities.check_identity": _identity_info,
    "algebra.Algebra.product": _product_info,
    "fixtures.materialize": _materialize_info,
    "identities.certify_parametric": _points_info,
}


class TraceError(RuntimeError):
    """A target is missing from the package, or a mapped span never fired."""


def _resolve(target: str):
    parts = target.split(".")
    owner = importlib.import_module("nonassoc." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"{target}: no attribute {part!r}")
    attr = parts[-1]
    if attr not in vars(owner):
        raise TraceError(f"{target}: no attribute {attr!r}")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch and restore."""

    def __init__(self):
        self.spans: list = []
        self.verdict = -1  # id of the verdict in progress; -1 during set-up
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.verdict, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, self.verdict, info(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise TraceError("tracer is already installed")
        resolved = [(t, *_resolve(t)) for t in TARGETS]  # imports every target module
        package_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "nonassoc" or n.startswith("nonassoc."))
        ]
        for target, owner, attr, orig in resolved:
            wrapper = self._wrap(target, orig)
            if isinstance(owner, type):
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for module in package_modules:
                for bound, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, bound, orig))
                        setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = {t: i for i, t in enumerate(TARGETS)}
        rows = [[names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": TARGETS, "fields": ["name", "start", "end", "parent", "verdict"],
                       "spans": rows}, fh)


def grouped_rank(dim: int, name: str, tup: tuple) -> int:
    """1-based position of ``tup`` in the engine's enumeration of basis tuples.

    Tuples run in lexicographic order, non-decreasing within each group of
    slots polarized from one variable (groups are runs of adjacent slots).
    """
    plan = identities.polarized_plan(name)
    group_of = {s: g for g in plan.groups for s in g}

    def completions(prefix: list) -> int:
        # Tuples that extend ``prefix`` and keep every group non-decreasing.
        n = len(prefix)
        total = dim ** sum(1 for s in range(n, plan.slots) if s not in group_of)
        for g in plan.groups:
            rest = sum(1 for s in g if s >= n)
            if rest:
                lo = prefix[n - 1] if g[0] < n else 0
                total *= comb(dim - lo + rest - 1, rest)
        return total

    rank = 0
    for slot in range(plan.slots):
        g = group_of.get(slot)
        lo = tup[slot - 1] if g and slot != g[0] else 0
        for v in range(lo, tup[slot]):
            rank += completions(list(tup[:slot]) + [v])
    return rank + 1


def closed_form_tuples(dim: int, name: str) -> int:
    """Basis tuples a passing check enumerates: the product of C(n+d-1, d)."""
    ident = identities.get_identity(name)
    total = 1
    for d in ident.multidegree:
        total *= comb(dim + d - 1, d)
    return total


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(tracer: Tracer, setup: tuple, passes: list, overhead: float) -> dict:
    """Per-layer metrics of one traced set-up plus the mean traced pass.

    ``setup`` and each entry of ``passes`` are (first, end) span index ranges.
    """
    spans = tracer.spans
    self_s = _self_times(spans)
    calls = {t: 0.0 for t in TARGETS}
    busy = {t: 0.0 for t in TARGETS}
    weight = [(setup, 1.0)] + [(p, 1.0 / len(passes)) for p in passes]
    tuples = 0.0
    points = 0.0
    for (lo, hi), w in weight:
        for i in range(lo, hi):
            s = spans[i]
            calls[s[0]] += w
            busy[s[0]] += w * self_s[i]
            if s[0] == "identities.check_identity":
                dim, name, indices = s[5]
                n = closed_form_tuples(dim, name) if indices is None else grouped_rank(dim, name, indices)
                tuples += w * n
            elif s[0] == "identities.certify_parametric":
                points += w * s[5]
    products = [s[5] for s in spans if s[0] == "algebra.Algebra.product"]
    fixture_points = {s[5] for s in spans if s[0] == "fixtures.materialize"}

    metrics = {}
    for t in TARGETS:
        metrics[f"{t}.calls"] = (calls[t], "count")
        metrics[f"{t}.self_s"] = (busy[t], "s")
    check_s = busy["identities.check_identity"]
    metrics["identities.check_identity.tuples"] = (tuples, "count")
    metrics["identities.check_identity.tuples_per_s"] = (tuples / check_s if check_s else 0.0, "1/s")
    metrics["identities.certify_parametric.points"] = (points, "count")
    metrics["algebra.Algebra.product.fraction_out_ratio"] = (
        sum(products) / len(products) if products else 0.0, "ratio")
    materialized = calls["fixtures.materialize"]
    metrics["fixtures.materialize.useful_ratio"] = (
        len(fixture_points) / materialized if materialized else 0.0, "ratio")
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def check_layer_map(workload: str, metrics: dict) -> None:
    """Raise when a span the layer map assigns to ``workload`` never fired."""
    silent = [
        span
        for spans, _, workloads in LAYER_MAP
        if workload in workloads
        for span in spans
        if metrics[f"{span}.calls"][0] < 1
    ]
    if silent:
        raise TraceError(f"spans never fired on {workload}: {', '.join(silent)}")

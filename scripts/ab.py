#!/usr/bin/env python3
"""Time two trees' verdicts against each other in one process.

Loads each tree's ``src/nonassoc`` under a module name of its own, builds
each workload's tasks once per side from that tree's
``perfbench/workloads.py`` (imported with ``nonassoc`` standing for the
side's package), and times every task for ``--rounds`` rounds, the two
sides alternating per call: in round r, task t runs the parent first when
r + t is even.  Each call's verdict ``repr`` must be equal on both sides.
Prints, per label, each side's median microseconds per call (over rounds
and over the label's tasks) and their ratio, change over parent; and per
workload, the median of the label ratios, the ratio of the summed medians
(a pass) and the number of labels the change won:

    python3 scripts/ab.py PARENT_TREE CHANGE_TREE [--rounds N] [--seed S] [--workload W ...]

Both trees need ``src/nonassoc`` and ``perfbench/workloads.py``; nothing is
written.  A task's first call on each side is timed too: a verdict that
caches what it builds pays for the build in one round only.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_package(tree: Path, name: str):
    """The tree's ``src/nonassoc``, imported as the package ``name``."""
    src = tree / "src" / "nonassoc"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree: Path, package, name: str):
    """The tree's ``perfbench/workloads.py`` as the module ``name``, its
    ``nonassoc`` imports bound to ``package`` and its submodules."""
    prefix = package.__name__
    aliases = {"nonassoc" + key[len(prefix):]: module for key, module in sys.modules.items()
               if key == prefix or key.startswith(prefix + ".")}
    saved = {key: sys.modules.pop(key) for key in list(sys.modules)
             if key == "nonassoc" or key.startswith("nonassoc.")}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        for key in aliases:
            del sys.modules[key]
        sys.modules.update(saved)
    return module


def time_workload(tasks: dict, rounds: int) -> dict:
    """Per side and label, the nanoseconds of each call; raises when two calls' verdicts differ."""
    times = {side: {} for side in SIDES}
    count = len(tasks["parent"])
    for r in range(rounds):
        for t in range(count):
            order = SIDES if (r + t) % 2 == 0 else SIDES[::-1]
            got = {}
            for side in order:
                task = tasks[side][t]
                start = time.perf_counter_ns()
                got[side] = task.run()
                times[side].setdefault(task.label, []).append(time.perf_counter_ns() - start)
            if repr(got["parent"]) != repr(got["change"]):
                raise SystemExit(f"{tasks['parent'][t].label}: the verdicts differ\n"
                                 f"parent {got['parent']!r}\nchange {got['change']!r}")
    return times


def report(workload: str, times: dict) -> None:
    print(f"{workload}:")
    print(f"  {'label':48} {'parent us':>11} {'change us':>11} {'ratio':>7}")
    ratios, totals, won = [], {side: 0.0 for side in SIDES}, 0
    for label in times["parent"]:
        medians = {side: statistics.median(times[side][label]) / 1e3 for side in SIDES}
        ratio = medians["change"] / medians["parent"]
        ratios.append(ratio)
        won += ratio < 1
        for side in SIDES:
            totals[side] += medians[side]
        print(f"  {label[:48]:48} {medians['parent']:11.1f} {medians['change']:11.1f} {ratio:7.3f}")
    print(f"  median label ratio {statistics.median(ratios):.3f}; pass ratio "
          f"{totals['change'] / totals['parent']:.3f} ({totals['parent'] / 1e3:.2f} -> "
          f"{totals['change'] / 1e3:.2f} ms); the change won {won} of {len(ratios)} labels")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_TREE")
    ap.add_argument("change", type=Path, metavar="CHANGE_TREE")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="a workload to time (default: all)")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = {side: load_workloads(tree, load_package(tree, f"nonassoc_{side}"),
                                      f"workloads_{side}")
                 for side, tree in trees.items()}
    names = args.workload or list(workloads["change"].WORKLOADS)
    for name in names:
        tasks = {side: workloads[side].WORKLOADS[name](args.seed) for side in SIDES}
        report(name, time_workload(tasks, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark two checkouts against each other in alternating pairs.

Runs ``python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0``
ten times in each tree for every workload of ``BENCHMARK.json`` (read from
CHANGE_TREE), S being its ``run_seconds``.  Pair i runs the parent first when
i is odd and the change first when i is even, and every run starts in a
fresh copy of its tree.  The record holds every run and, per workload and
end-to-end metric, the parent's median and interquartile range, the
change's median and the number of pairs the change won (a tie wins for
neither side):

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_x.json

Both trees need ``perfbench/run.py``; nothing is imported from it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1
PAIRS = 10
COMMAND = "python3 perfbench/run.py --workload W --seed {seed} --seconds {seconds} --trace 0"


def describe(tree: Path) -> str:
    """The tree's last commit as 'hash (subject)', or its directory name."""
    out = subprocess.run(
        ["git", "-C", str(tree), "log", "-1", "--format=%h (%s)"],
        capture_output=True, text=True,
    )
    return out.stdout.strip() if out.returncode == 0 and (tree / ".git").exists() else tree.name


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One benchmark run in a fresh copy of ``tree``: its counts and metric values."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {"attempted": result["attempted"], "failed": result["failed"]}
    out.update({name: m["value"] for name, m in result["metrics"].items()})
    return out


def summarize(workload: str, pairs: list, metrics: list) -> dict:
    out = {"workload": workload, "seed": SEED, "pairs": len(pairs)}
    for m in metrics:
        parent = [p["parent"][m["name"]] for p in pairs]
        change = [p["change"][m["name"]] for p in pairs]
        sign = 1 if m["better"] == "higher" else -1
        q1, _, q3 = statistics.quantiles(parent, n=4)
        out[m["name"]] = {
            "parent_median": round(statistics.median(parent), 4),
            "parent_iqr": round(q3 - q1, 4),
            "change_median": round(statistics.median(change), 4),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    out["failed"] = [sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_TREE")
    ap.add_argument("change", type=Path, metavar="CHANGE_TREE")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "what": "perfbench/run.py end-to-end metrics, parent tree vs change tree, in alternating pairs",
        "command": COMMAND.format(seed=SEED, seconds=seconds),
        "parent": describe(trees["parent"]),
        "change": describe(trees["change"]),
        "machine": f"{os.cpu_count()}-core {platform.machine()}, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "pairing": "pair i runs the parent first when i is odd, the change first when i is "
                   "even; each run in a fresh copy of its tree; all pairs of one workload "
                   "before the next",
        "runs": [],
        "summary": [],
    }
    for w in bench["workloads"]:
        pairs = []
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"pair": i}
            for side in order:
                pair[side] = run_once(trees[side], w["name"], seconds)
            pairs.append(pair)
            print(w["name"], i, {s: pair[s]["verdicts_per_s"] for s in order}, flush=True)
        record["runs"].append({"workload": w["name"], "seed": SEED, "pairs": pairs})
        record["summary"].append(summarize(w["name"], pairs, bench["end_to_end"]))
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

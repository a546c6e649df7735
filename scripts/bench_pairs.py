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

The record also holds ``suites``: the full identity suite on algebras larger
than any workload's (M6 to M10, ``hadamard_algebra(n, n)`` for n = 5 to 8,
and a null algebra of dim 10^4), run after the workloads for three rounds,
the side that goes first alternating.  Each entry runs alone in a child
process with the tree's ``src`` on its path, a 2 GiB address-space limit
and a 120 s timeout.  The child builds a fresh algebra and runs the suite
again until it has spent 1 s of CPU, so short entries are timed more than
once.  It records the least CPU seconds of building the algebra and of the
suite over those repeats, their number, the peak RSS over them (each repeat
drops the last one's algebra first, so it is one run's peak) and a digest of
the verdicts' ``repr``s, or "timeout", "MemoryError" or "digests differ" when
two repeats disagree.  A MemoryError after some repeats keeps their entry,
marked ``"then": "MemoryError"``.  The entries also hold ``commutator(M6)``.

And the record holds ``rss``: peak RSS after ``RSS_PASSES`` passes of each
workload's tasks, per side, for three rounds, the side that goes first
alternating.  Each run is a child process with the tree's ``src`` and
``perfbench`` on its path that builds ``workloads.WORKLOADS[w](1)``, notes
its RSS after set-up, runs every task ``RSS_PASSES`` times, keeping no
result, and notes ``ru_maxrss``.  The same pass count on both sides
separates what the program keeps from ``perfbench/run.py``'s own
per-verdict samples, which grow with the number of passes a run fits in
its time.

Per-label latencies are timed in one process, the sides alternating per
call, by ``scripts/ab.py``, which resolves shifts that cross-process runs
cannot.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1
PAIRS = 10
COMMAND = "python3 perfbench/run.py --workload W --seed {seed} --seconds {seconds} --trace 0"
ROUNDS = 3
SUITE_LIMIT_BYTES = 2 << 30
SUITE_TIMEOUT_S = 120
SUITE_REPEAT_CPU_S = 1.0
SUITES = {f"M{n}": f"matrix_algebra({n})" for n in range(6, 11)}
SUITES.update({f"H{n}": f"hadamard_algebra({n}, {n})" for n in range(5, 9)})
SUITES["commutator(M6)"] = 'derive(matrix_algebra(6), None, construction("commutator"))'
SUITES["null10000"] = "make_algebra(10**4, [])"
# Runs in a child: argv[1] is an entry of SUITES, argv[2] the CPU seconds to
# repeat it for; prints one JSON line.
SUITE_CHILD = """
import hashlib, json, resource, sys, time
from nonassoc.algebra import make_algebra, matrix_algebra
from nonassoc.constructions import construction, derive, hadamard_algebra
from nonassoc.identities import IDENTITY_NAMES, check_identity
builds, suites, digests, ended = [], [], set(), None
while sum(builds) + sum(suites) < float(sys.argv[2]) or not suites:
    start = time.process_time()
    try:
        a = eval(sys.argv[1])
        built = time.process_time()
        verdicts = [check_identity(a, name) for name in IDENTITY_NAMES]
    except MemoryError:
        ended = "MemoryError"
        break
    suites.append(time.process_time() - built)
    builds.append(built - start)
    passed = sum(v.passed for v in verdicts)
    digests.add(hashlib.sha256("\\n".join(map(repr, verdicts)).encode()).hexdigest()[:16])
    del a, verdicts  # so the next build does not sit beside this algebra
if not suites or len(digests) > 1:
    print(json.dumps("digests differ" if len(digests) > 1 else ended))
else:
    print(json.dumps({
        "build_s": round(min(builds), 3),
        "suite_s": round(min(suites), 3),
        "repeats": len(suites),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "passed": passed,
        "digest": digests.pop(),
        **({"then": ended} if ended else {}),
    }))
"""

RSS_PASSES = 20
# Runs in a child: argv[1] is a workload, argv[2] the pass count; prints one
# JSON line.  Each result is judged and dropped at once, so nothing piles up.
RSS_CHILD = """
import json, resource, sys
from workloads import WORKLOADS
tasks = WORKLOADS[sys.argv[1]](1)
setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
wrong = 0
for _ in range(int(sys.argv[2])):
    for task in tasks:
        wrong += not task.check(task.run())
print(json.dumps({
    "setup_rss_mib": round(setup / 1024, 2),
    "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    "verdicts": len(tasks) * int(sys.argv[2]),
    "wrong": wrong,
}))
"""

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


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (SUITE_LIMIT_BYTES, SUITE_LIMIT_BYTES))


def run_suite(tree: Path, expr: str):
    """The identity suite on ``expr``'s algebra in a child process: its entry."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SUITE_CHILD, expr, str(SUITE_REPEAT_CPU_S)], env=env,
            capture_output=True, text=True,
            timeout=SUITE_TIMEOUT_S, preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode != 0:
        return "MemoryError" if "MemoryError" in proc.stderr else f"exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_suites(trees: dict) -> dict:
    """``ROUNDS`` alternating rounds of every entry of ``SUITES`` on both sides."""
    runs: dict = {"parent": [], "change": []}
    for r in range(1, ROUNDS + 1):
        for side in ("parent", "change") if r % 2 else ("change", "parent"):
            runs[side].append({label: run_suite(trees[side], expr) for label, expr in SUITES.items()})
            print("suites", r, side, {k: v if isinstance(v, str) else v["suite_s"]
                                      for k, v in runs[side][-1].items()}, flush=True)
    return {
        "what": "least CPU seconds, over repeats in one child until "
                f"{SUITE_REPEAT_CPU_S} s of CPU is spent, of building each algebra afresh and "
                "of check_identity over every catalog identity on it; the repeats, peak RSS "
                "(one run's: each repeat drops the last algebra first) and a digest of the "
                "verdicts, per side and round",
        "algebras": SUITES,
        "limits": {"address_space_bytes": SUITE_LIMIT_BYTES, "timeout_s": SUITE_TIMEOUT_S},
        "pairing": f"{ROUNDS} rounds; round i runs the parent first when i is odd; one child "
                   "process per entry, one at a time",
        "runs": runs,
        "summary": summarize_suites(runs),
    }


def run_rss_child(tree: Path, workload: str) -> dict:
    """``RSS_CHILD``'s JSON line for ``workload`` in a child process with the
    tree's ``src`` and ``perfbench`` on its path."""
    path = os.pathsep.join(str(tree / d) for d in ("src", "perfbench"))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, workload, str(RSS_PASSES)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rss_rounds(trees: dict, workloads: list) -> dict:
    """Peak RSS after ``RSS_PASSES`` passes of every workload, per side and round."""
    runs: dict = {"parent": [], "change": []}
    for r in range(1, ROUNDS + 1):
        for side in ("parent", "change") if r % 2 else ("change", "parent"):
            runs[side].append({w: run_rss_child(trees[side], w) for w in workloads})
            print("rss", r, side, {w: e["peak_rss_mib"] for w, e in runs[side][-1].items()},
                  flush=True)
    summary = {
        w: {side: {key: statistics.median(run[w][key] for run in side_runs)
                   for key in ("setup_rss_mib", "peak_rss_mib")}
            for side, side_runs in runs.items()}
        for w in workloads
    }
    return {
        "what": f"peak RSS (ru_maxrss) after set-up and after {RSS_PASSES} passes of every "
                "task of workloads.WORKLOADS[w](1), each result judged and dropped, per side "
                "and round; the summary holds the medians over rounds",
        "passes": RSS_PASSES,
        "pairing": f"{ROUNDS} rounds; round i runs the parent first when i is odd; one child "
                   "process per workload, one at a time",
        "runs": runs,
        "summary": summary,
    }


def summarize_suites(runs: dict) -> dict:
    """Per entry and side: the median and range of the suite's CPU seconds and
    the median peak RSS over the finished rounds, the ways the others ended,
    and whether every finished round of both sides gave one verdict digest."""
    summary = {}
    for label in runs["parent"][0]:
        out: dict = {}
        digests = set()
        for side, side_runs in runs.items():
            got = [run[label] for run in side_runs]
            done = [e for e in got if isinstance(e, dict)]
            times = [e["suite_s"] for e in done]
            digests.update(e["digest"] for e in done)
            out[side] = {
                "suite_s_median": statistics.median(times) if done else None,
                "suite_s_range": [min(times), max(times)] if done else None,
                "peak_rss_mib_median":
                    statistics.median(e["peak_rss_mib"] for e in done) if done else None,
                "unfinished": sorted({e for e in got if isinstance(e, str)}),
            }
        out["digests_match"] = len(digests) <= 1
        summary[label] = out
    return summary


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
    names = [w["name"] for w in bench["workloads"]]
    record["rss"] = run_rss_rounds(trees, names)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["suites"] = run_suites(trees)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

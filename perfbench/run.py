#!/usr/bin/env python3
"""Closed-loop benchmark of exact verdicts, run from the root of a checkout.

    python3 perfbench/run.py --workload identity-sparse --seed 1 --seconds 10 --trace 0

One process and one thread; each verdict starts when the previous one
returns.  A run repeats whole passes over the workload's verdicts until
``--seconds`` have passed and at least MIN_PASSES passes are done.  Every
verdict is judged against its known answer, and failing witnesses are
replayed, after each pass and outside the timed region.  The last line of
stdout is one JSON object.

Times are the process's CPU time, which is its wall time on an idle
machine because no verdict waits on anything, scaled by reference bursts
(see ``Speed``).  A verdict's latency is the median over its repeats.

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median
over fresh interpreters, from start to inputs built.  ``--trace 1`` records
spans around the package's public functions during one set-up and during
whole passes that alternate with untraced ones, and reports per-layer
metrics plus the tracing overhead; the spans go to ``perfbench/out/``.

Exit status: 0 when every verdict is right, 1 when any is wrong or raised,
2 when the package or the workload cannot be set up.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
MIN_PASSES = 4
SETUP_PROBES = 5
# The speed of a shared machine drifts by tens of percent within a minute,
# for the program and for a fixed reference burst alike.  Every timed
# verdict is scaled to the speed at which the burst takes REF_NOMINAL_S of
# CPU, using bursts timed around it.
REF_NOMINAL_S = 0.01
REF_EVERY_S = 0.2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    """Import ``nonassoc`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "nonassoc" / "__init__.py").is_file():
        raise ImportError(f"no nonassoc package under {src}")
    sys.path.insert(0, str(src))
    import nonassoc

    if Path(nonassoc.__file__).resolve().parent != (src / "nonassoc").resolve():
        raise ImportError(f"nonassoc was imported from {nonassoc.__file__}, not {src}")


def _burst() -> float:
    """CPU seconds of a fixed mix of dict, tuple, int and Fraction work."""
    start = time.process_time()
    acc, f = {}, Fraction(1, 3)
    for i in range(6000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 7
        if i % 8 == 0:
            f = f * Fraction(i % 5 + 1, 7) + 1
    return time.process_time() - start


class Speed:
    """Reference bursts timed through a run, at most REF_EVERY_S CPU apart."""

    def __init__(self):
        self.bursts: list[float] = []
        self._due = 0.0

    def sample(self) -> int:
        """Time a burst if one is due; returns the index of the latest burst."""
        if time.process_time() >= self._due:
            self.bursts.append(_burst())
            self._due = time.process_time() + REF_EVERY_S
        return len(self.bursts) - 1

    def scale(self, k: int) -> float:
        """Factor from CPU seconds after burst ``k`` to reference seconds.

        Uses the median of the six bursts around ``k``, about a second of
        run time, since single bursts vary by about 10%.
        """
        return REF_NOMINAL_S / statistics.median(self.bursts[max(0, k - 2):k + 4])


def run_pass(tasks, tracer=None, speed=None) -> list:
    """Run every task once.

    Returns (task, result or exception, CPU seconds, index of the latest
    reference burst) tuples.
    """
    out = []
    for task in tasks:
        if tracer is not None:
            tracer.verdict += 1
        k = speed.sample() if speed is not None else -1
        start = time.process_time()
        try:
            result = task.run()
        except Exception as exc:  # a raised verdict is a failed verdict
            result = exc
        out.append((task, result, time.process_time() - start, k))
    return out


def judge(results) -> list[str]:
    """Labels of the verdicts that raised or disagree with their known answer."""
    wrong = []
    for task, result, *_ in results:
        if isinstance(result, Exception):
            wrong.append(f"{task.label}: raised {result!r}")
            continue
        try:
            ok = task.check(result)
        except Exception as exc:
            wrong.append(f"{task.label}: check raised {exc!r}")
            continue
        if not ok:
            wrong.append(f"{task.label}: wrong verdict")
    return wrong


def _setup_seconds(args) -> float:
    """Median CPU time of a fresh interpreter from its start to its inputs built,
    in reference seconds."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(tasks, seconds: float):
    """Whole passes until ``seconds`` have passed and MIN_PASSES are done."""
    samples, wrong, passes = [], [], 0
    speed = Speed()
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        batch = run_pass(tasks, speed=speed)
        speed.sample()
        wrong += judge(batch)
        # Keep no results, so that peak RSS does not grow with the pass count.
        samples += [(task.label, cpu, k) for task, _, cpu, k in batch]
        passes += 1
    # Each verdict's latency is the median of its scaled CPU times over the
    # passes (and trial seeds): single samples vary by about 20% here, and the
    # fixed mix of cheap and costly verdicts puts p50 and p90 on the edge
    # between two verdicts, where an extreme sample would otherwise decide them.
    by_task: dict[str, list[float]] = {}
    for label, cpu, k in samples:
        by_task.setdefault(label, []).append(cpu * speed.scale(k))
    times = [statistics.median(v) for v in by_task.values()]
    metrics = {
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "verdict_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
    }
    return metrics, len(samples), wrong, passes


def measure_traced(args, tracer, build):
    """One traced set-up, one untraced warm-up pass, then alternating pairs."""
    from spans import check_layer_map, summarize

    tracer.install()
    try:
        tasks = build(args.seed)
    finally:
        tracer.uninstall()
    setup = (0, tracer.mark())
    warm = run_pass(tasks)
    wrong = judge(warm)
    attempted = len(warm)
    traced_ranges, batches = [], []
    speed = Speed()
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < args.seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            lo = tracer.mark()
            if traced:
                tracer.install()
            try:
                batch = run_pass(tasks, tracer if traced else None, speed)
            finally:
                tracer.uninstall()
            speed.sample()
            if traced:
                traced_ranges.append((lo, tracer.mark()))
            batches.append((traced, [(cpu, k) for _, _, cpu, k in batch]))
            wrong += judge(batch)
            attempted += len(batch)
        pair += 1
    busy = {True: 0.0, False: 0.0}
    for traced, batch in batches:
        busy[traced] += sum(cpu * speed.scale(k) for cpu, k in batch)
    metrics = summarize(tracer, setup, traced_ranges, busy[True] / busy[False] - 1)
    check_layer_map(args.workload, metrics)
    tracer.write(ROOT / "perfbench" / "out" / f"trace-{args.workload}.json")
    return metrics, attempted, wrong, pair


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_package()
        from workloads import WORKLOADS
        from spans import Tracer

        build = WORKLOADS[args.workload]
    except (ImportError, KeyError) as exc:
        print(f"perfbench: cannot set up: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        build(args.seed)
        cpu = time.process_time()
        print(cpu * REF_NOMINAL_S / statistics.median(_burst() for _ in range(5)))
        return 0

    try:
        if args.trace:
            metrics, attempted, wrong, rounds = measure_traced(args, Tracer(), build)
        else:
            setup_s = _setup_seconds(args)
            metrics, attempted, wrong, rounds = measure(build(args.seed), args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mib"] = (_peak_rss_mib(), "MiB")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # TraceError included
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for line in wrong[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    failed = len(wrong)
    summary = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items() if "." not in k)
    print(f"{args.workload} seed {args.seed}: {attempted} verdicts in {rounds} "
          f"{'pairs' if args.trace else 'passes'}, failed_frac {failed / attempted:.6g}; {summary}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every workload once and print its end-to-end metrics with units.

    python3 perfbench/report.py

Each workload runs in its own ``run.py`` process, for the ``run_seconds`` of
``BENCHMARK.json`` and with ``run.py``'s default seed.  Exits non-zero when
any workload fails or returns a wrong verdict.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        print(f"{workload} ({result['attempted']} verdicts)")
        for name, m in result["metrics"].items():
            print(f"  {name:16s} {m['value']:12.4f} {m['unit']}")
        print(f"  {'failed_frac':16s} {result['failed'] / result['attempted']:12.4f} ratio")
    return status


if __name__ == "__main__":
    sys.exit(main())

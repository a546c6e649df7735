#!/usr/bin/env python3
"""Re-derive every catalog example and print the full verdict table.

Runs, for each of the 13 fixtures: every expected-verdict row, the
documented negative control, and (where declared) the parametric grid
certification.  Everything is exact; a nonzero exit means some row did not
reproduce.  Stdout is the same on every run; the elapsed time goes to
stderr.

    python3 scripts/reproduce_examples.py
"""
from __future__ import annotations

import sys
import time

from nonassoc.fixtures import (
    certify_row,
    check_negative_control,
    list_fixtures,
    load_fixture,
    verify_fixture,
)


def main() -> int:
    t0 = time.monotonic()
    ok = True
    total_rows = 0
    for name in list_fixtures():
        bundle = load_fixture(name)
        report = verify_fixture(name)
        total_rows += len(report.rows)
        print(f"== {name}: {bundle.description}")
        for note in bundle.notes:
            print(f"   note: {note}")
        for r in report.rows:
            mark = "ok" if r.matched else "MISMATCH"
            print(f"   {r.check:55s} expect {'pass' if r.expected else 'fail':4s} "
                  f"actual {'pass' if r.verdict.passed else 'fail':4s}  {mark}")
            ok = ok and r.matched

        control = check_negative_control(name)
        flipped = "flips" if control.flipped else "DOES NOT FLIP"
        print(f"   negative control: {control.perturb} on {control.target}: {flipped}")
        ok = ok and control.flipped

        for label in bundle.certified_rows:
            v = certify_row(name, label)
            status = "certified" if v.passed else f"FAILED at {v.failing_point}"
            print(f"   grid({v.points_checked:4d} points) {label:48s} {status}")
            ok = ok and v.passed
        print()

    print(f"{'ALL EXAMPLES REPRODUCED' if ok else 'MISMATCHES PRESENT'} ({total_rows} rows)")
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``reference.csv`` from the engine under ``src``.

The file records the seed engine's default-seed rows; regenerate it only
when a change is meant to move the numbers, and say so where the change is
described.

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import math

from circletransport import harness

import checks
import workloads


def main() -> None:
    seed = workloads.DEFAULT_SEED
    rows = {}
    for kwargs in workloads.sweep_configs():
        for r in harness.run_sweep(harness.SweepConfig(**kwargs)):
            rows[(r.base, r.N)] = checks.values(r)
    for workload in workloads.BIG_ROWS:
        b, n, metrics = workloads.big_row(workload, seed)
        r = harness.compute_metrics(b, n, metrics)
        rows[(b, n)] = checks.values(r) if "circle" in metrics else (r.d_line, math.nan, math.nan)
    for b, n in workloads.small_rows(seed):
        rows[(b, n)] = checks.values(harness.compute_metrics(b, n))
    checks.write_reference(rows)
    print(f"wrote {len(rows)} rows to {checks.REFERENCE}")


if __name__ == "__main__":
    main()

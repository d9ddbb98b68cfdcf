"""One run of one workload in a fresh interpreter; ``run.py`` starts it.

Warms up with one tiny row, then repeats passes of the workload until
``--seconds`` have gone.  After row-1e6 it runs the ``verify`` sweep once,
untimed.  It checks every row outside the timed section and prints one JSON
object as its last line of output.  With ``--traced`` the passes and the
sweep run under a ``Tracer`` and the spans are written to ``--trace-out``.

    PYTHONPATH=src python3 perfbench/worker.py --workload small-rows --seed 0 --seconds 10
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import time

import numpy as np
from circletransport import harness

import calibrate
import checks
import tracing
import workloads

# Rows of the per-row layer table from the verify sweep, to set beside the
# ROADMAP Baseline table.
TABLE_KEYS = {(b, 10 ** k) for b in (10, 2) for k in (4, 5, 6)}
# Per-layer figures that come from the one traced verify sweep.
SWEEP_LAYERS = ("harness.run_sweep.parallel_eff", "harness.verify.self_s")


def timed_pass(workload, parts, p, tracer, kernel_s):
    """Run one pass chunk by chunk, calibrating between chunks if the
    workload is calibrated.

    Returns the kernel time after the last chunk, which is the one before
    the next pass.  The kernel runs outside the tracer and the timed spans.
    """
    for part in parts:
        first = len(p.rows)
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            workloads.run_rows(harness, part, p)
            raw = time.perf_counter() - start
        factor = 1.0
        if kernel_s is not None:
            after = calibrate.kernel_seconds()
            factor = calibrate.REFERENCE_S / (0.5 * (kernel_s + after))
            p.rows[first:] = [(*r[:4], r[4] * factor, r[5]) for r in p.rows[first:]]
            kernel_s = after
        p.raw_s += raw
        p.wall_s += raw * factor
    return kernel_s


def timed_passes(workload, calls, seconds, traced, recorder, log):
    """Passes until ``seconds`` have gone (at least one); tracers if traced.

    Each pass goes into ``log`` as soon as it ends, and its rows are dropped.
    """
    parts = workloads.chunks(workload, calls)
    passes, tracers = [], []
    calibrated = workload in workloads.CALIBRATED
    with calibrate.one_cpu() if calibrated else contextlib.nullcontext():
        kernel_s = calibrate.kernel_seconds() if calibrated else None
        began = time.perf_counter()
        while not passes or time.perf_counter() - began < seconds:
            p = workloads.Pass()
            recorder.target = p
            tracer = tracing.Tracer() if traced else None
            kernel_s = timed_pass(workload, parts, p, tracer, kernel_s)
            log.add_pass(p, len(calls))
            p.rows = []
            passes.append(p)
            tracers.append(tracer)
    return passes, tracers


def verify_sweep(configs, traced, recorder, log):
    """The ``verify`` sweep, once and untimed; its tracer if traced."""
    p = workloads.Pass()
    recorder.target = p
    tracer = tracing.Tracer() if traced else None
    with tracer.installed() if traced else contextlib.nullcontext():
        workloads.run_verify(harness, configs, p)
    log.add_pass(p, workloads.sweep_rows(harness, configs), timed=False)
    return tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--tiny", action="store_true", help="reduced sizes, for tests")
    args = ap.parse_args(argv)

    calls = workloads.inputs(args.workload, args.seed, args.tiny)
    harness.compute_metrics(10, 1000)  # the set-up row: lazy imports, first allocations
    log = checks.RowLog()
    recorder = tracing.RowRecorder()
    with recorder.installed():
        passes, tracers = timed_passes(args.workload, calls, args.seconds, args.traced,
                                       recorder, log)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sweep = None
        if args.workload in workloads.SWEEP_AFTER:
            sweep = verify_sweep(workloads.sweep_configs(args.tiny), args.traced, recorder, log)
    log.check_rows(checks.load_reference(), with_oracle=args.workload == "small-rows")

    result = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
        "attempted": log.attempted, "failed": log.failed, "problems": log.problems[:20],
        "peak_rss_kb": peak_rss_kb, "numpy": np.__version__,
        "passes": [{"wall_s": p.wall_s, "raw_s": p.raw_s} for p in passes],
        # every distinct row: inputs and exact values
        "values": [[b, n, list(m), *checks.bits(row)]
                   for (b, n, m), row in sorted(log.first.items())],
        # every distinct timed row that returned: inputs and median latency
        "rows": [[b, n, statistics.median(log.latency[(b, n, m)])]
                 for b, n, m in sorted(set(calls)) if (b, n, m) in log.first],
    }
    if args.traced:
        layers = tracing.median_summary([tracing.summarize(t.spans) for t in tracers])
        if sweep:
            swept = tracing.summarize(sweep.spans)
            for name in SWEEP_LAYERS:
                layers[name] = swept.get(name, 0.0)
            result["row_table"] = tracing.row_table(sweep.spans, TABLE_KEYS)
            tracers.append(sweep)
        result["layers"] = layers
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fields = ["pass", "id", "name", "start", "end", "parent", "row", "counts"]
                json.dump({"fields": fields,
                           "spans": [[i, sid, *span] for i, t in enumerate(tracers)
                                     for sid, span in sorted(t.spans.items())]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

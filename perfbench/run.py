"""Benchmark entry point: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload row-1e6 --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each workload runs in a fresh interpreter
(``worker.py``), one at a time, with the program imported from ``src``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import plus a
first tiny row, median of fresh interpreters), ``wall_s`` (median pass),
``row_p50_s`` and ``row_p99_s`` (percentiles over the distinct rows of each
row's median latency) and ``peak_rss_mb`` (the worker's own ``ru_maxrss``).

``--trace 1`` runs the workload untraced and then traced, each in its own
interpreter for half of ``--seconds``, checks that both return
bit-identical rows, and reports the per-layer metrics of ``BENCHMARK.json``.
Spans go to ``perfbench/out/``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the program's sources it exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 7
SETUP_ROW = "import circletransport; circletransport.compute_metrics(10, 1000)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's BLAS pool would add threads; the workloads use at most 2.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env) -> list[float]:
    """Calibrated wall time of fresh interpreters that import the package and
    run one row, all on one CPU (see ``calibrate``).

    One unmeasured probe first compiles the bytecode cache, which a user
    pays once per install, not once per run.  The CPU affinity is restored
    afterwards.
    """
    with calibrate.one_cpu():
        return [calibrated(env) for _ in range(SETUP_PROBES + 1)][1:]


def calibrated(env) -> float:
    before = calibrate.kernel_seconds()
    raw = setup_probe(env)
    factor = calibrate.REFERENCE_S / (0.5 * (before + calibrate.kernel_seconds()))
    return raw * factor


def setup_probe(env) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_ROW], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    # wait() with a timeout polls at up to 50 ms; block instead, with a
    # timer as the safety net
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, proc.args)
    return time.perf_counter() - start


def run_worker(env, args, traced: bool, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), *args.extra]
    if traced:
        cmd += ["--traced", "--trace-out",
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")]
    done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def row_percentiles(result) -> tuple[float, float]:
    """p50 and p99 over the distinct rows of each row's median latency over passes.

    Taking each row's median over passes first keeps the percentiles about
    the row mix rather than about which passes the machine slowed.
    """
    lat = [r[-1] for r in result["rows"]]
    if len(lat) < 2:
        return (lat or [float("nan")]) * 2
    q = statistics.quantiles(lat, n=100, method="inclusive")
    return q[49], q[98]


def wall(result) -> float:
    return statistics.median(p["wall_s"] for p in result["passes"])




def machine(result, workload: str) -> dict:
    """Where the figures come from.  Working-set bytes are computed."""
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            info["llc"] = fh.read().strip()
    except (OSError, StopIteration):
        pass
    info["numpy"] = result["numpy"]
    # pieces of nu_N's step CDF: N - floor(N/b); the difference profile adds at
    # most two.  Both hold bounds, coef and offset as float64.
    pieces = max((r[1] - r[1] // r[0] for r in result["rows"]), default=0)
    info["working_set_bytes_computed"] = 2 * 24 * (pieces + 2)
    info["workload"] = workload
    return info


def report_end_to_end(env, args) -> tuple[dict, dict]:
    setup = setup_seconds(env)
    res = run_worker(env, args, traced=False, seconds=args.seconds)
    p50, p99 = row_percentiles(res)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall(res), "s"),
        "row_p50_s": (p50, "s"),
        "row_p99_s": (p99, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    print(f"passes={len(res['passes'])} distinct rows={len(res['rows'])} "
          f"setup probes={len(setup)}")
    if args.workload in workloads.CALIBRATED:
        raw = statistics.median(p["raw_s"] for p in res["passes"])
        print(f"times are calibrated seconds; plain median pass time {raw:.6g} s")
    return res, metrics


def report_layers(env, args, names) -> tuple[dict, dict]:
    plain = run_worker(env, args, traced=False, seconds=args.seconds / 2)
    traced = run_worker(env, args, traced=True, seconds=args.seconds / 2)
    if plain["values"] != traced["values"]:
        traced["failed"] += 1
        traced["problems"].append("traced rows are not bit-identical to untraced rows")
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["problems"] += plain["problems"]
    layers = traced["layers"]
    layers["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit in names}
    if traced.get("row_table"):
        cols = ["pieces", "closed_form", "wrapped_exp", "delta_profile",
                "integral_abs", "median_offset", "self", "row"]
        print("per-row layers of the verify sweep (ms; rows ran 2 at a time):")
        print("base N       " + " ".join(f"{c:>13}" for c in cols))
        for r in traced["row_table"]:
            print(f"{r['base']:>4} {r['N']:<8}" + f"{r['pieces']:>13}"
                  + " ".join(f"{1e3 * r[c]:13.2f}" for c in cols[1:]))
    return traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="circletransport benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", dest="extra", action="store_const", const=("--tiny",),
                    default=(), help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "circletransport", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            res, metrics = report_layers(env, args, names)
        else:
            res, metrics = report_end_to_end(env, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(machine(res, args.workload)))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} rows and verify calls)")
    for msg in res["problems"]:
        print(f"FAILED CHECK {msg}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

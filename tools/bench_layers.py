"""Per-layer times and peak memory of metrics rows, written as one column of
a ``BENCH_*.json`` file.

    PYTHONPATH=src python tools/bench_layers.py --column NAME --out BENCH_11.json
    PYTHONPATH=src python tools/bench_layers.py --points 2:10000:line --repeats 1
    PYTHONPATH=src python tools/bench_layers.py --points 2:1e7:line --cpus one

Each point ``base:N:metrics`` (``metrics`` is ``line`` or ``both``) runs in
a fresh interpreter, or in ``SMALL_PROCESSES`` fresh interpreters one after
the other at N <= ``SMALL_N``: there one process's times spread by 30-50%
from one process to the next.  N is an integer literal, or a float form
such as 1e7 that is integral and below 2**53.  A process first computes one
row with ``compute_metrics`` and reads its peak RSS (``ru_maxrss``), so
``peak_rss_mb`` is that of one row plus the imports.  Then it computes
``--repeats`` rows with the names a row looks up wrapped, and times each
call, and as many rows unwrapped, which give ``row_s``.  A row's
first ``integral_abs`` is its line integral and its last is its circle
integral.  Last it computes one more row under ``tracemalloc``:
``traced_peak_mb`` is that row's peak of live bytes (MiB, as
``peak_rss_mb``) and ``traced_peak_layer`` the layer running at it, or
``compute_metrics`` between layers.  ``ru_maxrss`` also counts memory the
allocator holds freed, and glibc's moving mmap threshold shifts it by
several MB with no change in live bytes, so memory claims rest on the
traced peak.  Every time is the median of the repeats, in seconds; over
several processes, the median of their medians, ``peak_rss_mb`` and
``traced_peak_mb`` the medians of their peaks, and ``traced_peak_layer``
the layer most of them name.

``--cpus one`` pins each process to one of its CPUs before the first row;
``--cpus all`` (the default) leaves it on all of them.  Only an integral
over a million pieces or more uses a second CPU, through a forked worker
(see ``transport.integral_abs``).

The layers are the calls a row makes.  A ``both`` row builds the step CDF
(``closed_form_cdf``), the reference (``cdf_wrapped_exponential``) and the
difference profile (``delta_profile``), then takes ``integral_abs`` at
c = 0, ``median_offset`` and ``integral_abs`` at the offset.  A line-only
row streams its pieces span by span from the closed form
(``logseq._RowPieces``), so its point lists only
``cdf_wrapped_exponential`` and ``integral_abs_line``; the stream's writing
is timed inside the integral.

The column goes into ``--out`` under ``--column``; other columns already in
the file are kept, so two trees (say a parent commit and a change, each put
first on ``PYTHONPATH``) fill two columns of one file.  Each point is also
printed as one JSON line when it is done.  The program is imported from ``PYTHONPATH``, so
the script measures whichever tree that names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

DEFAULT_POINTS = ["2:100000:line", "2:1000000:line", "2:10000000:line",
                  "10:100000:both", "10:1000000:both"]
CHILD_TIMEOUT_S = 600
SMALL_N = 10 ** 5
SMALL_PROCESSES = 5


def measure_point(base: int, N: int, metrics: str, repeats: int) -> dict:
    """One point, measured in this process: call it in a fresh one."""
    from circletransport import harness

    which = ("line",) if metrics == "line" else ("line", "circle")
    harness.compute_metrics(base, N, which)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times: dict[str, list[float]] = {}

    def timed(label, fn, args):
        start = time.perf_counter()
        out = fn(*args)
        times.setdefault(label, []).append(time.perf_counter() - start)
        return out

    for _ in range(repeats):
        pieces = wrapped_row(base, N, which, timed)[0].piece_count
        start = time.perf_counter()
        harness.compute_metrics(base, N, which)
        times.setdefault("row", []).append(time.perf_counter() - start)
    traced_peak, traced_layer = traced_peak_of_row(base, N, which)
    return {"base": base, "N": N, "metrics": list(which), "pieces": pieces,
            "peak_rss_mb": round(peak_rss_mb, 1),
            "traced_peak_mb": round(traced_peak / 2 ** 20, 1),
            "traced_peak_layer": traced_layer,
            "row_s": statistics.median(times.pop("row")),
            "layers_s": {name: statistics.median(v) for name, v in times.items()}}


def wrapped_row(base: int, N: int, which: tuple, call) -> list:
    """One row with each name it looks up wrapped; returns the covers it integrated.

    Each call of a layer is made as ``call(label, fn, args)``.  The label is
    the layer's name, except that a row's first ``integral_abs`` is its
    line integral (``integral_abs_line``) and a later one its circle
    integral (``integral_abs_circle``).  The names are restored after.
    """
    from circletransport import harness, transport

    targets = [(harness, "closed_form_cdf"), (harness, "cdf_wrapped_exponential"),
               (harness, "delta_profile"), (harness, "integral_abs"),
               (transport, "median_offset")]
    saved = [getattr(module, name) for module, name in targets]
    covers = []  # the covers a row integrates, first the line's

    def wrapper(name, fn):
        def wrapped(*args):
            label = name
            if name == "integral_abs":
                covers.append(args[0])
                label += "_line" if len(covers) == 1 else "_circle"
            return call(label, fn, args)
        return wrapped

    for (module, name), fn in zip(targets, saved):
        setattr(module, name, wrapper(name, fn))
    try:
        harness.compute_metrics(base, N, which)
    finally:
        for (module, name), fn in zip(targets, saved):
            setattr(module, name, fn)
    return covers


def traced_peak_of_row(base: int, N: int, which: tuple) -> tuple[int, str]:
    """The tracemalloc peak of one row in bytes, and the layer that set it.

    The peak is taken apart at every call of a layer: what happens between
    the calls is booked to ``compute_metrics``.  Unlike ``ru_maxrss`` it
    counts live bytes only, so it does not move with the allocator's
    thresholds or with memory freed but not yet returned to the system.
    """
    peaks: dict[str, int] = {}

    def book(label):
        peaks[label] = max(peaks.get(label, 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def traced(label, fn, args):
        book("compute_metrics")
        try:
            return fn(*args)
        finally:
            book(label)

    tracemalloc.start()
    try:
        wrapped_row(base, N, which, traced)
        book("compute_metrics")
    finally:
        tracemalloc.stop()
    layer = max(peaks, key=peaks.get)
    return peaks[layer], layer


def merge(runs: list[dict]) -> dict:
    """One point measured in several processes: medians of their figures."""
    def median(get):
        return statistics.median(get(run) for run in runs)

    point = dict(runs[0], processes=len(runs))
    point["peak_rss_mb"] = median(lambda run: run["peak_rss_mb"])
    point["traced_peak_mb"] = median(lambda run: run["traced_peak_mb"])
    point["traced_peak_layer"] = statistics.mode(run["traced_peak_layer"] for run in runs)
    point["row_s"] = median(lambda run: run["row_s"])
    point["layers_s"] = {name: median(lambda run: run["layers_s"][name])
                         for name in runs[0]["layers_s"]}
    return point


def parse_count(text: str) -> int:
    """An integer literal, or a float form such as 1e7 that is integral and below 2**53."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not (value.is_integer() and abs(value) < 2 ** 53):
        raise ValueError(text)
    return int(value)


def parse_point(text: str) -> tuple[int, int, str]:
    """``base:N:metrics``; N may be written as 1e6."""
    try:
        base, N, metrics = text.split(":")
        point = int(base), parse_count(N), metrics
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected base:N:line|both with an integer N, got {text!r}") from None
    if metrics not in ("line", "both"):
        raise argparse.ArgumentTypeError(f"metrics must be line or both, got {metrics!r}")
    return point


def child_env() -> dict:
    env = dict(os.environ)
    # numpy's BLAS pool would add threads that no layer uses
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine() -> dict:
    import numpy as np

    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", nargs="+", type=parse_point,
                        default=[parse_point(p) for p in DEFAULT_POINTS],
                        help=f"base:N:line|both, one fresh process each "
                             f"({SMALL_PROCESSES} at N <= {SMALL_N})")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--cpus", choices=("one", "all"), default="all",
                        help="run each process on one of its CPUs or on all of them")
    parser.add_argument("--column", default="this tree")
    parser.add_argument("--out", help="JSON file to add the column to")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.one:  # the child: one point, printed as JSON
        (point,) = args.points
        if args.cpus == "one":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps(measure_point(*point, args.repeats)))
        return 0

    results = []
    for point in args.points:
        text = ":".join(map(str, point))
        runs = []
        for _ in range(SMALL_PROCESSES if point[1] <= SMALL_N else 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", "--points", text,
                 "--repeats", str(args.repeats), "--cpus", args.cpus],
                env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"error: point {text} failed", file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout))
        results.append(merge(runs))
        print(json.dumps(results[-1]), flush=True)

    column = {"machine": machine(), "cpus": args.cpus, "repeats": args.repeats,
              "points": results}
    if args.out:
        data = {"about": "tools/bench_layers.py: per point, peak_rss_mb of one row in a "
                         "fresh process, the traced peak of one row and the layer that "
                         "set it, and medians in seconds of the layers and of a row",
                "columns": {}}
        if os.path.exists(args.out):
            with open(args.out) as f:
                data = json.load(f)
        data["columns"][args.column] = column
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

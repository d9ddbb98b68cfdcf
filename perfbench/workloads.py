"""Seeded inputs and one pass of each benchmark workload.

Every workload is closed-loop: one caller, and the next row starts only after
the previous one returned.  The program only sees the generated ``(base, N)``
inputs; the seed stays on this side.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0
WORKLOADS = ("row-1e6", "line-1e7", "small-rows")

BOTH = ("line", "circle")

# row-1e6 and line-1e7: one large row each.  row-1e6 is the ROADMAP
# Baseline row; it computes both metrics, so the median-offset search takes
# about 80% of it.  line-1e7 is line-only and bypasses that search.  Base 2
# keeps its 5M-piece row near 0.8 GB of peak RSS; base 10 at 10^7 needs
# 1.35 GB and varied more from run to run.
BIG_ROWS = {"row-1e6": (10, 10 ** 6, BOTH), "line-1e7": (2, 10 ** 7, ("line",))}
# Other seeds move the N of line-1e7 by less than 1%; its cost is smooth in
# N.  The seed does not move row-1e6: within 1% of 10^6 the offset search
# takes 11 to 18 level-function passes depending on N, so its time would
# follow the draw rather than the program.
SEEDED_BIG_ROWS = ("line-1e7",)
BIG_SHIFT = 0.0099

# The ``verify`` sweep, as the CLI runs it on a 2-core box: run once after
# the timed passes of row-1e6, as a check and, when traced, for the sweep's
# layer figures.  Its grid is the one ``verify`` defines, so no seed moves it.
SWEEP_BASES = (10, 2)
SWEEP_GRID = {"n_min": 1000, "n_max": 10 ** 6, "points_per_decade": 4}
SWEEP_THREADS = 2
SWEEP_AFTER = ("row-1e6",)

# small-rows: many rows small enough that per-call overhead dominates.
SMALL_BASES = (2, 3, 7, 10, 16)
SMALL_ROWS = 1000
SMALL_N_MAX = 2000

# small-rows is timed in chunks of this many rows (about 0.4 s); the other
# workloads one row at a time.
SMALL_CHUNK = 100

# Workloads whose times are scaled by the calibration kernel (see
# ``calibrate``).  Measured over runs of one seed each: on small-rows it cut
# the spread of the pass time from about 14% to 3%, on row-1e6 from about
# 20% to 10%.  On line-1e7 (memory-bound, 240 MB of piece arrays) it made
# the spread wider (11% to 15%), so line-1e7 reports plain seconds.
CALIBRATED = ("row-1e6", "small-rows")

# A reduced size of each workload, for the benchmark's own tests.  Base 2
# needs the full three decades before ``verify`` finds 3 rows of one phase.
TINY = {"big_n": 10 ** 5, "small_rows": 20, "sweep_bases": (10,), "sweep_n_max": 10 ** 5}


def sweep_configs(tiny: bool = False) -> list[dict]:
    """Keyword arguments of ``SweepConfig`` for the ``verify`` calls."""
    if tiny:
        grid, bases = dict(SWEEP_GRID, n_max=TINY["sweep_n_max"]), TINY["sweep_bases"]
    else:
        grid, bases = SWEEP_GRID, SWEEP_BASES
    return [dict(grid, base=b, threads=SWEEP_THREADS) for b in bases]


def big_row(workload: str, seed: int, tiny: bool = False) -> tuple[int, int, tuple]:
    """``(base, N, metrics)`` of a large-row workload; the default seed keeps N."""
    base, n, metrics = BIG_ROWS[workload]
    n = TINY["big_n"] if tiny else n
    if seed != DEFAULT_SEED and workload in SEEDED_BIG_ROWS:
        n = round(n * (1.0 + random.Random(seed).uniform(-BIG_SHIFT, BIG_SHIFT)))
    return base, n, metrics


def small_rows(seed: int, tiny: bool = False) -> list[tuple[int, int]]:
    """Seeded ``(base, N)`` pairs, N log-uniform in [base, SMALL_N_MAX].

    Each base gets an equal share of the rows, and N is drawn once in each
    of equal-width strata of log N.  Stratifying keeps the total cost of a
    pass nearly the same for every seed while the rows themselves change,
    so the seed-to-seed spread of ``wall_s`` measures the program, not the
    draw.  The tiny list is a prefix of the full one.
    """
    rng = random.Random(seed)
    per_base = SMALL_ROWS // len(SMALL_BASES)
    rows = []
    for b in SMALL_BASES:
        lo, hi = math.log(b), math.log(SMALL_N_MAX)
        for i in range(per_base):
            u = (i + rng.random()) / per_base
            rows.append((b, min(SMALL_N_MAX, max(b, round(math.exp(lo + u * (hi - lo)))))))
    rng.shuffle(rows)
    return rows[:TINY["small_rows"]] if tiny else rows


def inputs(workload: str, seed: int, tiny: bool = False) -> list:
    """The ``(base, N, metrics)`` rows of one pass."""
    if workload in BIG_ROWS:
        return [big_row(workload, seed, tiny)]
    if workload == "small-rows":
        return [(b, n, BOTH) for b, n in small_rows(seed, tiny)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def chunks(workload: str, calls: list) -> list[list]:
    """Split a pass into the chunks that are timed and calibrated one by one."""
    size = SMALL_CHUNK if workload == "small-rows" else 1
    return [calls[i:i + size] for i in range(0, len(calls), size)]


def sweep_rows(harness, configs: list) -> int:
    """Rows the ``verify`` calls attempt."""
    return sum(len(harness.decade_grid(c["n_min"], c["n_max"], c["points_per_decade"]))
               for c in configs)


class Pass:
    """What one pass produced: rows in completion order and verify exits.

    ``raw_s`` is the pass's wall time; ``wall_s`` is the same time scaled to
    the calibration kernel's reference speed chunk by chunk, and each row's
    latency is scaled by its chunk's factor (see ``calibrate``).
    """

    def __init__(self):
        self.rows = []          # (base, N, metrics, MetricsRow | None, latency_s, error)
        self.verify_exits = []  # exit code per verify call; None if it raised
        self.raw_s = 0.0
        self.wall_s = 0.0


def run_rows(harness, rows: list, out: Pass) -> None:
    """Compute rows; results reach ``out`` through the ``RowRecorder``.

    ``harness.compute_metrics`` is looked up on the module at call time, so
    a wrapper installed there sees every call.  An exception is kept as a
    failed row rather than ending the run, so it is counted in ``failed``.
    """
    for b, n, metrics in rows:
        try:
            harness.compute_metrics(b, n, metrics)
        except Exception as exc:
            out.rows.append((b, n, metrics, None, math.nan, repr(exc)))


def run_verify(harness, configs: list, out: Pass) -> None:
    """Run ``harness.verify`` per config; its rows reach ``out`` as above,
    including the rows it computes on its thread pool."""
    for kwargs in configs:
        try:
            out.verify_exits.append(harness.verify(harness.SweepConfig(**kwargs)).exit_code)
        except Exception as exc:
            out.verify_exits.append(None)
            out.rows.append((kwargs["base"], None, BOTH, None, math.nan, repr(exc)))

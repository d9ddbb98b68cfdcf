"""Sweep harness: exact distances on N-grids, CSV output, rate fits, checks.

All scaled statistics use the natural logarithm; the sharp line-rate limit
``1/(2 ln b)`` only comes out with that convention, so no base switch is
offered.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import transport
from .logseq import LogSequenceSpec, _positive_int, _RowPieces, closed_form_cdf, reference_rotation
from .measures import cdf_wrapped_exponential, delta_profile
from .transport import _cpus, integral_abs

__all__ = [
    "SweepConfig",
    "MetricsRow",
    "RateFit",
    "VerificationReport",
    "decade_grid",
    "compute_metrics",
    "run_sweep",
    "write_csv",
    "read_csv",
    "fit_rate",
    "verify",
    "line_rate_limit",
    "CIRCLE_SQRT_BOUND",
    "LINE_RATE_TOL",
    "CIRCLE_BOUND_SLACK",
    "LINEAR_FLOOR",
]

LINE_RATE_TOL = 0.02        # allowed gap between fit intercept and 1/(2 ln b)
CIRCLE_BOUND_SLACK = 1.5    # soft gate multiplier on the sqrt-scaled bound
LINEAR_FLOOR = 0.01         # frozen floor for min N * d_circle (base 10)

# limsup bound for N/sqrt(ln N) * d_circle in base 10
CIRCLE_SQRT_BOUND = math.sqrt(33.0 / (40.0 * math.log(10.0))) / math.log(10.0)

_METRICS = ("line", "circle")  # what compute_metrics can compute


def line_rate_limit(base: int) -> float:
    """Limit of N/ln N times the line distance: 1 / (2 ln b)."""
    return 1.0 / (2.0 * math.log(base))


@dataclass(frozen=True)
class SweepConfig:
    """Settings of ``sweep`` and ``verify``, whose grid is N = round(base^(k/p)) in [n_min, n_max].

    p = ``points_per_decade`` counts points per period of log_b N: a decade
    in base 10, an octave in base 2.  ``verify`` checks every trend along
    the phase classes k mod p.
    """

    base: int = 10
    n_min: int = 100
    n_max: int = 10 ** 6
    points_per_decade: int = 4
    out: str | None = None
    threads: int = field(default_factory=_cpus)

    def __post_init__(self):
        for name in ("n_min", "n_max", "points_per_decade", "threads"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        if not self.n_min <= self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        # the base, stored as an int, and the int64 envelope
        object.__setattr__(self, "base", LogSequenceSpec(self.base, self.n_max).base)
        if self.n_min < self.base:
            raise ValueError(f"n_min must be at least the base ({self.base})")


@dataclass(frozen=True)
class MetricsRow:
    base: int
    N: int
    n: int
    d_line: float
    d_circle: float
    offset_c: float
    scaled_line: float
    scaled_circle_sqrt: float
    scaled_circle_linear: float
    wall_time_seconds: float


# the CSV schema: MetricsRow's fields in order, each with its int or float type
_CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))
_CSV_TYPES = tuple(int if f.type == "int" else float for f in fields(MetricsRow))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of r(N) = intercept + slope / ln N."""

    intercept: float
    slope: float
    residual_max: float


def _grid(base: int, n_min: int, n_max: int, p: int) -> dict[int, int]:
    """``{N: k}`` for the grid points N = round(base^(k/p)) in [n_min, n_max], N ascending.

    k counts from 0 (N = 1), so k mod p is N's phase class (class 0 holds
    the powers of the base) and k // p its period; an N that several k
    round to keeps the least.
    """
    grid: dict[int, int] = {}
    k = 0
    while (N := round(base ** (k / p))) <= n_max:
        if N >= n_min:
            grid.setdefault(N, k)
        k += 1
    return grid


def decade_grid(n_min: int, n_max: int, points_per_decade: int) -> list[int]:
    """Rounded powers 10**(k/points_per_decade) clipped to [n_min, n_max]: the base-10 grid."""
    return list(_grid(10, n_min, n_max, points_per_decade))


def compute_metrics(base: int, N: int, metrics: tuple[str, ...] = _METRICS) -> MetricsRow:
    """One exact row: distances of nu_N from its rotated exponential reference.

    ``metrics`` is a non-empty subset of ``("line", "circle")``; a metric
    left out reads NaN in the row.
    """
    if not metrics or not set(metrics) <= set(_METRICS):
        raise ValueError(f"metrics must be a non-empty subset of {_METRICS}, got {metrics!r}")
    spec = LogSequenceSpec(base, N)  # the envelope; its base and N are ints
    base, N, n = spec.base, spec.count, spec.digits
    if base > N:
        raise ValueError(f"need N >= base, got N={N} base={base}")
    start = time.perf_counter()
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    # the offset search rereads the pieces, so a circle row holds them in a
    # profile (only the profile outlives this line, so F does not add to the
    # row's peak); a line row streams them, in span-sized memory
    cover = (delta_profile(closed_form_cdf(base, N), G) if "circle" in metrics
             else _RowPieces(spec, G))
    d_line = integral_abs(cover, 0.0) if "line" in metrics else math.nan
    d_circle = offset_c = math.nan
    if "circle" in metrics:
        offset_c = transport.median_offset(cover)  # the benchmark's tracer rebinds it there
        d_circle = integral_abs(cover, offset_c)
    elapsed = time.perf_counter() - start
    log_n = math.log(N)
    return MetricsRow(
        base=base, N=N, n=n,
        d_line=d_line, d_circle=d_circle, offset_c=offset_c,
        scaled_line=N * d_line / log_n,
        scaled_circle_sqrt=N * d_circle / math.sqrt(log_n),
        scaled_circle_linear=N * d_circle,
        wall_time_seconds=elapsed,
    )


def run_sweep(cfg: SweepConfig) -> list[MetricsRow]:
    """Compute the grid rows on ``cfg.threads`` threads and write the CSV.

    The CSV is created before any row runs, so a path that cannot be
    written raises ``OSError`` at once, not after the whole grid; a row
    that raises leaves the file empty.
    """
    grid = _grid(cfg.base, cfg.n_min, cfg.n_max, cfg.points_per_decade)
    if cfg.out is not None:
        open(cfg.out, "w").close()
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        rows = list(pool.map(lambda N: compute_metrics(cfg.base, N), grid))  # grid order
    if cfg.out is not None:
        write_csv(rows, cfg.out)
    return rows


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(rows: list[MetricsRow], path: str) -> None:
    """17 significant digits, LF endings, dot decimals; round-trips exactly."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(str(getattr(r, c)) if t is int else _fmt(getattr(r, c))
                              for c, t in zip(_CSV_COLUMNS, _CSV_TYPES)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[MetricsRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(_CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header in {path}")
    return [MetricsRow(*(t(v) for v, t in zip(line.split(","), _CSV_TYPES, strict=True)))
            for line in lines[1:]]


def fit_rate(rows: list[MetricsRow], column: str) -> RateFit:
    """Fit r = a + b/ln N by least squares over at least 3 distinct N."""
    if column not in ("scaled_line", "scaled_circle_sqrt"):
        raise ValueError(f"unsupported fit column {column!r}")
    pts = sorted({r.N: getattr(r, column) for r in rows}.items())
    if len(pts) < 3:
        raise ValueError(f"rate fit needs >= 3 rows with distinct N, got {len(pts)}")
    for N, v in pts:
        if not math.isfinite(v):  # a line-only row reads NaN in the circle columns
            raise ValueError(f"rate fit needs a finite {column} on every row, got {v} at N={N}")
    x = np.array([1.0 / math.log(N) for N, _ in pts])
    y = np.array([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(intercept + slope * x - y)))
    return RateFit(intercept=float(intercept), slope=float(slope), residual_max=resid)


def _classes(grid: dict[int, int], p: int) -> list[list[int]]:
    """The N of a ``_grid`` by phase class k mod p, class 0 first; no class is empty.

    The finite-N correction to the scaled line statistic is a function of
    N's phase, the fractional part of log_b N, so the a + b/ln N model only
    holds along a class; mixing phases biases the fitted intercept.
    """
    classes: dict[int, list[int]] = {}
    for N, k in grid.items():
        classes.setdefault(k % p, []).append(N)
    return [classes[j] for j in sorted(classes)]


def _non_increasing(vals: list[float]) -> bool:
    return all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def _falls_along(classes: list[list[MetricsRow]], value, what: str) -> tuple[bool, str]:
    """Whether ``value(row)`` is non-increasing along every class of two or more rows.

    The second item is the check's detail, naming the value ``what``.
    """
    trends = [[value(r) for r in cl] for cl in classes if len(cl) >= 2]
    rising = sum(not _non_increasing(t) for t in trends)
    return rising == 0, (f"{what} non-increasing along {len(trends)} phase classes"
                         + (f"; {rising} classes violate" if rising else ""))


@dataclass(frozen=True)
class VerificationReport:
    checks: list[tuple[str, str, str]]  # (status, name, detail)
    exit_code: int

    @property
    def passed(self) -> bool:
        return self.exit_code == 0

    @property
    def lines(self) -> list[str]:
        return [f"{status:4s} {name}: {detail}" for status, name, detail in self.checks]


def verify(cfg: SweepConfig) -> VerificationReport:
    """Run the convergence checks on a sweep and report PASS/WARN/FAIL/INFO.

    Exit codes: 0 all hard checks pass, 1 a hard check fails, 2 the grid is
    too small to be meaningful, which is decided from the grid before any
    row runs.
    """
    p = cfg.points_per_decade
    grid = _grid(cfg.base, cfg.n_min, cfg.n_max, p)
    classes = _classes({N: k for N, k in grid.items() if N >= 1000}, p)
    if all(len(cl) < 3 for cl in classes):
        reason = (f"no grid point N >= 1000 in [{cfg.n_min}, {cfg.n_max}]" if not classes else
                  "no constant-phase class has 3 rows "
                  "(widen [n_min, n_max] or raise points_per_decade)")
        return VerificationReport(checks=[("FAIL", "grid", f"insufficient range: {reason}")],
                                  exit_code=2)
    rows = run_sweep(cfg)
    by_n = {r.N: r for r in rows}
    classes = [[by_n[N] for N in cl] for cl in classes]
    gated = [r for r in rows if r.N >= 1000]
    checks: list[tuple[str, str, str]] = []
    limit = line_rate_limit(cfg.base)

    # Line sharp rate: fit a + b/ln N along constant-phase classes.
    fits = [fit_rate(cl, "scaled_line") for cl in classes if len(cl) >= 3]
    worst = max(abs(f.intercept - limit) for f in fits)
    detail = (f"target 1/(2 ln {cfg.base}) = {limit:.7f}, intercepts "
              + ", ".join(f"{f.intercept:.5f}" for f in fits)
              + f" over {len(fits)} phase classes, worst gap {worst:.5f} (tol {LINE_RATE_TOL})")
    checks.append(("PASS" if worst <= LINE_RATE_TOL else "FAIL", "line-sharp-rate", detail))

    # Deviation from the limit shrinks with N along every phase class.
    ok, detail = _falls_along(classes, lambda r: abs(r.scaled_line - limit),
                              f"|scaled_line - {limit:.5f}|")
    checks.append(("PASS" if ok else "FAIL", "line-rate-monotone", detail))

    # Circle upper bound (sqrt scaling); the constant is specific to base 10.
    big = [r for r in rows if r.N >= 10 ** 4]
    if cfg.base == 10 and big:
        mx = max(r.scaled_circle_sqrt for r in big)
        if mx <= CIRCLE_SQRT_BOUND:
            checks.append(("PASS", "circle-bound",
                           f"max N*d_circle/sqrt(ln N) = {mx:.6f} <= {CIRCLE_SQRT_BOUND:.6f}"))
        elif mx <= CIRCLE_BOUND_SLACK * CIRCLE_SQRT_BOUND:
            checks.append(("WARN", "circle-bound",
                           f"max {mx:.6f} within {CIRCLE_BOUND_SLACK}x slack of {CIRCLE_SQRT_BOUND:.6f}"))
        else:
            checks.append(("FAIL", "circle-bound",
                           f"max {mx:.6f} exceeds {CIRCLE_BOUND_SLACK} x {CIRCLE_SQRT_BOUND:.6f}"))
    else:
        mx = max((r.scaled_circle_sqrt for r in big), default=math.nan)
        checks.append(("INFO", "circle-bound",
                       f"sqrt-scaled max {mx:.6f} (hard bound applies to base 10 only)"))

    # Convergence no faster than 1/N.
    mn_linear = min(r.scaled_circle_linear for r in rows)
    if cfg.base == 10:
        checks.append(("PASS" if mn_linear >= LINEAR_FLOOR else "FAIL", "linear-floor",
                       f"min N*d_circle = {mn_linear:.6f} vs floor {LINEAR_FLOOR}"))
    else:
        checks.append(("INFO", "linear-floor",
                       f"min N*d_circle = {mn_linear:.6f} (frozen floor applies to base 10 only)"))

    # Circle distance beats line distance, and the gap widens along every phase class.
    dominated = all(r.d_circle < r.d_line for r in gated)
    ok, detail = _falls_along(classes, lambda r: r.d_circle / r.d_line, "d_circle/d_line")
    checks.append(("PASS" if dominated and ok else "FAIL", "circle-beats-line",
                   f"d_circle < d_line on all {len(gated)} rows: {dominated}; {detail}"))

    # Structural domination.
    structural = all(
        r.d_circle <= r.d_line + 1e-12 and r.d_circle <= 0.5 + 1e-12
        and r.d_circle >= 0.0 and r.d_line >= 0.0 for r in rows)
    checks.append(("PASS" if structural else "FAIL", "domination",
                   "0 <= d_circle <= min(d_line, 1/2) on every row"))

    lo = min(r.scaled_circle_sqrt for r in gated)
    hi = max(r.scaled_circle_sqrt for r in gated)
    checks.append(("INFO", "sqrt-scaled-spread",
                   f"N*d_circle/sqrt(ln N) in [{lo:.6f}, {hi:.6f}] over the grid "
                   "(bounded away from 0 and infinity is conjectural)"))

    failed = any(status == "FAIL" for status, _, _ in checks)
    return VerificationReport(checks=checks, exit_code=1 if failed else 0)

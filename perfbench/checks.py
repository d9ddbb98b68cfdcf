"""Output checks, run after the timed passes and counted in ``failed``.

- Reference: ``reference.csv`` holds ``d_line``, ``d_circle`` and ``offset_c``
  of every default-seed row, from the seed engine at 17 significant digits.
  A row whose ``(base, N)`` is listed must match to ``REL_TOL`` relative,
  which leaves room for the few-ulp drift a faster algorithm may bring.
  The sweep grid does not depend on the seed, so its rows are checked on
  every seed.
- Structure: ``0 <= d_circle <= min(d_line, 1/2)``; a line-only row has a
  finite, positive ``d_line``.
- small-rows only: ``closed_form_cdf`` equals the empirical step CDF of
  ``build_nu`` array for array, and a 64-point grid search over offsets
  (``oracle.grid_minimize_offset``) never beats ``d_circle`` by more than
  ``ORACLE_SLACK``.
- Every pass returns bit-identical values for the same row, and every
  ``verify`` call exits 0.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter, defaultdict

import numpy as np
from circletransport import oracle
from circletransport.logseq import build_nu, closed_form_cdf, reference_rotation
from circletransport.measures import cdf_of_empirical, cdf_wrapped_exponential, delta_profile

REL_TOL = 1e-12
ORACLE_GRID = 64
ORACLE_SLACK = 1e-15
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.csv")
FIELDS = ("d_line", "d_circle", "offset_c")


def load_reference(path: str = REFERENCE) -> dict:
    """``{(base, N): (d_line, d_circle, offset_c)}``; NaN where not recorded."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {(int(r["base"]), int(r["N"])): tuple(float(r[f]) for f in FIELDS)
                for r in csv.DictReader(fh)}


def write_reference(rows: dict, path: str = REFERENCE) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("base,N," + ",".join(FIELDS) + "\n")
        for (b, n), vals in sorted(rows.items()):
            fh.write(f"{b},{n}," + ",".join(f"{v:.17g}" for v in vals) + "\n")


def values(row) -> tuple[float, float, float]:
    return row.d_line, row.d_circle, row.offset_c


def bits(row) -> list[str]:
    """The row's values as exact hex strings (NaN included)."""
    return [v.hex() for v in values(row)]


def row_problems(base: int, N: int, metrics: tuple, vals, reference: dict) -> list[str]:
    """Reference and structural checks of one row's ``(d_line, d_circle, offset_c)``."""
    d_line, d_circle, _ = vals
    problems = []
    if "circle" in metrics:
        if not 0.0 <= d_circle <= min(d_line, 0.5):
            problems.append(f"d_circle={d_circle!r} outside [0, min(d_line={d_line!r}, 1/2)]")
    elif not (math.isfinite(d_line) and d_line > 0.0):
        problems.append(f"d_line={d_line!r} is not finite and positive")
    for name, got, ref in zip(FIELDS, vals, reference.get((base, N), ())):
        wanted = name == "d_line" or "circle" in metrics
        if wanted and not math.isnan(ref) and not abs(got - ref) <= REL_TOL * abs(ref):
            problems.append(f"{name}={got!r} differs from reference {ref!r}")
    return problems


def oracle_problems(base: int, N: int, d_circle: float) -> list[str]:
    """Independent constructions for a small row (cost grows with N)."""
    problems = []
    F = closed_form_cdf(base, N)
    E = cdf_of_empirical(build_nu(base, N))
    if not all(np.array_equal(getattr(F, a), getattr(E, a)) for a in ("bounds", "coef", "offset")):
        problems.append("closed_form_cdf differs from cdf_of_empirical(build_nu)")
    profile = delta_profile(F, cdf_wrapped_exponential(base, reference_rotation(base, N)))
    _, best = oracle.grid_minimize_offset(profile, ORACLE_GRID)
    if best < d_circle - ORACLE_SLACK:
        problems.append(f"grid search reaches {best!r} below d_circle={d_circle!r}")
    return problems


class RowLog:
    """What the passes of one run produced, kept small as the passes go.

    Holds the first result of each distinct row, how often the row ran and
    its latencies; a later result is only compared bit for bit with the
    first, so memory does not grow with the number of passes.
    """

    def __init__(self):
        self.first = {}                    # (base, N, metrics) -> MetricsRow
        self.count = Counter()
        self.latency = defaultdict(list)
        self.attempted = self.failed = 0
        self.problems = []

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)

    def add_pass(self, p, expected: int, timed: bool = True) -> None:
        """Count one pass: ``expected`` rows attempted, its rows and verify exits.

        Rows a raising ``verify`` never produced count as failed.  Only a
        timed pass adds latencies.
        """
        self.attempted += expected
        self.failed += max(0, expected - len(p.rows))
        for base, N, metrics, row, latency, error in p.rows:
            if error is not None:
                self._fail(f"base={base} N={N}: {error}")
                continue
            key = (base, N, metrics)
            self.count[key] += 1
            if timed:
                self.latency[key].append(latency)
            first = self.first.setdefault(key, row)
            if bits(first) != bits(row):
                self._fail(f"base={base} N={N}: differs from the same row in an earlier pass")
        for code in p.verify_exits:
            if code != 0:
                self._fail(f"verify exited {code}")

    def check_rows(self, reference: dict, with_oracle: bool) -> None:
        """Check each distinct row once; a bad row fails every time it ran."""
        for (base, N, metrics), row in self.first.items():
            found = row_problems(base, N, metrics, values(row), reference)
            if with_oracle:
                found += oracle_problems(base, N, row.d_circle)
            if found:
                self.failed += self.count[(base, N, metrics)]
                self.problems += [f"base={base} N={N}: {msg}" for msg in found]

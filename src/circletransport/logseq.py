"""Fractional parts of base-b logarithms of 1..N and their exact step CDF.

Fractional parts are never computed as ``log(k)/log(b)`` minus a floor, which
loses digits near powers of b.  Instead the digit count is found by exact
integer comparison and the logarithm is taken of the mantissa
``k / b**(digits-1)`` in [1, b), so results carry full relative precision and
powers of b map to exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (CircleEmpirical, PiecewiseCdf, _check_base, build_empirical,
                       cdf_of_empirical)

__all__ = [
    "LogSequenceSpec",
    "digit_count",
    "frac_log",
    "build_nu",
    "closed_form_cdf",
    "significand_count",
    "reference_rotation",
]


_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class LogSequenceSpec:
    """Base/length pair with the derived digit count n: b**(n-1) <= N < b**n.

    This is the engine's validity envelope: an integer base b >= 2, and at
    most the largest n digits with b**(n+1) <= 2**63 - 1 (17 in base 10, 61
    in base 2).  The bound is int64 because ``closed_form_cdf`` and
    ``build_nu`` hold the integers up to N and the powers of b up to b**n in
    int64 arrays and sum ``floor(i / b**j)`` there; the guard keeps one more
    power of b as headroom.  Past it the counts would wrap around silently.
    """

    base: int
    count: int
    digits: int = field(init=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        # stored as an int, so a float base such as 10.0 takes the integer path
        base = _check_base(self.base)
        object.__setattr__(self, "base", base)
        digits = digit_count(base, self.count)
        if base ** (digits + 1) > _INT64_MAX:
            largest = digit_count(base, _INT64_MAX // base) - 1
            raise ValueError(
                f"N={self.count} overflows exact integer arithmetic for base {base}; "
                f"largest supported digit count is {largest}")
        object.__setattr__(self, "digits", digits)


def digit_count(base: int, k: int) -> int:
    """Number of base-``b`` digits of ``k``, by integer comparisons only."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    base = _check_base(base)
    d, p = 1, base
    while k >= p:
        p *= base
        d += 1
    return d


def frac_log(base: int, k: int) -> float:
    """Fractional part of log_b(k), exact 0 at powers of b."""
    base = _check_base(base)
    d = digit_count(base, k)
    mantissa = k / base ** (d - 1)  # in [1, b), full relative precision
    return math.log(mantissa) / math.log(base)


def _powers_table(base: int, upto: int) -> np.ndarray:
    powers = [1]
    while powers[-1] <= upto:
        powers.append(powers[-1] * base)
    return np.array(powers, dtype=np.int64)


def _frac_log_many(base: int, ks: np.ndarray) -> np.ndarray:
    powers = _powers_table(base, int(ks.max()))
    digits = np.searchsorted(powers, ks, side="right")
    mantissa = ks / powers[digits - 1]
    return np.log(mantissa) / math.log(base)


def build_nu(base: int, count: int) -> CircleEmpirical:
    """Empirical measure of the fractional parts of log_b(k), k = 1..count."""
    base = LogSequenceSpec(base, count).base  # the (base, N) envelope
    ks = np.arange(1, count + 1, dtype=np.int64)
    return build_empirical(np.sort(_frac_log_many(base, ks)), base)


def closed_form_cdf(base: int, count: int) -> PiecewiseCdf:
    """Step CDF of ``build_nu(base, count)`` from exact integer digit sums.

    The level just right of the breakpoint at the fractional log of an
    n-digit integer i is the exact count of k <= N sharing a mantissa
    <= i / b**(n-1), computed as ``n + sum_j(floor(i / b**j) - b**(n-1-j))``
    over j = 0..n-1.  For N < b the piece structure degenerates and the
    direct empirical construction is used instead.
    """
    spec = LogSequenceSpec(base, count)
    b, N, n = spec.base, spec.count, spec.digits
    if N < b:
        return cdf_of_empirical(build_nu(b, N))

    geom = (b ** n - 1) // (b - 1)  # sum of b**(n-1-j), j = 0..n-1
    log_b = math.log(b)

    def counts_for(ii: np.ndarray) -> np.ndarray:
        s = np.zeros(ii.size, dtype=np.int64)
        p = 1
        for _ in range(n):
            s += ii // p
            p *= b
        return n + s - geom

    # n-digit block: pieces start at the fractional logs of i = b**(n-1)..N.
    ii = np.arange(b ** (n - 1), N + 1, dtype=np.int64)
    pos_hi = np.log(ii / b ** (n - 1)) / log_b
    lev_hi = counts_for(ii) / N

    # Wrapped (n-1)-digit block: i = floor(N/b)+1 .. b**(n-1)-1, count + N.
    jj = np.arange(N // b + 1, b ** (n - 1), dtype=np.int64)
    if jj.size:
        pos_lo = np.log(jj / b ** (n - 2)) / log_b
        lev_lo = (counts_for(jj) + N) / N
        bounds = np.concatenate((pos_hi, pos_lo, [1.0]))
        levels = np.concatenate((lev_hi, lev_lo))
    else:
        bounds = np.concatenate((pos_hi, [1.0]))
        levels = lev_hi
    return PiecewiseCdf(base=b, bounds=bounds,
                        coef=np.zeros_like(levels), offset=levels)


def significand_count(base: int, count: int, i: int) -> int:
    """Exact number of k <= count whose base-b mantissa is <= that of i.

    Per digit block dd the qualifying k form the run from b**(dd-1) up to
    floor(i * b**(dd-d)), capped by count; everything is integer arithmetic.
    """
    # Python integers are exact at any size, so the int64 envelope does not apply
    b, N, n = _check_base(base), count, digit_count(base, count)
    d = digit_count(b, i)
    total = 0
    for dd in range(1, n + 1):
        top = i * b ** (dd - d) if dd >= d else i // b ** (d - dd)
        total += min(top, N) - b ** (dd - 1) + 1
    return total


def reference_rotation(base: int, count: int) -> float:
    """Rotation ``<-log_b N>`` aligning the exponential law with ``nu_N``."""
    fl = frac_log(base, count)
    return 0.0 if fl == 0.0 else 1.0 - fl

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

from .measures import CircleEmpirical, PiecewiseCdf, _check_base, _step_cdf, build_empirical

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
    return build_empirical(_frac_log_many(base, ks), base)


def closed_form_cdf(base: int, count: int) -> PiecewiseCdf:
    """Step CDF of ``build_nu(base, count)`` from exact integer digit sums.

    The level just right of the breakpoint at the fractional log of an
    n-digit integer i is the exact count of k <= N sharing a mantissa
    <= i / b**(n-1), which is ``n + S(i) - sum_j b**(n-1-j)`` with the
    digit sum ``S(i) = sum_j floor(i / b**j)`` over j = 0..n-1; the
    (n-1)-digit integers i > N / b wrap around and add N.  Consecutive
    digit sums differ by ``S(i) - S(i-1) = #{j >= 0 : b**j divides i}``,
    so S over the whole range i = floor(N/b)+1..N is one exact sum at its
    start, one strided increment per power of b (about P b / (b-1) element
    updates over P pieces) and one cumulative sum: the work is O(N).  The
    same path serves N < b, where the wrapped block is empty.
    """
    spec = LogSequenceSpec(base, count)
    b, N, n = spec.base, spec.count, spec.digits
    top = b ** (n - 1)  # the first n-digit integer
    first = N // b + 1  # the first (n-1)-digit integer whose block wraps
    wrapped = top - first  # pieces of the wrapped block, after the n-digit ones
    size = N + 1 - first
    log_b = math.log(b)

    # digit sums S(i) for i = first..N: increments, then one cumulative sum
    counts = np.zeros(size, dtype=np.int64)
    start, p = 0, 1
    while p <= N:  # p = b**j, j = 0..n-1
        counts[-first % p::p] += 1  # the i divisible by p
        start += first // p
        p *= b
    counts[0] = start
    np.add.accumulate(counts, out=counts)
    counts += n - (b ** n - 1) // (b - 1)
    counts[:wrapped] += N  # the (n-1)-digit i wrap around

    # pieces start at the fractional logs of the n-digit i = b**(n-1)..N,
    # then at those of the wrapped i = floor(N/b)+1 .. b**(n-1)-1
    levels = np.empty(size)
    np.divide(counts[wrapped:], N, out=levels[:size - wrapped])
    np.divide(counts[:wrapped], N, out=levels[size - wrapped:])
    del counts  # freed before the bounds are made
    # the i as floats, counted up in place by a cumulative sum of ones: exact
    # below 2**53, past any array that fits in memory; np.arange temporaries
    # here left 16 MB more resident after a row at base 2, N = 10^7
    bounds = np.empty(size + 1)
    bounds.fill(1.0)
    hi, lo = bounds[:size - wrapped], bounds[size - wrapped:size]
    hi[0], lo[:1] = top, first
    np.add.accumulate(hi, out=hi)
    np.add.accumulate(lo, out=lo)
    hi /= top
    lo /= top // b
    np.log(bounds[:size], out=bounds[:size])
    bounds[:size] /= log_b
    return _step_cdf(b, bounds, levels)


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

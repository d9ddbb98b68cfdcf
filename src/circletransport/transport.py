"""Exact Kantorovich (Wasserstein-1) distances on the interval and the circle.

On [0, 1] the distance between two CDFs is the L1 norm of their difference.
On the circle the cut point is optimized away analytically: with
``delta = F - G``, the map ``c -> integral |delta - c|`` is convex with
subgradient ``measure{delta < c} - measure{delta > c}``, so its minimizers
are exactly the Lebesgue medians of ``delta`` (Cabrelli & Molter 1995;
Rabin, Delon & Gousseau 2011).  The integral is computed in closed form per
piece (roots of ``a * b**t + d = c`` come from a single logarithm), which
keeps every distance exact up to rounding for piece counts into the millions.

The median is found by a bracketed Newton search on the level function
``L(c) = measure{delta <= c}``.  L is non-decreasing, and every exponential
piece whose value range straddles c adds ``1 / (|c - d| ln b)`` to its slope,
so one pass over the pieces gives both ``L(c)`` and ``L'(c)``.  Newton steps
come within a few rounding steps of 1/2 in two or three passes; the rest of
the search narrows the bracket to adjacent floats.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .measures import DeltaProfile, PiecewiseCdf, delta_profile
from .summation import compensated_sum

__all__ = [
    "TransportResult",
    "integral_abs",
    "level_measure",
    "median_offset",
    "w1_line",
    "w1_circle",
    "cut_distance",
]


@dataclass(frozen=True)
class TransportResult:
    """Distance value with the attaining offset/cut diagnostics.

    ``offset`` is the offset actually used (the lower end of the minimizing
    interval on the circle, 0 on the line); ``cut_point`` is a location s
    with ``delta(s)`` or ``delta(s-)`` equal to the offset when one exists.
    """

    distance: float
    offset: float
    offset_interval: tuple[float, float]
    cut_point: float | None
    piece_count: int


def _piece_geometry(profile: DeltaProfile):
    lo = profile.bounds[:-1]
    hi = profile.bounds[1:]
    b = float(profile.base)
    pow_lo = np.power(b, lo)
    pow_hi = np.power(b, hi)
    return lo, hi, pow_lo, pow_hi


def integral_abs(profile: DeltaProfile, c: float) -> float:
    """Exact value of ``integral_0^1 |delta(t) - c| dt``.

    Each piece is split at the closed-form root of ``a*b**t + d = c`` when
    the sign changes inside it; the two monotone parts are integrated with
    the antiderivative ``a*b**t/ln(b) + (d - c)*t`` and accumulated with
    compensated summation.
    """
    lo, hi, pow_lo, pow_hi = _piece_geometry(profile)
    a = profile.coef
    shift = profile.offset - c
    log_b = math.log(profile.base)

    v_lo = a * pow_lo + shift
    v_hi = a * pow_hi + shift

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(a != 0.0, -shift / np.where(a != 0.0, a, 1.0), -1.0)
        root = np.where(ratio > 0.0, np.log(np.where(ratio > 0.0, ratio, 1.0)) / log_b, np.nan)
    split = (v_lo * v_hi < 0.0) & (root > lo) & (root < hi)
    t_mid = np.where(split, root, hi)
    pow_mid = np.where(split, np.power(float(profile.base), t_mid), pow_hi)

    # integral of a*b**t + shift over [u, v]; expm1 keeps nearby powers exact
    def chunk(u, pow_u, v):
        return a * pow_u * np.expm1((v - u) * log_b) / log_b + shift * (v - u)

    first = np.abs(chunk(lo, pow_lo, t_mid))
    second = np.where(split, np.abs(chunk(t_mid, pow_mid, hi)), 0.0)
    return compensated_sum(first) + compensated_sum(second)


class _LevelProfile(DeltaProfile):
    """A profile with what every level pass reuses, built once per search.

    It adds the pieces' endpoint values, value ranges, widths and measure
    edges and two piece-sized scratch buffers.  ``level_measure`` and
    ``median_offset`` take it like any other profile, so each probe of a
    search is one ``level_measure`` pass.  Each search builds its own, so no
    two threads share the buffers.
    """

    def __init__(self, profile: DeltaProfile):
        super().__init__(profile.base, profile.bounds, profile.coef, profile.offset)
        # a subclass of a frozen dataclass may set attributes other than its fields
        self.lo = self.bounds[:-1]
        self.hi = self.bounds[1:]
        self.log_b = math.log(self.base)
        self.v_lo, self.v_hi = profile._piece_values()
        self.v_min = np.minimum(self.v_lo, self.v_hi)
        self.v_max = np.maximum(self.v_lo, self.v_hi)
        self.width = self.hi - self.lo
        # measure below c: root - lo on rising pieces, hi - root on falling ones
        self.edge = np.where(self.coef > 0.0, self.lo, self.hi)
        self.diff = np.empty_like(self.lo)
        self.widths = np.empty_like(self.lo)

    @classmethod
    def of(cls, profile: DeltaProfile) -> _LevelProfile:
        return profile if isinstance(profile, cls) else cls(profile)


def level_measure(profile: DeltaProfile, c: float, with_slope: bool = False):
    """Lebesgue measure ``L(c)`` of the sublevel set {t in [0,1) : delta(t) <= c}.

    A piece whose values all lie at or below ``c`` counts in full and one
    whose values all lie at or above it counts nothing.  A piece whose value
    range straddles ``c`` counts up to its root ``log_b((c - d) / a)``, clipped
    into the piece, and adds ``1 / (|c - d| ln b)`` to the slope ``L'(c)``.
    With ``with_slope`` the result is ``(L(c), L'(c))`` from the same pass.
    """
    p = _LevelProfile.of(profile)
    full = p.v_max <= c
    straddle = (p.v_min < c) & ~full
    diff = np.subtract(c, p.offset, out=p.diff)
    w = p.widths
    # off the straddling pieces these may be nan or inf; they are masked
    with np.errstate(all="ignore"):
        np.divide(diff, p.coef, out=w)
        np.log(w, out=w)
        w /= p.log_b
        np.clip(w, p.lo, p.hi, out=w)
        np.divide(1.0, np.abs(diff, out=diff), out=diff)
    w -= p.edge
    np.abs(w, out=w)
    np.copyto(w, 0.0, where=~straddle)
    np.copyto(w, p.width, where=full)
    level = min(1.0, max(0.0, compensated_sum(w)))
    if not with_slope:
        return level
    return level, float(np.sum(diff, where=straddle)) / p.log_b


def _ordinal(x: float) -> int:
    """Rank of ``x`` among binary64 values; +0.0 and -0.0 share rank 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _midpoint(lo: float, hi: float) -> float:
    """The float halfway from ``lo`` to ``hi`` by rank, so 64 halvings end any bracket."""
    k = (_ordinal(lo) + _ordinal(hi)) // 2
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return x if k >= 0 else -x


def _bracketed_newton(level_slope, lo: float, hi: float, c: float,
                      strict: bool) -> tuple[float, float, float]:
    """Shrink ``(lo, hi]`` to adjacent floats around where the level crosses 1/2.

    ``level_slope(c)`` returns ``(level, slope)``.  A probe is *above* when
    its level is ``>= 1/2`` (``> 1/2`` when ``strict``); the invariant is
    that ``lo`` is not above and ``hi`` is.  ``hi`` must start at or above
    every value of the profile, where the level is 1.  Returns
    ``(lo, hi, level at hi)``.

    Each probe is the Newton step from the previous one when it lands inside
    the bracket, and the midpoint by rank otherwise (always, where the slope
    is 0).  Every probe lies strictly inside the bracket, so the search
    ends.  The computed level is a staircase at the scale of rounding, so
    near 1/2 Newton stalls on one side: each further probe on the same side
    doubles the step, and a level of exactly 1/2 steps by one ulp, so the
    other side is found in a few probes instead of by halving from afar.
    """
    level_hi = 1.0  # the level at and above every value of the profile
    stretch = 1.0
    was_above = None
    while math.nextafter(lo, hi) < hi:
        if not lo < c < hi:
            c = _midpoint(lo, hi)
        level, slope = level_slope(c)
        above = level > 0.5 if strict else level >= 0.5
        if above:
            hi, level_hi = c, level
        else:
            lo = c
        stretch = 2.0 * stretch if above == was_above else 1.0
        was_above = above
        if slope > 0.0:
            step = (0.5 - level) / slope
            if step == 0.0:  # level exactly 1/2: creep off the plateau
                step = -math.ulp(c) if above else math.ulp(c)
            c += stretch * step
        else:
            c = math.nan
    return lo, hi, level_hi


def median_offset(profile: DeltaProfile) -> tuple[float, float]:
    """Full interval of minimizers of ``c -> integral |delta - c|``.

    Returns ``(c_lo, c_hi)`` with ``c_lo = min{c : measure{delta <= c} >= 1/2}``
    and ``c_hi = max{c : measure{delta < c} <= 1/2}``, both to the last bit
    of the computed level function.

    ``c_lo`` comes from a bracketed Newton search on the level function
    ``L(c)``, started at the mean of ``delta``.  Each probe is one
    ``level_measure`` pass that returns ``L(c)`` and its slope
    ``L'(c) = sum 1 / (|c - d_i| ln b)`` over the exponential pieces whose
    value range straddles ``c``.  If ``L(c_lo) > 1/2`` the interval is the
    single point ``c_lo``; otherwise the same search on the strict level
    ``L(c) - measure{delta == c}`` finds ``c_hi``.
    """
    level = _LevelProfile.of(profile)
    lowest, highest = float(level.v_min.min()), float(level.v_max.max())
    if lowest == highest:
        return lowest, lowest
    # integral of a*b**t + d over a piece is (v_hi - v_lo) / ln b + d * width
    mean = (float(np.sum(level.v_hi - level.v_lo)) / level.log_b
            + float(np.dot(level.offset, level.width)))

    def level_slope(c: float) -> tuple[float, float]:
        # one level_measure call per probe; the benchmark counts these as level passes
        return level_measure(level, c, True)

    _, c_lo, level_c_lo = _bracketed_newton(
        level_slope, math.nextafter(lowest, -math.inf), highest, mean, strict=False)
    if level_c_lo > 0.5:
        return c_lo, c_lo

    def strict_level(c: float) -> tuple[float, float]:
        below_or_at, slope = level_slope(c)
        at_c = (level.coef == 0.0) & (level.offset == c)  # constant pieces at c
        return below_or_at - float(np.sum(level.width[at_c])), slope

    c_hi, _, _ = _bracketed_newton(strict_level, c_lo, math.nextafter(highest, math.inf),
                                   math.nextafter(c_lo, math.inf), strict=True)
    return c_lo, c_hi


def _find_cut_point(profile: _LevelProfile, c: float) -> float | None:
    """Smallest s where the profile attains c as a value or left limit."""
    lo, hi, a, d = profile.lo, profile.hi, profile.coef, profile.offset
    v_lo, v_hi = profile.v_lo, profile.v_hi
    tol = 1e-12 * max(1.0, abs(c))

    candidates: list[float] = []
    start_hits = np.nonzero(np.abs(v_lo - c) <= tol)[0]
    if start_hits.size:
        candidates.append(float(lo[start_hits[0]]))
    end_hits = np.nonzero(np.abs(v_hi - c) <= tol)[0]
    if end_hits.size:
        # left limit at the right end of the piece; s = hi (wraps to 0 at 1)
        s = float(hi[end_hits[0]])
        candidates.append(0.0 if s >= 1.0 else s)
    crossing = (profile.v_min - tol <= c) & (c <= profile.v_max + tol) & (a != 0.0)
    cross_idx = np.nonzero(crossing)[0]
    if cross_idx.size:
        i = cross_idx[0]
        ratio = (c - d[i]) / a[i]
        if ratio > 0.0:
            root = math.log(ratio) / math.log(profile.base)
            candidates.append(min(max(root, float(lo[i])), float(hi[i])))
    if not candidates:
        return None
    return min(candidates)


def _circle_from_profile(profile: DeltaProfile) -> TransportResult:
    level = _LevelProfile(profile)
    c_lo, c_hi = median_offset(level)
    cut_point = _find_cut_point(level, c_lo)
    del level  # not held during integral_abs, whose temporaries set the peak
    return TransportResult(
        distance=integral_abs(profile, c_lo),
        offset=c_lo,
        offset_interval=(c_lo, c_hi),
        cut_point=cut_point,
        piece_count=profile.piece_count,
    )


def w1_line(F: PiecewiseCdf, G: PiecewiseCdf) -> TransportResult:
    """Kantorovich distance on [0, 1]: the L1 norm of the CDF difference."""
    profile = delta_profile(F, G)
    return TransportResult(
        distance=integral_abs(profile, 0.0),
        offset=0.0,
        offset_interval=(0.0, 0.0),
        cut_point=None,
        piece_count=profile.piece_count,
    )


def w1_circle(F: PiecewiseCdf, G: PiecewiseCdf) -> TransportResult:
    """Kantorovich distance on the circle via exact offset minimization.

    The reported offset is the lower end of the minimizing interval (ties
    broken deterministically); the distance never exceeds the line distance
    or the circle diameter 1/2.
    """
    return _circle_from_profile(delta_profile(F, G))


def cut_distance(F: PiecewiseCdf, G: PiecewiseCdf, s: float, variant: str = "D") -> float:
    """Line distance after cutting the circle open at ``s``.

    Variant ``"D"`` subtracts the right value ``delta(s)``; variant ``"I"``
    subtracts the left limit ``delta(s-)`` (which wraps to 0 at s = 0).
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"cut point must lie in [0, 1), got {s}")
    if variant not in ("D", "I"):
        raise ValueError(f"variant must be 'D' or 'I', got {variant!r}")
    profile = delta_profile(F, G)
    side = "right" if variant == "D" else "left"
    return integral_abs(profile, profile.value(s, side))

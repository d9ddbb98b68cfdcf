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

Once a search has probed both sides of 1/2, only the pieces whose value
range meets its bracket can change how they count, so the search narrows
its private profile to them (about half the pieces of a metrics row).
Every other piece lies wholly below the bracket or wholly above it, and its
width below the level (full or none) is written once into a full-length
buffer.  Each later pass evaluates the narrowed pieces, scatters them into
that buffer and sums all of it in the same order, so ``L(c)`` keeps its
bits.  The slope is summed over the narrowed pieces alone and may change in
its last bits, which is free: every operation of the pass rounds
monotonically, so the computed ``L`` is non-decreasing and the search ends
at the same adjacent floats whichever probes the slope picks.
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
    "w1_circle_profile",
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


def integral_abs(profile: DeltaProfile, c: float) -> float:
    """Exact value of ``integral_0^1 |delta(t) - c| dt``.

    Each piece is split at the closed-form root of ``a*b**t + d = c`` when
    the sign changes inside it; the two monotone parts are integrated with
    the antiderivative ``a*b**t/ln(b) + (d - c)*t`` and accumulated with
    compensated summation.  Roots and second parts are computed only for
    the pieces whose end values differ in sign; the powers ``b**t`` at the
    bounds are the profile's own, computed once per profile.
    """
    powers = profile._bound_powers()
    lo, hi = profile.bounds[:-1], profile.bounds[1:]
    pow_lo = powers[:-1]
    a = profile.coef
    shift = profile.offset - c
    log_b = math.log(profile.base)

    # integral of a*b**t + shift over [u, v]; expm1 keeps nearby powers exact
    def chunk(a, shift, u, pow_u, v):
        width = v - u
        return a * pow_u * np.expm1(width * log_b) / log_b + shift * width

    t_mid, second = hi, 0.0
    # the end values' product is negative only on exponential pieces (a != 0)
    split = np.flatnonzero((a * pow_lo + shift) * (a * powers[1:] + shift) < 0.0)
    if split.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.log(-shift[split] / a[split]) / log_b
        inside = (root > lo[split]) & (root < hi[split])
        split, root = split[inside], root[inside]
        t_mid = hi.copy()
        t_mid[split] = root
        # summed over all pieces, zeros included, so its blocks match the first part's
        parts = np.zeros_like(hi)
        parts[split] = np.abs(chunk(a[split], shift[split], root,
                                    np.power(float(profile.base), root), hi[split]))
        second = compensated_sum(parts)
    return compensated_sum(np.abs(chunk(a, shift, lo, pow_lo, t_mid))) + second


# Below a few thousand pieces a level pass costs its numpy calls, not its
# length, so the twenty-odd calls of a narrowing do not pay for themselves:
# searches broke even at about 2,500 pieces and gained 7% at 5,400.
_NARROW_MIN_PIECES = 4096


class _LevelProfile(DeltaProfile):
    """A profile with what every level pass reuses, built once per search.

    It adds the pieces' endpoint values and a full-length buffer of the
    pieces' widths below the level, and it keeps the *active* pieces: those
    a level pass evaluates, with their value ranges, widths, measure edges
    and two scratch buffers.  At first every piece is active.  ``narrow(lo,
    hi)`` keeps only the pieces whose value range meets ``[lo, hi]``; for a
    level in that bracket every other piece lies wholly below it (full
    width) or wholly above it (nothing), so its entry in the buffer is
    written once.  ``level_measure`` and ``median_offset`` take it like any
    other profile.  Each search builds its own, so no two threads share the
    buffers.
    """

    def __init__(self, profile: DeltaProfile):
        # the fields are the profile's own arrays, already validated and read-only
        for name in ("base", "bounds", "coef", "offset"):
            object.__setattr__(self, name, getattr(profile, name))
        # a subclass of a frozen dataclass may set attributes other than its fields
        self.log_b = math.log(self.base)
        self.v_lo, self.v_hi = profile._piece_values()
        self.widths = np.empty_like(self.offset)
        self._activate(slice(None), -math.inf, math.inf)

    @classmethod
    def of(cls, profile: DeltaProfile) -> _LevelProfile:
        return profile if isinstance(profile, cls) else cls(profile)

    def narrow(self, lo: float, hi: float) -> None:
        """Evaluate only the pieces whose value range meets ``[lo, hi]``.

        Afterwards ``level_measure`` accepts levels in ``[lo, hi]`` only.
        The bracket may be any one, so a new search can widen it again.
        """
        for name in ("a_offset", "a_coef", "a_lo", "a_hi", "v_min", "v_max",
                     "width", "edge", "diff", "w"):
            delattr(self, name)  # freed before the smaller copies are made
        v_lo, v_hi = self.v_lo, self.v_hi
        below = (v_lo <= lo) & (v_hi <= lo)
        index = np.flatnonzero(~below & ((v_lo <= hi) | (v_hi <= hi)))
        # pieces below the bracket count in full, those above it not at all
        np.subtract(self.bounds[1:], self.bounds[:-1], out=self.widths)
        np.multiply(self.widths, below, out=self.widths)
        self._activate(slice(None) if index.size == below.size else index, lo, hi)

    def _activate(self, index, lo: float, hi: float) -> None:
        self.bracket = (lo, hi)
        self.index = index
        self.a_offset, self.a_coef = self.offset[index], self.coef[index]
        self.a_lo, self.a_hi = self.bounds[:-1][index], self.bounds[1:][index]
        v_lo, v_hi = self.v_lo[index], self.v_hi[index]
        self.v_min = np.minimum(v_lo, v_hi)
        self.v_max = np.maximum(v_lo, v_hi)
        self.width = self.a_hi - self.a_lo
        # measure below c: root - lo on rising pieces, hi - root on falling ones
        self.edge = np.where(self.a_coef > 0.0, self.a_lo, self.a_hi)
        self.diff = np.empty_like(self.width)
        # with every piece active the pass writes the buffer in place
        self.w = self.widths if isinstance(index, slice) else np.empty_like(self.width)


def level_measure(profile: DeltaProfile, c: float, with_slope: bool = False):
    """Lebesgue measure ``L(c)`` of the sublevel set {t in [0,1) : delta(t) <= c}.

    A piece whose values all lie at or below ``c`` counts in full and one
    whose values all lie at or above it counts nothing.  A piece whose value
    range straddles ``c`` counts up to its root ``log_b((c - d) / a)``, clipped
    into the piece, and adds ``1 / (|c - d| ln b)`` to the slope ``L'(c)``.
    With ``with_slope`` the result is ``(L(c), L'(c))`` from the same pass.

    On a narrowed search profile (see ``_LevelProfile.narrow``) the pass
    evaluates only the active pieces, scatters their widths into the
    full-length buffer and sums all of it in the same order, so ``L(c)`` has
    the same bits as a pass over every piece; a level outside the bracket
    raises ``ValueError``.  The slope is summed over the active pieces alone,
    so its last bits may differ from a full pass; the search's result does
    not depend on them (see ``median_offset``).
    """
    p = _LevelProfile.of(profile)
    lo, hi = p.bracket
    if not lo <= c <= hi:
        raise ValueError(f"level {c!r} lies outside the bracket [{lo!r}, {hi!r}] "
                         f"this profile was narrowed to")
    full = p.v_max <= c
    straddle = (p.v_min < c) & ~full
    diff = np.subtract(c, p.a_offset, out=p.diff)
    w = p.w
    # off the straddling pieces these may be nan or inf; they are masked
    with np.errstate(all="ignore"):
        np.divide(diff, p.a_coef, out=w)
        np.log(w, out=w)
        w /= p.log_b
        np.clip(w, p.a_lo, p.a_hi, out=w)
        np.divide(1.0, np.abs(diff, out=diff), out=diff)
    w -= p.edge
    np.abs(w, out=w)
    np.copyto(w, 0.0, where=~straddle)
    np.copyto(w, p.width, where=full)
    p.widths[p.index] = w
    level = min(1.0, max(0.0, compensated_sum(p.widths)))
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


def _bracketed_newton(level: _LevelProfile, lo: float, hi: float, c: float,
                      strict: bool) -> tuple[float, float, float]:
    """Shrink ``(lo, hi]`` to adjacent floats around where the level crosses 1/2.

    Each probe is one ``level_measure(level, c, True)`` pass, which gives
    the level ``L(c)`` and its slope; ``strict`` subtracts the atom
    ``measure{delta == c}``.  A probe is *above* when its level is ``>= 1/2``
    (``> 1/2`` when ``strict``); the invariant is that ``lo`` is not above
    and ``hi`` is.  ``hi`` must start at or above every value of the
    profile, where the level is 1.  Returns ``(lo, hi, level at hi)``.

    Each probe is the Newton step from the previous one when it lands inside
    the bracket, and the midpoint by rank otherwise (always, where the slope
    is 0).  Every probe lies strictly inside the bracket, so the search
    ends.  The computed level is a staircase at the scale of rounding, so
    near 1/2 Newton stalls on one side: each further probe on the same side
    doubles the step, and a level of exactly 1/2 steps by one ulp, so the
    other side is found in a few probes instead of by halving from afar.

    A profile of ``_NARROW_MIN_PIECES`` or more is narrowed to the bracket
    once probes have landed on both sides; every later probe lies inside
    it.  The strict search first narrows to its starting bracket, since the
    first search left the profile narrowed below it.
    """
    narrow = level.piece_count >= _NARROW_MIN_PIECES
    if narrow and strict:
        level.narrow(lo, hi)
    level_hi = 1.0  # the level at and above every value of the profile
    stretch = 1.0
    was_above = None
    while math.nextafter(lo, hi) < hi:
        if not lo < c < hi:
            c = _midpoint(lo, hi)
        # looked up on the module at each probe; the benchmark counts these calls
        level_c, slope = level_measure(level, c, True)
        if strict:
            # constant pieces at c are active: their value range is {c}, inside the bracket
            at_c = (level.a_coef == 0.0) & (level.a_offset == c)
            level_c -= float(np.sum(level.width[at_c]))
        above = level_c > 0.5 if strict else level_c >= 0.5
        if above:
            hi, level_hi = c, level_c
        else:
            lo = c
        if narrow and was_above is not None and above != was_above:
            level.narrow(lo, hi)
            narrow = False
        stretch = 2.0 * stretch if above == was_above else 1.0
        was_above = above
        if slope > 0.0:
            step = (0.5 - level_c) / slope
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
    ``L(c) - measure{delta == c}`` finds ``c_hi``.  A constant profile
    starts the search at adjacent floats, so it returns its one value
    without a probe.

    Once a search has probed both sides of 1/2 it narrows its profile to
    the bracket, so later passes evaluate only the pieces whose value range
    meets it.  The computed level is non-decreasing in ``c`` (every
    operation of the pass rounds monotonically), so the search ends at the
    same adjacent floats whatever path its probes take: the result depends
    on the bits of ``L`` alone, which narrowing keeps, and not on those of
    the slope, which it does not.
    """
    level = _LevelProfile.of(profile)
    v_lo, v_hi = level.v_lo, level.v_hi
    lowest = float(min(v_lo.min(), v_hi.min()))
    highest = float(max(v_lo.max(), v_hi.max()))
    # integral of a*b**t + d over a piece is (v_hi - v_lo) / ln b + d * width
    mean = (float(np.sum(v_hi - v_lo)) / level.log_b
            + float(np.dot(level.offset, np.diff(level.bounds))))
    _, c_lo, level_c_lo = _bracketed_newton(
        level, math.nextafter(lowest, -math.inf), highest, mean, strict=False)
    if level_c_lo > 0.5:
        return c_lo, c_lo
    c_hi, _, _ = _bracketed_newton(level, c_lo, math.nextafter(highest, math.inf),
                                   math.nextafter(c_lo, math.inf), strict=True)
    return c_lo, c_hi


def _find_cut_point(profile: _LevelProfile, c: float) -> float | None:
    """Smallest s where the profile attains c as a value or left limit."""
    lo, hi, a, d = profile.bounds[:-1], profile.bounds[1:], profile.coef, profile.offset
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
    crossing = ((np.minimum(v_lo, v_hi) - tol <= c) & (c <= np.maximum(v_lo, v_hi) + tol)
                & (a != 0.0))
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


def w1_circle_profile(profile: DeltaProfile) -> TransportResult:
    """Kantorovich distance on the circle for the difference profile ``F - G``.

    The same as ``w1_circle`` for callers that already hold the profile.
    """
    level = _LevelProfile(profile)
    c_lo, c_hi = median_offset(level)
    cut_point = _find_cut_point(level, c_lo)
    del level  # not held during integral_abs, whose temporaries set the peak
    return TransportResult(
        distance=integral_abs(profile, c_lo),
        offset=c_lo,
        offset_interval=(c_lo, c_hi),
        cut_point=cut_point,
    )


def w1_line(F: PiecewiseCdf, G: PiecewiseCdf) -> TransportResult:
    """Kantorovich distance on [0, 1]: the L1 norm of the CDF difference."""
    profile = delta_profile(F, G)
    return TransportResult(
        distance=integral_abs(profile, 0.0),
        offset=0.0,
        offset_interval=(0.0, 0.0),
        cut_point=None,
    )


def w1_circle(F: PiecewiseCdf, G: PiecewiseCdf) -> TransportResult:
    """Kantorovich distance on the circle via exact offset minimization.

    The reported offset is the lower end of the minimizing interval (ties
    broken deterministically); the distance never exceeds the line distance
    or the circle diameter 1/2.
    """
    return w1_circle_profile(delta_profile(F, G))


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

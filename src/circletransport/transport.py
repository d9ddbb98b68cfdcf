"""Exact Kantorovich (Wasserstein-1) distances on the interval and the circle.

On [0, 1] the distance between two CDFs is the L1 norm of their difference.
On the circle the cut point is optimized away analytically: with
``delta = F - G``, the map ``c -> integral |delta - c|`` is convex with
subgradient ``measure{delta < c} - measure{delta > c}``, so its minimizers
are exactly the Lebesgue medians of ``delta`` (Cabrelli & Molter 1995;
Rabin, Delon & Gousseau 2011).  The integral is computed in closed form per
piece (roots of ``a * b**t + d = c`` come from a single logarithm), which
keeps every distance exact up to rounding for piece counts into the millions.

Every median attains the same distance, so a circle row takes the lowest,
found by a bracketed Newton search on the level function
``L(c) = measure{delta <= c}``.  Every exponential piece whose value range
straddles c adds ``1 / (|c - d| ln b)`` to the slope, so one pass over the
pieces gives both ``L(c)`` and ``L'(c)``.  Newton steps come within a few
rounding steps of 1/2 in two or three passes.  There the computed level is
a staircase: a pass sees c only through the masks ``v_max <= c`` and
``v_min < c`` and through ``fl(c - d)``, which changes only where ``c - d``
crosses a rounding tie.  So the search lists the few floats of its bracket
where the level can change and ends by bisecting over that list.  While the
list would be long (a wide bracket, or an offset d so near the bracket that
its rounding grid is too fine) the Newton steps and rank bisection go on.

A pass works in one scratch buffer over the active pieces: it sums the
slope's ``1 / |c - d|`` there first, then computes the widths below c in
it.  A partial piece is measured from its *edge*, the left end of a rising
piece and the right end of a falling one; the edges are a view of the
bounds unless the pieces' signs are mixed, and every piece of a metrics
row falls.  Once a search has probed both sides of 1/2, only the pieces
whose value range meets its bracket can change how they count, so the
search narrows its private profile to them (about half the pieces of a
metrics row).  Every other piece lies wholly below the bracket or wholly
above it, and its width below the level (full or none) is written once
into a full-length buffer.  The narrowed pieces come in two runs.  First
the *core*, whose value range straddles every level of the bracket
(``v_min < lo`` and ``v_max > hi``), rising pieces before falling ones: a
pass measures them from ``lo`` and from ``hi`` with no masks, and keeps no
value ranges or edges for them.  Then the *border*, the rest, which a pass
masks as it masks every piece before narrowing; it is empty on each of
the 20 benchmark reference rows that narrow.  Each later pass scatters the
narrowed widths into the buffer and sums all of it in the same order, so
``L(c)`` keeps its bits.  The slope is summed over the core and then over
the border, and may change in its last bits; the result does not depend on
them, as the next paragraph says.  The list of steps needs the offsets d
nearest the bracket; one scan of the active pieces per narrowing finds
them for every later bracket, as long as no d lies inside the first.

The search assumes that the computed ``L`` is non-decreasing in c.  Then
the least float where it reaches 1/2 is one float, found whichever probes
the slope picks and whether or not the list of steps ends the search.
Rounding does not guarantee it: numpy's SIMD ``np.log`` is faithfully
rounded, not correctly rounded.  ``test_level_is_monotone_around_the_median``
checks it float by float around the median of four metrics rows.

A row of a few thousand pieces costs its numpy calls more than its length,
so every numpy call on a row's path reaches C at once: a ufunc, a ufunc
method such as ``np.add.reduce``, or an ndarray method that is C code
(``nonzero``, ``searchsorted``, ``cumsum``, ``repeat``).  numpy's
Python-level wrappers (``np.sum``, ``np.clip``, ``np.insert``,
``np.flatnonzero``, and ``ndarray.sum``, ``min``, ``any`` and the like) run
the same C loops on the same operands after 2-14 us of Python each, about
a fifth of a small row.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .measures import DeltaProfile, PiecewiseCdf, delta_profile
from .summation import _SPAN_MAX, block_sums, compensated_sum, spans

__all__ = [
    "TransportResult",
    "integral_abs",
    "level_measure",
    "median_offset",
    "w1_line",
    "w1_circle",
]


@dataclass(frozen=True)
class TransportResult:
    """Distance value with the offset that attains it.

    ``offset`` is the constant subtracted from ``F - G``: the lowest
    minimizer on the circle, 0 on the line.
    """

    distance: float
    offset: float


def _cpus() -> int:
    """How many CPUs the calling thread may run on; 1 where the OS cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


# An integral over fewer pieces runs in the calling process alone.  A
# forked worker costs about 7 ms whatever its share: the fork, the worker's
# start and first writes to copied pages, its exit and the reaping.  On a
# 2-CPU Xeon (medians of 31 alternating calls at c = 0), forking for half
# of the spans broke even near 300k pieces of a line row's cover and near
# 1.05M of a profile's, whose pieces are cheaper and whose halves share the
# memory bus (16.2 ms inline, 16.9 forked).  This is the larger, so no
# cover is slower.
_FORK_MIN_PIECES = 1 << 20


def integral_abs(profile, c: float) -> float:
    """Exact value of ``integral_0^1 |delta(t) - c| dt``.

    ``profile`` is a cover of [0, 1) by pieces ``a*b**t + d`` with a
    ``base``, a ``piece_count`` and ``spans(cuts)``, which yields
    ``(bounds, powers = b**bounds, coef, offset)`` for each ``(start,
    stop)`` of ``cuts``, spans that ``summation.spans`` cuts: a
    ``DeltaProfile``, or a line row's pieces written span by span
    (``logseq._RowPieces``).  Any run of spans can be read on its own.

    Each piece is split at the closed-form root of ``a*b**t + d = c`` when
    the sign changes inside it; the two monotone parts are integrated with
    the antiderivative ``a*b**t/ln(b) + (d - c)*t``.  Roots and second
    parts are computed only for the pieces whose end values differ in
    sign.  The spans' ``block_sums`` are the whole arrays' own, and
    ``math.fsum`` is correctly rounded whatever the order of what it sums,
    so one ``fsum`` of them has the bits of ``compensated_sum`` over the
    first parts and over the second parts of all pieces.  A NaN level
    raises ``ValueError``; at c = +-inf the integral is inf.

    The spans are cut into one contiguous share per CPU the calling thread
    may run on, and a worker process is forked for each share after the
    first, when the cover has at least ``_FORK_MIN_PIECES`` pieces, the
    platform has ``os.fork`` and the caller is the process's only Python
    thread (a fork copies only the thread that calls it).  A worker
    integrates its share, pipes back its block sums, or nothing if it
    raises, and leaves by ``os._exit``.  The caller integrates the first
    share, then reaps every worker and integrates itself each share that
    got no reply: an error in the spans, such as tied bounds, is then
    raised in the caller's own frame, and a worker killed from outside
    costs only its share's time.  If the caller raises, it kills the
    workers it has not reaped.  No worker outlives the call.  Otherwise
    the caller integrates every span itself.  The bits are the same
    either way.
    """
    if math.isnan(c):
        raise ValueError("level c must not be NaN")
    cuts = list(spans(profile.piece_count))
    forks = (profile.piece_count >= _FORK_MIN_PIECES and hasattr(os, "fork")
             and threading.active_count() == 1)
    k = min(_cpus(), len(cuts)) if forks else 1
    shares = [cuts[len(cuts) * i // k:len(cuts) * (i + 1) // k] for i in range(k)]
    pieces = profile.spans(shares[0])  # a profile computes its powers here, before any fork
    workers = []  # (pid, pipe, share) of each worker not yet reaped
    try:
        for share in shares[1:]:
            workers.append((*_fork(profile, c, share), share))
        first, second = _integrate(profile, c, pieces)
        while workers:
            pid, pipe, share = workers[-1]
            reply = pipe.read()
            workers.pop()
            _reap(pid, pipe)
            sums = pickle.loads(reply) if reply else _integrate(profile, c, profile.spans(share))
            first += sums[0]
            second += sums[1]
    finally:
        for pid, pipe, _ in workers:
            os.kill(pid, signal.SIGKILL)
            _reap(pid, pipe)
    return math.fsum(first) + math.fsum(second)


def _fork(profile, c: float, share) -> tuple[int, object]:
    """Fork a worker that integrates the spans of ``share`` and writes
    ``(first, second)`` pickled, or nothing if it raises, to the pipe whose
    reading end is returned with its pid."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the worker: it leaves by os._exit, never by returning
        try:
            os.close(read)
            sums = _integrate(profile, c, profile.spans(share))
            with open(write, "wb") as pipe:
                pickle.dump(sums, pipe)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _reap(pid: int, pipe) -> None:
    """Close a worker's pipe and wait for it."""
    pipe.close()
    os.waitpid(pid, 0)


def _integrate(profile, c: float, pieces) -> tuple[list[float], list[float]]:
    """The block sums of the first and of the second parts of the spans
    that ``pieces`` yields (see ``integral_abs``)."""
    b, log_b = float(profile.base), math.log(profile.base)
    # a span's temporaries, the split pieces' two included, are rows of one
    # array made once per share; a new set on every span churned the top of
    # the heap, which malloc trimmed and faulted in again (see
    # ``summation._SPAN``).  Rows as wide as that row's longest cut (32,768
    # floats, a 256 KiB stride) made the (2, 10^7) line row slower on one CPU of a
    # 2-CPU Xeon, in two runs of five alternating fresh processes: 139-146
    # ms against 129-134 ms at this width (5 of 5), then 146-187 ms against
    # 136-166 ms (4 of 5); keep this width
    span_max = min(profile.piece_count, _SPAN_MAX)
    rows = np.empty((6, span_max))
    first, second = [], []

    # |integral of a*b**t + shift over [u, v]|, into out, with width and e
    # as scratch; expm1 keeps nearby powers exact
    def chunk(a, shift, u, pow_u, v, out, width, e):
        np.subtract(v, u, out=width)
        np.expm1(np.multiply(width, log_b, out=e), out=e)
        np.multiply(a, pow_u, out=out)
        out *= e
        out /= log_b
        out += np.multiply(shift, width, out=e)
        return np.abs(out, out=out)

    for bounds, powers, a, offset in pieces:
        shift, values, width, e, part, mid = rows[:, :a.size]
        lo, hi = bounds[:-1], bounds[1:]
        pow_lo, pow_hi = powers[:-1], powers[1:]
        np.subtract(offset, c, out=shift)
        t_mid = hi
        # the end values' product is negative only on exponential pieces (a != 0)
        np.add(np.multiply(a, pow_lo, out=values), shift, out=values)
        values *= np.add(np.multiply(a, pow_hi, out=e), shift, out=e)
        split = (values < 0.0).nonzero()[0]
        if split.size:
            # the end values differ in sign only where shift and a do, so
            # -shift / a > 0 (short of underflow) and the log does not warn
            root = np.log(-shift[split] / a[split]) / log_b
            inside = (root > lo[split]) & (root < hi[split])
            split, root = split[inside], root[inside]
            np.copyto(mid, hi)
            mid[split] = root
            t_mid = mid
            # summed over all pieces of the span, zeros included, so its blocks
            # are the whole array's; a span without splits would add only zeros
            k = split.size
            part.fill(0.0)
            part[split] = chunk(a[split], shift[split], root, np.power(b, root),
                                hi[split], values[:k], width[:k], e[:k])
            second += block_sums(part)
        first += block_sums(chunk(a, shift, lo, pow_lo, t_mid, values, width, e))
    return first, second


# Below a few thousand pieces a level pass costs its numpy calls, not its
# length, so the twenty-odd calls of a narrowing do not pay for themselves:
# searches broke even at about 2,500 pieces and gained 7% at 5,400.
_NARROW_MIN_PIECES = 4096

# The offset search ends by bisecting over the steps of the level function
# once its bracket holds at most this many (see ``_LevelProfile.steps``).
# Over the 847 benchmark reference rows with N <= 2*10^5 the searches took
# 6,422 level passes in all with 16, 6,473 with 64, 6,613 with 256 and
# 7,129 with 4,096 (8,430 without the list); rows at N = 10^5 and 10^6
# took the same passes with any size from 16 to 256.
_STEPS_MAX = 64


class _LevelProfile:
    """A profile's pieces with what every level pass reuses, built once per search.

    It keeps the profile's ``base``, ``bounds``, ``coef``, ``offset`` and
    ``piece_count``.  It adds the pieces' value ranges ``v_min`` and
    ``v_max``, the mean of ``delta`` and a full-length buffer of the pieces'
    widths below the level, and it keeps the *active* pieces: those a level
    pass evaluates, with one scratch buffer.  At first every piece is active
    and on the *border*, where a pass masks from the value ranges which
    pieces count in full, in part or not at all, and measures a partial
    piece from its *edge* (``lo`` if it rises, ``hi`` if it
    falls).  ``narrow(lo, hi)`` keeps only the pieces whose value range meets
    ``[lo, hi]``: first the *core*, whose value range straddles all of it,
    rising pieces before falling ones, then the border, the only pieces
    whose value ranges and edges it keeps.  For a level in that bracket every
    other piece lies wholly below it (full width) or wholly above it
    (nothing), so its entry in the buffer is written once.  ``steps(lo, hi)``
    lists where the level can change inside a bracket.  ``level_measure``
    takes it in place of the profile.  Each ``median_offset`` search builds
    its own, so no two searches or threads share the buffers.

    Before narrowing, the search holds three full-length float arrays of
    its own, built from ``_piece_values``: ``v_min`` over the start values,
    the pieces' rises (which the mean sums) and then ``v_max`` in a third
    array, and the width buffer over the end values.  With every piece
    active the width buffer is also the pass's scratch, and a pass makes
    three masks and frees them before it sums the widths.  The edges are a
    view of the bounds, ``bounds[1:]`` when no piece rises and
    ``bounds[:-1]`` when every piece rises; only mixed signs make an array
    of them.  A full piece gets its width ``hi - lo`` from a masked
    subtraction, so no array of widths is kept.  ``narrow`` frees the
    full-length arrays before it makes the narrowed ones, which serve until
    the search ends: the index, offsets, coefficients and both bounds of the
    active pieces, their scratch buffer, and the pass's three masks over the
    border.
    """

    def __init__(self, profile: DeltaProfile):
        # the profile's own arrays, already validated and read-only
        self.base, self.bounds = profile.base, profile.bounds
        self.coef, self.offset = profile.coef, profile.offset
        self.piece_count = profile.piece_count
        self.log_b = math.log(self.base)
        self.bracket = (-math.inf, math.inf)
        self.index = None  # every piece is active
        self.a_offset, self.a_coef = self.offset, self.coef
        self.a_lo, self.a_hi = self.bounds[:-1], self.bounds[1:]
        v_lo, v_hi = profile._piece_values()
        # the mean of delta, the search's first probe: a*b**t + d integrates
        # over a piece to (v_hi - v_lo) / ln b + d * (hi - lo)
        rises = np.subtract(v_hi, v_lo)
        rise = float(np.add.reduce(rises))
        self.v_max = np.maximum(v_lo, v_hi, out=rises)
        self.v_min = np.minimum(v_lo, v_hi, out=v_lo)
        width = np.subtract(self.a_hi, self.a_lo, out=v_hi)
        self.mean = rise / self.log_b + float(np.dot(self.offset, width))
        if not np.maximum.reduce(self.coef) > 0.0:  # every metrics row: coef = -G.coef
            self.edge = self.a_hi
        elif np.minimum.reduce(self.coef) > 0.0:
            self.edge = self.a_lo
        else:
            self.edge = np.where(self.coef > 0.0, self.a_lo, self.a_hi)
        # with every piece active the pass writes the width buffer in place
        self.widths = self.w = width
        self.core = None
        self.border = (self.w, self.edge, self.a_lo, self.a_hi)
        self.masks = (None, None, None)  # a pass makes its own until narrowed
        self.scan = None

    def narrow(self, lo: float, hi: float) -> None:
        """Evaluate only the pieces whose value range meets ``[lo, hi]``,
        those that straddle all of it first.

        Afterwards ``level_measure`` accepts levels in ``[lo, hi]`` only.
        A search narrows once, from every piece active, and never widens
        the bracket again.
        """
        v_min, v_max = self.v_min, self.v_max
        below = v_max <= lo
        border = v_min <= hi
        border &= ~below
        self.bracket = (lo, hi)
        # pieces below the bracket count in full, those above it not at all
        np.copyto(self.widths, 0.0)
        np.subtract(self.a_hi, self.a_lo, out=self.widths, where=below)
        del below
        core = v_min < lo
        core &= v_max > hi
        border &= ~core
        border = border.nonzero()[0]
        self.v_min, self.v_max, self.edge = v_min[border], v_max[border], self.edge[border]
        del v_min, v_max, self.border
        # a rising core piece is measured from lo, a falling one from hi
        rising = (core & (self.coef > 0.0)).nonzero()[0]
        core &= self.coef < 0.0
        falling = core.nonzero()[0]
        index = np.concatenate((rising, falling, border))
        r, k = rising.size, rising.size + falling.size
        del core, rising, falling, border
        self.a_offset, self.a_coef = self.offset[index], self.coef[index]
        self.a_lo, self.a_hi = self.bounds[:-1][index], self.bounds[1:][index]
        self.index, self.w = index, np.empty(index.size)
        w = self.w
        self.core = (w[:k], w[:r], self.a_lo[:r], w[r:k], self.a_hi[r:k])
        self.border = (w[k:], self.edge, self.a_lo[k:], self.a_hi[k:])
        self.masks = tuple(np.empty(self.v_min.size, bool) for _ in range(3))
        self.scan = None

    def _offsets(self, lo: float, hi: float) -> tuple[float, float, float]:
        """``(below, above, least)`` over the active exponential pieces: the
        greatest offset d at or below ``hi`` and the least at or above
        ``lo`` (-inf and inf if there are none), and the least ``|d|``.

        When no d lies in ``[lo, hi]``, ``below < lo`` and ``above > hi``
        are the nearest d on either side of every bracket inside it, so one
        scan per narrowing answers all of a search's later brackets.
        """
        scan = self.scan
        if scan is not None and scan[0] <= lo and hi <= scan[1]:
            return scan[2:]
        # the pass's scratch buffer holds nothing between passes; it takes
        # the offsets, NaN on constant pieces, where no comparison holds
        d, s = self.a_offset, self.w
        curved = np.not_equal(self.a_coef, 0.0)
        np.copyto(s, math.nan)
        np.copyto(s, d, where=curved)
        below = float(np.maximum.reduce(s, where=np.less_equal(s, hi, out=curved),
                                        initial=-math.inf))
        above = float(np.minimum.reduce(s, where=np.greater_equal(s, lo, out=curved),
                                        initial=math.inf))
        least = float(np.fmin.reduce(np.abs(s, out=s), initial=math.inf))
        # a d inside the bracket may lie outside a narrower one
        self.scan = (lo, hi, below, above, least) if below < lo else None
        return below, above, least

    def steps(self, lo: float, hi: float) -> tuple[list[float] | None, float]:
        """The floats in ``(lo, hi]`` at which the computed level can change.

        Returns them sorted and ending with ``hi``, with 0.0.  When there
        would be more than ``_STEPS_MAX`` or no grid bounds them, returns
        None with the widest bracket worth asking about again.

        A pass sees a level c through the masks ``v_max <= c``, which
        changes at ``v_max``, and ``v_min < c``, which changes at the float
        after ``v_min``; on an exponential piece straddling c it also sees
        ``fl(c - d)``, which changes only where ``c - d`` crosses a rounding
        tie, at that c or at the float after it.  Let ``2 h`` be the least
        ulp of ``fl(c - d)`` over the bracket and the active exponential
        pieces: every tie is then a multiple of ``h``.  If ``h`` divides
        each of their ``d`` and no float of the bracket is finer, every
        ``d + tie`` is a float multiple of ``h``.  So the level is constant
        from one to the next of: the multiples of ``h``, the ``v_min`` and
        ``v_max``, the float after each of these, and ``hi``.  The least
        ``|c - d|`` and ``|d|`` come from ``_offsets``, which scans the
        active pieces once per narrowing.
        """
        below, above, least = self._offsets(lo, hi)
        # the least |c - d| over the bracket, <= 0 when a d lies in it:
        # rounding is monotone, so it is the distance to the nearest d
        gap = min(lo - below, above - hi)
        points = []
        if gap < math.inf:
            # the ulp below the least |c - d|: ties at a binade's edge are that fine
            h = math.ulp(math.nextafter(gap, 0.0)) / 2.0
            if not gap > 0.0 or h < math.ulp(max(abs(lo), abs(hi))):
                return None, (hi - lo) / 4.0
            # with the float after each, the multiples alone must fit in the list
            if 2 * (math.floor(hi / h) - math.ceil(lo / h) + 1) > _STEPS_MAX:
                return None, _STEPS_MAX / 2 * h  # h only grows as the bracket narrows
            if least < 2.0 ** 52 * h:
                return None, (hi - lo) / 4.0
            points.append(np.arange(math.ceil(lo / h), math.floor(hi / h) + 1) * h)
        for v in (self.v_min, self.v_max):
            points.append(v[(lo <= v) & (v <= hi)])
        points = np.concatenate(points)
        if points.size > _STEPS_MAX:
            return None, (hi - lo) / 4.0
        points = np.concatenate((points, np.nextafter(points, math.inf))).tolist()
        points = sorted({x for x in points if lo < x <= hi} | {hi})
        if len(points) > _STEPS_MAX:
            return None, (hi - lo) / 4.0
        return points, 0.0


def level_measure(profile: DeltaProfile, c: float) -> tuple[float, float]:
    """``(L(c), L'(c))``: the Lebesgue measure of the sublevel set
    {t in [0,1) : delta(t) <= c} and its slope, from one pass.

    A piece whose values all lie at or below ``c`` counts in full and one
    whose values all lie at or above it counts nothing.  A piece whose value
    range straddles ``c`` counts up to its root ``log_b((c - d) / a)``, clipped
    into the piece, and adds ``1 / (|c - d| ln b)`` to the slope ``L'(c)``.

    On a narrowed search profile (see ``_LevelProfile.narrow``) the pass
    evaluates only the active pieces, the core without masks, scatters
    their widths into the full-length buffer and sums all of it in the same
    order, so ``L(c)`` has the same bits as a pass over every piece; a
    level outside the bracket raises ``ValueError``.  The slope is summed
    over the core and then over the border, so its last bits may differ
    from a full pass; the search's result does not depend on them (see the
    module docstring).
    """
    p = profile if isinstance(profile, _LevelProfile) else _LevelProfile(profile)
    lo, hi = p.bracket
    if not lo <= c <= hi:
        raise ValueError(f"level {c!r} lies outside the bracket [{lo!r}, {hi!r}] "
                         f"this profile was narrowed to")
    w = np.subtract(c, p.a_offset, out=p.w)
    w_border, edge, lo_border, hi_border = p.border
    # a border piece that reaches c nowhere counts nothing, one that lies
    # wholly at or below c (a constant piece at c too) counts in full, and
    # the rest straddle c
    none, full, straddle = p.masks
    none = np.greater_equal(p.v_min, c, out=none)
    full = np.less_equal(p.v_max, c, out=full)
    straddle = np.logical_or(none, full, out=straddle)
    np.logical_not(straddle, out=straddle)
    # off the straddling pieces these may be nan or inf; the border's are
    # masked, and the core has none
    with np.errstate(all="ignore"):
        # the buffer holds the slope's 1 / |c - d| first, then the widths
        np.divide(1.0, np.abs(w, out=w), out=w)
        core_slope = 0.0 if p.core is None else np.add.reduce(p.core[0])
        slope = core_slope + np.add.reduce(w_border, where=straddle)
        np.subtract(c, p.a_offset, out=w)
        w /= p.a_coef
        np.log(w, out=w)
        w /= p.log_b
        # clipped into the piece: np.clip's values up to the sign of a zero,
        # and the log makes no -0.0
        np.minimum(np.maximum(w, p.a_lo, out=w), p.a_hi, out=w)
    # measure below c: root - lo on rising pieces, hi - root on falling ones
    np.abs(np.subtract(w_border, edge, out=w_border), out=w_border)
    if p.core is not None:
        _, w_rise, lo_rise, w_fall, hi_fall = p.core
        w_rise -= lo_rise
        np.subtract(hi_fall, w_fall, out=w_fall)
    np.copyto(w_border, 0.0, where=none)
    np.subtract(hi_border, lo_border, out=w_border, where=full)
    del none, full, straddle  # an unnarrowed pass's own masks go before the sum's lists
    if p.index is not None:
        p.widths[p.index] = w
    level = min(1.0, max(0.0, compensated_sum(p.widths)))
    return level, float(slope) / p.log_b


def _ordinal(x: float) -> int:
    """Rank of ``x`` among binary64 values; +0.0 and -0.0 share rank 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _midpoint(lo: float, hi: float) -> float:
    """The float halfway from ``lo`` to ``hi`` by rank, so 64 halvings end any bracket."""
    k = (_ordinal(lo) + _ordinal(hi)) // 2
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return x if k >= 0 else -x


def median_offset(profile: DeltaProfile) -> float:
    """Least minimizer of ``c -> integral |delta - c|``.

    Returns ``c_lo = min{c : measure{delta <= c} >= 1/2}`` to the last bit
    of the computed level function.  Every offset in the median set attains
    the same distance, so its lower end is all a circle row needs.

    The search keeps a bracket ``(lo, hi]`` with the level below 1/2 at
    ``lo`` and at least 1/2 at ``hi``.  It starts just below the lowest
    value of ``delta`` and at the highest, where the level is 1, with the
    first probe at the mean of ``delta``.  Each probe is one
    ``level_measure`` pass that returns ``L(c)`` and its slope
    ``L'(c) = sum 1 / (|c - d_i| ln b)`` over the exponential pieces whose
    value range straddles ``c``.  The next probe is the Newton step when it
    lands inside the bracket, and the midpoint by rank otherwise (always,
    where the slope is 0).  The computed level is a staircase at the scale
    of rounding, so near 1/2 Newton stalls on one side: each further probe
    on the same side doubles the step, and a level of exactly 1/2 steps by
    one ulp, so the other side is found in a few probes instead of by
    halving from afar.

    Once probes have landed on both sides, the search asks
    ``_LevelProfile.steps`` for the floats of the bracket where the level
    can change: the ``v_min`` and ``v_max`` inside it, the multiples of a
    grid step ``h`` fine enough to hold every rounding tie of
    ``fl(c - d_i)``, the next float after each, and ``hi``.  The level is
    constant from one of them to the next, so ``c_lo`` is one of them; with
    at most ``_STEPS_MAX`` the search bisects over the list, one pass per
    halving, and ends.  Otherwise the Newton steps go on and the search
    asks again once the bracket is narrow enough.  Every probe lies inside
    the open bracket, so the search ends, at the latest at adjacent
    floats, where ``c_lo = hi``.  A constant profile starts at adjacent
    floats, so it returns its one value without a probe.

    A profile of ``_NARROW_MIN_PIECES`` or more is narrowed to the bracket
    once probes have landed on both sides; the module docstring says why
    the result keeps its bits.
    """
    level = _LevelProfile(profile)
    lo = math.nextafter(float(np.minimum.reduce(level.v_min)), -math.inf)
    hi = float(np.maximum.reduce(level.v_max))
    c = level.mean
    narrow = level.piece_count >= _NARROW_MIN_PIECES
    stretch = 1.0
    was_above = None
    sides = set()
    steps, retry = None, math.inf
    while math.nextafter(lo, hi) < hi:
        if len(sides) == 2 and hi - lo <= retry:
            steps, retry = level.steps(lo, hi)
            if steps is not None:
                break
        if not lo < c < hi:
            c = _midpoint(lo, hi)
        # looked up on the module at each probe; the benchmark counts these calls
        level_c, slope = level_measure(level, c)
        above = level_c >= 0.5
        if above:
            hi = c
        else:
            lo = c
        sides.add(above)
        if narrow and len(sides) == 2:
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
    if steps is not None:
        # the level is constant from one step to the next: bisect over them
        below, at = -1, len(steps) - 1
        while at - below > 1:
            mid = (below + at) // 2
            if level_measure(level, steps[mid])[0] >= 0.5:
                at = mid
            else:
                below = mid
        hi = steps[at]
    return hi


def w1_line(F: PiecewiseCdf, G: PiecewiseCdf) -> TransportResult:
    """Kantorovich distance on [0, 1]: the L1 norm of the CDF difference."""
    return TransportResult(integral_abs(delta_profile(F, G), 0.0), 0.0)


def w1_circle(F: PiecewiseCdf, G: PiecewiseCdf) -> TransportResult:
    """Kantorovich distance on the circle via exact offset minimization.

    The reported offset is the lower end of the minimizing interval (ties
    broken deterministically); the distance never exceeds the line distance
    or the circle diameter 1/2.
    """
    profile = delta_profile(F, G)
    c = median_offset(profile)
    return TransportResult(integral_abs(profile, c), c)


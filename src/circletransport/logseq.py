"""Fractional parts of base-b logarithms of 1..N and their exact step CDF.

Fractional parts are never computed as ``log(k)/log(b)`` minus a floor, which
loses digits near powers of b.  Instead the digit count is found by exact
integer comparison and the logarithm is taken of the mantissa
``k / b**(digits-1)`` in [1, b), so results carry full relative precision and
powers of b map to exactly 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import CircleEmpirical, PiecewiseCdf, _check_base, _step_cdf, build_empirical
from .summation import _SPAN_MAX

__all__ = [
    "LogSequenceSpec",
    "digit_count",
    "frac_log",
    "build_nu",
    "closed_form_cdf",
    "reference_rotation",
]


_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class LogSequenceSpec:
    """Base/length pair with the derived digit count n: b**(n-1) <= N < b**n.

    This is the engine's validity envelope: an integer base b >= 2, and at
    most the largest n digits with b**(n+1) <= 2**63 - 1 (17 in base 10, 61
    in base 2).  The bound is int64 because ``build_nu`` holds the integers
    up to N and the powers of b up to b**n in int64 arrays; the guard keeps
    one more power of b as headroom.  Past it they would wrap around silently.
    """

    base: int
    count: int
    digits: int = field(init=False)

    def __post_init__(self):
        # both stored as ints, so a float base such as 10.0 or a float count
        # such as 1e6 takes the integer path
        count, base = _positive_int(self.count, "count"), _check_base(self.base)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "base", base)
        digits = digit_count(base, count)
        if base ** (digits + 1) > _INT64_MAX:
            largest = digit_count(base, _INT64_MAX // base) - 1
            raise ValueError(
                f"N={count} overflows exact integer arithmetic for base {base}; "
                f"largest supported digit count is {largest}")
        object.__setattr__(self, "digits", digits)


def _positive_int(value, name: str) -> int:
    """``value`` as an int; anything but a positive integral value is refused."""
    # written so that a NaN and an infinity fail it
    if not 1 <= value < math.inf or int(value) != value:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def digit_count(base: int, k: int) -> int:
    """Number of base-``b`` digits of ``k``, by integer comparisons only."""
    k, base = _positive_int(k, "k"), _check_base(base)
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
    spec = LogSequenceSpec(base, count)  # the (base, N) envelope
    ks = np.arange(1, spec.count + 1, dtype=np.int64)
    return build_empirical(_frac_log_many(spec.base, ks), spec.base)


class _StepPieces:
    """The pieces of ``closed_form_cdf(base, count)``, written range by range.

    Piece k starts at the fractional log of the integer i_k: the n-digit
    i = b**(n-1)..N first, then the (n-1)-digit i = floor(N/b)+1 ..
    b**(n-1)-1, whose mantissas wrap around.  ``bounds`` writes bounds
    ``start..stop - 1``, bound ``size`` being 1.0; ``jumps`` writes the jump
    counts (the CDF's jumps times N) of pieces ``start..stop - 1``, and
    ``levels`` their levels.  Every range gives each entry the float
    operations of the whole array, so a caller may write the pieces in
    spans.

    Construction refuses a row whose breakpoints binary64 cannot resolve,
    before any piece is written: written span by span, such a row would run
    for years before its piece checks met the first tie.  Neighbouring
    bounds lie about 1 / (i ln b) apart, least at the end of a block, where
    their ulp is largest.  So the row is refused when a block's last two
    bounds are not strictly increasing, or lie less than one ulp apart in
    exact arithmetic, which forces ties among the block's last integers.
    The piece checks still test every bound.
    """

    def __init__(self, spec: LogSequenceSpec):
        b, N, n = spec.base, spec.count, spec.digits
        self.base, self.count = b, N
        top = b ** (n - 1)  # the first n-digit integer
        first = N // b + 1  # the first (n-1)-digit integer whose block wraps
        self.size = N + 1 - first
        split = N + 1 - top  # pieces of the n-digit block, before the wrapped ones
        # each block as (first piece, end piece, its first integer, the divisor
        # that maps it into [1, b))
        self._blocks = ((0, split, top, top), (split, self.size, first, top // b))
        self._log_b = math.log(b)
        # the powers b**j <= N, j >= 1; those up to 4096 make the period table,
        # 1 + v_b(r) over one period r < P = b**K, the last of them (1 if there
        # are none), with 1 + K at r = 0: at most 4096 entries
        self._powers = [b ** j for j in range(1, n)]
        K = sum(p <= 4096 for p in self._powers)
        self._period = np.ones(b ** K)
        for p in self._powers[:K]:
            self._period[::p] += 1.0
        self._larger = self._powers[K:]  # each adds one jump at its multiples
        probe = np.empty(2)
        for lo, hi, i, _ in self._blocks:
            if hi - lo < 2:
                continue
            self.bounds(hi - 2, hi, probe)  # the block's last two integers
            before, last = probe.tolist()
            # log_b(i / (i - 1)), i the block's last integer
            gap = math.log1p(1.0 / (i + hi - lo - 2)) / self._log_b
            if not (before < last and gap >= math.ulp(last)):
                raise ValueError(
                    f"piece bounds must be strictly increasing: at N={N} in base {b} the "
                    f"fractional logs of neighbouring integers are closer than binary64 resolves")

    def _parts(self, start, stop):
        """``(a, z, i, scale)`` per block that pieces ``start..stop - 1`` meet:
        they land at ``a:z`` of the output, the first of them at integer i,
        and ``scale`` maps the block's integers into [1, b)."""
        for lo, hi, i, scale in self._blocks:
            s, e = max(start, lo), min(stop, hi)
            if s < e:
                yield s - start, e - start, i + (s - lo), scale

    def bounds(self, start: int, stop: int, out: np.ndarray) -> None:
        for a, z, i, scale in self._parts(start, stop):
            # the i as floats, a ramp that doubles in place from its first 256:
            # exact below 2**53, past any row that runs, with no temporary of
            # the range's length (and faster than np.arange and a copy)
            part = out[a:z]
            k = min(256, z - a)
            part[:k] = np.arange(i, i + k, dtype=np.float64)
            while k < z - a:
                step = min(k, z - a - k)
                np.add(part[:step], k, out=part[k:k + step])
                k += step
            part /= scale
            np.log(part, out=part)
            part /= self._log_b
        if stop > self.size:
            out[self.size - start] = 1.0

    def jumps(self, start: int, stop: int, out: np.ndarray) -> None:
        """The mantissa of i is shared by the k <= N that are i, i/b, ...
        while b divides: a jump of 1 + v_b(i), one more at each multiple of
        each power b**j <= N, j >= 1.

        The jumps are copied from the period table, 1 + v_b(i mod P), and
        each multiple of a power b**j > P, j <= log_b N, gets one more, so
        a range takes a few numpy calls and one per such power.  ``out`` is
        contiguous: the whole periods are written through a reshaped view.
        """
        T = self._period
        P = T.size
        for a, z, i, _ in self._parts(start, stop):
            part = out[a:z]
            head = min(-i % P, z - a)  # up to the first multiple of P
            part[:head] = T[i % P:i % P + head]
            full = (z - a - head) // P * P
            part[head:head + full].reshape(-1, P)[:] = T
            part[head + full:] = T[:z - a - head - full]
            for p in self._larger:
                part[-i % p::p] += 1.0

    def jumps_before(self, stop: int) -> int:
        """The jumps of pieces ``0..stop - 1`` summed, as an exact int.

        By Legendre's formula: the integers a..z of a block have z - a + 1
        jumps of 1 and one more at each multiple of each power b**j <= N,
        j >= 1, of which there are floor(z / b**j) - floor((a - 1) / b**j).
        """
        total = 0
        for lo, hi, a, _ in self._parts(0, stop):
            z = a + hi - lo - 1
            total += z - a + 1 + sum(z // p - (a - 1) // p for p in self._powers)
        return total

    def levels(self, start: int, stop: int, out: np.ndarray) -> None:
        """The CDF's levels on pieces ``start..stop - 1``: the running jump
        count, from ``jumps_before(start)``, over N.  The sums are exact
        integers below 2**53, so any range, an empty one included, has the
        bits of the whole array."""
        self.jumps(start, stop, out)
        out[:1] += self.jumps_before(start)
        np.add.accumulate(out, out=out)
        out /= self.count


# A line row is refused past this many pieces: about 7 minutes at the
# 40 ns a piece that a streamed row takes on one CPU of a 2-CPU Xeon
# (0.20 s for the 5M pieces of (2, 10^7)), so 10^10 * 40 ns = 400 s.  The
# rows it refuses start at N of about 1.1e10 in base 10 and 2e10 in base 2.
_PIECE_BUDGET = 10 ** 10


class _RowPieces:
    """The pieces of ``delta_profile(closed_form_cdf(b, N), G)``, written
    span by span for ``transport.integral_abs``, with no array over them.

    ``G`` has one or two pieces, as the rotated exponential laws have.  The
    joint pieces are written from ``_StepPieces``, which refuses a row past
    binary64 resolution when this is built; a row of more than
    ``_PIECE_BUDGET`` pieces is refused next.  G's inner bound v goes where
    ``delta_profile`` inserts it, at ``np.searchsorted(F.bounds, v)``
    unless F has it, and the joint piece it starts repeats F's level on the
    piece before it.  Each joint piece takes the operations it takes in
    the profile: its level (``_StepPieces.levels``) minus G's offset, 0.0
    minus G's coef, and ``b**t`` at its bounds.  So ``integral_abs`` over
    this cover has the bits it has over the profile.
    """

    def __init__(self, spec: LogSequenceSpec, G: PiecewiseCdf):
        F = _StepPieces(spec)
        one = np.empty(1)

        def bound(k):
            F.bounds(k, k + 1, one)
            return one[0]

        # np.searchsorted(F.bounds, v), F's bounds running from 0 < v to 1 >= v;
        # a G of one piece has v = 1, F's last bound
        v = G.bounds[1]
        at = bisect.bisect_left(range(F.size + 1), v, 1, key=bound)
        new = bool(bound(at) != v)
        self.base, self.piece_count = spec.base, F.size + new
        if self.piece_count > _PIECE_BUDGET:
            raise ValueError(
                f"a line row at N={F.count} in base {F.base} has {self.piece_count} pieces, "
                f"past the budget of {_PIECE_BUDGET} (about 7 minutes at 40 ns a piece)")
        self._F, self._G, self._v = F, G, v
        self._ins = at if new else F.size + 1  # the joint index of v; past every index if not new
        self._level = F.jumps_before(at) / F.count  # F's level on piece at - 1, which v splits
        self._landing = (0, at, self.piece_count)  # the joint pieces where G's pieces start and end

    def spans(self, cuts):
        """Yield ``(bounds, powers, coef, offset)`` for each ``(start, stop)``
        of ``cuts``, spans that ``summation.spans`` cuts from the joint
        pieces, in any order: a ``DeltaProfile``'s slices, written.  Each
        yielded span is a view of scratch arrays, made per call, that later
        spans reuse: it is valid only until the next span.  Its bounds, the
        next span's first bound included, are checked as ``PiecewiseCdf``
        checks them.

        A span's bounds, their powers and its levels depend on the span
        alone: ``_StepPieces.levels`` gives any range the bits of the whole
        array, so any span has the same bits however it is reached.
        """
        F, G, v, ins, landing = self._F, self._G, self._v, self._ins, self._landing
        coef_g = 0.0 - G.coef
        width = min(self.piece_count, _SPAN_MAX)
        columns, coefs = np.empty((3, width + 1)), np.empty(width)

        def joint(write, start, stop, out, inserted):
            """``out`` = entries start..stop - 1 of an array over the joint pieces
            or bounds, written as F's with ``inserted`` at ``ins``."""
            if start <= ins < stop:
                write(start, ins, out[:ins - start])
                out[ins - start] = inserted
                write(ins, stop - 1, out[ins + 1 - start:])
            else:
                shift = int(ins < start)
                write(start - shift, stop - shift, out)

        for start, stop in cuts:
            size = stop - start
            bounds, powers = columns[:2, :size + 1]
            offset, coef = columns[2, :size], coefs[:size]
            joint(F.bounds, start, stop + 1, bounds, v)
            if not np.logical_and.reduce(bounds[1:] > bounds[:-1]):
                raise ValueError("piece bounds must be strictly increasing")
            np.power(float(F.base), bounds, out=powers)
            joint(F.levels, start, stop, offset, self._level)
            for g in range(G.piece_count):
                a, z = (min(max(landing[i] - start, 0), size) for i in (g, g + 1))
                coef[a:z] = coef_g[g]
                np.subtract(offset[a:z], G.offset[g], out=offset[a:z])
            yield bounds, powers, coef, offset


def closed_form_cdf(base: int, count: int) -> PiecewiseCdf:
    """Step CDF of ``build_nu(base, count)`` by running jump counts.

    Its pieces are those of ``_StepPieces``: each level is a running sum of
    the jumps 1 + v_b(i), divided by N, in O(N) work (``_StepPieces.levels``).
    The sums are integer-valued floats, exact below 2**53 like the bounds'
    counts, so each ``k / N`` is the exact count's.
    """
    pieces = _StepPieces(LogSequenceSpec(base, count))
    levels = np.empty(pieces.size)
    pieces.levels(0, pieces.size, levels)
    bounds = np.empty(pieces.size + 1)
    pieces.bounds(0, pieces.size + 1, bounds)
    return _step_cdf(pieces.base, bounds, levels)


def reference_rotation(base: int, count: int) -> float:
    """Rotation ``<-log_b N>`` aligning the exponential law with ``nu_N``."""
    fl = frac_log(base, count)
    return 0.0 if fl == 0.0 else 1.0 - fl

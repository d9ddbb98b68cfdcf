"""Length-independent accurate summation for long piecewise accumulations.

The block rule, the one place it is defined: an array of at most ``_BLOCK``
floats is summed by ``math.fsum`` (exactly rounded).  A longer array is cut
into blocks of ``_BLOCK`` from its start; each full block is reduced with
numpy's pairwise summation, the short tail (if any) with ``fsum``, and the
block totals with ``fsum``.  Naive left-to-right accumulation over a million
pieces loses about three digits; this rule's error does not grow with the
length.

``block_sums`` returns the floats that the last ``fsum`` takes.  Each full
block's total depends on that block alone, so a caller may evaluate a long
array in the spans that ``spans`` cuts, collect every span's
``block_sums`` and ``fsum`` them once: the result has the bits of
``compensated_sum`` over the whole array.

``fsum`` over a list costs about 30 ns a float, in Python float objects,
so a short array or a tail does not reach it float by float.
``_short_parts`` hands it a few floats whose exact sum is the array's, so
their ``fsum`` has the same bits.  They come from the error-free extraction
of Rump, Ogita and Oishi ("Accurate floating-point summation, part I", SIAM
J. Sci. Comput. 31, 2008).  Take a power of two sigma >= 2**M * max|x| for
n floats with n + 2 <= 2**M.  Then q = (x + sigma) - sigma and x - q are
exact, every q is a multiple of 2**-53 * sigma, and so is each partial sum
of the q, which is at most sigma in magnitude: numpy's reduce of the q is
exact in any order.  The loop takes that sum as one part and goes on with
the x - q, each at most 2**-53 * sigma, until they are all zero: two or
three rounds for a level pass's widths, more only where the exponents
spread wider.  An array shorter than the break-even ``_SPLIT_MIN``, all
zeros, a maximum that is inf or nan, or one so large that sigma would pass
2**1023 goes to ``fsum`` as a list, so the sign of its zero sum, its inf and
nan, and ``fsum``'s ``ValueError`` and ``OverflowError`` stay ``fsum``'s own.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

_BLOCK = 4096

# Long piece arrays are evaluated and checked in spans of this many pieces, a
# multiple of the summation block of at least two blocks (see ``spans``).
# Temporaries of a span, 256 KB each, stay in a 2 MB L2 cache.  On a 2-CPU
# Xeon, fastest to median of seven, over two rounds: one
# ``transport.integral_abs`` call over a profile took 47-68 ms at base 2,
# N = 10^7 (5M pieces), c = 0, with spans of 2 to 16 blocks and 77-79 ms
# with 64 (220-340 ms in one pass over whole arrays), and 26-36 ms at base
# 10, N = 10^6 and the median offset with 2 to 16 blocks, 45-46 with 64
# (60-74 ms in one pass).  A streamed line row at base 2, N = 10^7 took
# 133-179 ms on one CPU with any of 2 to 64 blocks.  On two CPUs
# ``transport.integral_abs`` hands whole runs of spans to a forked worker,
# so the span length sets no hand-off cost there.  A caller that makes several
# span-length temporaries at once keeps them in buffers made once per
# call: made anew on every span, glibc's malloc served them from the top
# of the heap and trimmed it again after each span, which took 25k minor
# faults and about 45 ms more in one such call at base 2, N = 10^7, unless
# an earlier free of a multi-megabyte array had happened to raise malloc's
# thresholds.
_SPAN = 8 * _BLOCK

# the longest span: a remainder of at most ``_BLOCK`` joins the last one
_SPAN_MAX = _SPAN + _BLOCK


# The extraction's M: 2**M >= _BLOCK + 2, so M = 13, and sigma = 2**(e + M)
# where max|x| < 2**e (``math.frexp``).  A maximum below _SPLIT_MAX keeps
# sigma finite.
_SPLIT = (_BLOCK + 1).bit_length()
_SPLIT_MAX = math.ldexp(1.0, 1023 - _SPLIT)
# The break-even of the extraction against ``fsum`` over a list.  On a
# 2-CPU Xeon, one CPU, fastest of five, over the 11,208 arrays that
# perfbench's seed-0 ``small-rows`` rows sum: at 384-447 floats 10.6 us a
# sum as a list against 11.0 us by parts, at 448-511 12.4 against 11.3.
# The extraction's dozen numpy calls take 10-13 us at any length up to
# 1,000; on random widths of 1,875 floats a sum took 59 us as a list and
# 14.5 us by parts.
_SPLIT_MIN = 448


def _short_parts(v: np.ndarray) -> list[float]:
    """For ``v`` of at most ``_BLOCK`` floats, a few floats whose exact sum
    is ``v``'s, so their ``fsum`` has the bits of ``fsum(v.tolist())``;
    ``v`` is left as it is."""
    if v.size < _SPLIT_MIN:
        return v.tolist()
    q = np.abs(v)
    m = np.maximum.reduce(q)
    if not 0.0 < m < _SPLIT_MAX:  # all zeros, inf, nan, or sigma past 2**1023
        return v.tolist()
    r, parts = v.copy(), []
    while m:
        sigma = math.ldexp(1.0, math.frexp(m)[1] + _SPLIT)
        np.subtract(np.add(r, sigma, out=q), sigma, out=q)
        parts.append(float(np.add.reduce(q)))
        r -= q
        m = np.maximum.reduce(np.abs(r, out=q))
    return parts


def block_sums(values) -> list[float]:
    """The floats whose ``math.fsum`` is ``compensated_sum(values)``."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if v.size <= _BLOCK:
        return _short_parts(v)
    nfull = (v.size // _BLOCK) * _BLOCK
    parts = np.add.reduce(v[:nfull].reshape(-1, _BLOCK), axis=1).tolist()
    if nfull < v.size:
        parts.append(math.fsum(_short_parts(v[nfull:])))
    return parts


def compensated_sum(values) -> float:
    """Sum an array of floats by the block rule of this module."""
    return math.fsum(block_sums(values))


def spans(size: int) -> Iterable[tuple[int, int]]:
    """``(start, stop)`` pairs cutting ``range(size)`` into spans of
    ``_SPAN`` whose ``block_sums`` together are those of the whole range.

    ``_SPAN`` is a multiple of ``_BLOCK`` of at least two blocks.  Spans
    start at multiples of ``_SPAN``, and a remainder of at most ``_BLOCK``
    joins the span before it.  So every span holds more than ``_BLOCK``
    values unless it is the whole range: a span of at most ``_BLOCK`` is
    fsummed as it stands, where the whole array reduces it pairwise.
    """
    starts = range(0, max(size - _BLOCK, 1), _SPAN)
    return zip(starts, itertools.chain(starts[1:], (size,)))

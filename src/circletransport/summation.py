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
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

_BLOCK = 4096

# Long piece arrays are evaluated and checked in spans of this many pieces, a
# multiple of the summation block of at least two blocks (see ``spans``).
# Temporaries of a span, 128 KB each, stay in a 2 MB L2 cache.  On a 2-CPU
# Xeon one ``transport.integral_abs`` call took (fastest to median of seven)
# at base 2, N = 10^7 (5M pieces), c = 0: 68-95 ms with spans of 2, 4 or 8
# blocks, 85-103 ms with 16, 122-142 with 64 and 129-203 with 256, against
# 220-340 ms in one pass over whole arrays; at base 10, N = 10^6 and the
# median offset: 31-48 ms with 2 to 8 blocks, 38-52 with 16 and 60-68 with
# 64, against 60-74 in one pass.  A caller that makes several span-length
# temporaries at once keeps them in buffers made once per call: made anew
# on every span, glibc's malloc served them from the top of the heap and
# trimmed it again after each span, which took 25k minor faults and about
# 45 ms more in one such call at base 2, N = 10^7, unless an earlier free of
# a multi-megabyte array had happened to raise malloc's thresholds.
_SPAN = 4 * _BLOCK


def block_sums(values) -> list[float]:
    """The floats whose ``math.fsum`` is ``compensated_sum(values)``."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if v.size <= _BLOCK:
        return v.tolist()
    nfull = (v.size // _BLOCK) * _BLOCK
    parts = v[:nfull].reshape(-1, _BLOCK).sum(axis=1).tolist()
    if nfull < v.size:
        parts.append(math.fsum(v[nfull:].tolist()))
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

"""The block rule's short sums: exact parts in place of every float.

``summation.block_sums`` hands ``fsum`` a few floats that sum exactly to an
array of at most ``_BLOCK`` floats (or to a longer array's tail).  Every
result must keep the bits, the special values and the exceptions of
``fsum`` over the whole list, as ``conftest.one_pass_sum`` writes the rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from circletransport.summation import _BLOCK, _SPLIT_MAX, _SPLIT_MIN, block_sums, compensated_sum
from conftest import one_pass_sum

LENGTHS = [0, 1, _SPLIT_MIN - 1, _SPLIT_MIN, _SPLIT_MIN + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
           2 * _BLOCK + _SPLIT_MIN + 3, 3 * _BLOCK + _BLOCK - 1]


def outcome(fn, v):
    """``fn(v)``'s bits, or the type and message of what it raised."""
    try:
        return fn(v).hex()
    except (ValueError, OverflowError) as e:
        return type(e).__name__, str(e)


def assert_rule_kept(v):
    before = v.tobytes()
    want = outcome(one_pass_sum, v)
    assert outcome(compensated_sum, v) == want
    assert outcome(lambda v: math.fsum(block_sums(v)), v) == want
    assert v.tobytes() == before  # the caller's array is left as it was


def spread(rng, n):
    """Signed floats with exponents spread over [-1074, 0], subnormals included."""
    signs = rng.choice([-1.0, 1.0], n)
    return np.ldexp(signs * (1.0 + rng.random(n)), rng.integers(-1074, 1, n))


def cancelling(rng, n):
    """Pairs x, -x in random order, and one more float if n is odd."""
    half = spread(rng, n // 2) * rng.random(n // 2)
    v = np.concatenate([half, -half, rng.normal(size=n % 2)])
    rng.shuffle(v)
    return v


def ties(rng, n):
    """1 and then 2**-60s: 128 of them make a half-way tie at 1 + 2**-53."""
    return np.concatenate([[1.0], np.full(max(n - 1, 0), 2.0 ** -60)])[:n]


def zeros(rng, n):
    return rng.choice([0.0, -0.0], n)


def widths(rng, n):
    """Shaped like a level pass: nonnegative, about 1/n each, some zeros."""
    w = rng.random(n) / max(n, 1)
    w[rng.random(n) < 0.2] = 0.0
    return w


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("make", [spread, cancelling, ties, zeros, widths])
def test_short_sums_keep_the_bits_of_fsum(make, n, rng):
    for _ in range(3):
        assert_rule_kept(make(rng, n))


@pytest.mark.parametrize("n", [_SPLIT_MIN, _BLOCK - 1, 2 * _BLOCK + _SPLIT_MIN + 3])
def test_special_values_keep_what_fsum_does(n, rng):
    # inf, nan, inf with -inf, and maxima whose sigma would pass 2**1023,
    # at the ends of a short array or in a longer one's tail: numpy's
    # reduce of a full block would warn on them, on either side of the rule
    inf, nan = math.inf, math.nan
    first = 0 if n <= _BLOCK else n // _BLOCK * _BLOCK
    for special in ([inf], [-inf], [nan], [inf, -inf], [nan, inf],
                    [_SPLIT_MAX], [-_SPLIT_MAX / 2], [1e308, 1e308, -1e308]):
        v = rng.normal(size=n)
        v[-len(special):] = special
        assert_rule_kept(v)
        v[first:first + len(special)] = special
        assert_rule_kept(v)
        v[first:] = np.resize(special, n - first)
        assert_rule_kept(v)


def test_all_negative_zeros():
    assert_rule_kept(np.full(_BLOCK, -0.0))


@pytest.mark.parametrize("n", [_SPLIT_MIN, _BLOCK])
def test_short_arrays_become_a_few_parts(n, rng):
    # a level pass's widths reach fsum as two or three floats, not n
    assert len(block_sums(widths(rng, n))) <= 4
    # one part per block, and one for the tail
    assert len(block_sums(widths(rng, 2 * _BLOCK + n))) == 3


# up to 2**1011, past the extraction's range, but short of a full block's overflow
finite = st.floats(min_value=-2.0 ** 1011, max_value=2.0 ** 1011)
unit = st.floats(min_value=-1.0, max_value=1.0)
scaled = st.builds(math.ldexp, st.floats(min_value=1.0, max_value=2.0, exclude_max=True)
                   | st.floats(min_value=-2.0, max_value=-1.0, exclude_min=True),
                   st.integers(-1074, 0))


@settings(max_examples=150, deadline=None)
@given(v=hnp.arrays(np.float64, st.sampled_from(LENGTHS) | st.integers(0, 3 * _BLOCK),
                    elements=scaled | unit | finite, fill=scaled | unit))
def test_any_array_keeps_the_bits_of_fsum(v):
    assert_rule_kept(v)

"""Line-only rows streamed span by span against the materialized profile.

The reference is ``integral_abs(delta_profile(closed_form_cdf(b, N), G), 0.0)``,
compared by ``float.hex``: the stream must give every joint piece the float
operations that the profile gives it.
"""

import time
import tracemalloc

import numpy as np
import pytest

from circletransport import compute_metrics
from circletransport.logseq import (
    LogSequenceSpec,
    _RowPieces,
    _StepPieces,
    closed_form_cdf,
    reference_rotation,
)
from circletransport.measures import cdf_wrapped_exponential, delta_profile
from circletransport.summation import _SPAN
from circletransport.transport import integral_abs, median_offset


def reference(base, N, G):
    return integral_abs(delta_profile(closed_form_cdf(base, N), G), 0.0).hex()


def row_reference(base, N):
    return reference(base, N, cdf_wrapped_exponential(base, reference_rotation(base, N)))


def landing(base, N, v):
    """Where ``delta_profile`` puts a bound v of G among F's, and whether it is new."""
    F = closed_form_cdf(base, N)
    at = int(np.searchsorted(F.bounds, v))
    return at, F.piece_count, bool(F.bounds[at] != v)


@pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 39])
def test_small_rows_keep_the_bits(base):
    for N in range(base, 401):
        assert compute_metrics(base, N, ("line",)).d_line.hex() == row_reference(base, N), N


# (base, N, how G's inner bound 1 - y meets F's bound of i = N, the piece it
# starts): "equal" inserts nothing, "above" and "below" insert a bound just
# past or just before it, and y = 0 gives G one piece and no inner bound
ROWS = [
    (2, 64, "y=0", None), (10, 1000, "y=0", None), (3, 81, "y=0", None),
    (2, 3, "equal", 1), (2, 13, "equal", 5), (2, 49152, "equal", _SPAN),
    (2, 5, "above", 2), (2, 147455, "above", _SPAN), (2, 81920, "above", _SPAN + 1),
    (7, 117645, "above", "last"),
    (2, 33, "below", 1), (10, 116384, "below", _SPAN), (2, 81921, "below", _SPAN + 1),
]


@pytest.mark.parametrize("base,N,case,piece", ROWS)
def test_rows_of_every_landing_keep_the_bits(base, N, case, piece):
    y = reference_rotation(base, N)
    if case == "y=0":
        assert y == 0.0
    else:
        at, pieces, new = landing(base, N, 1.0 - y)
        top = base ** (LogSequenceSpec(base, N).digits - 1)
        assert at == {"equal": N - top, "below": N - top, "above": N - top + 1}[case]
        assert new == (case != "equal")
        assert at == (pieces if piece == "last" else piece)
    assert compute_metrics(base, N, ("line",)).d_line.hex() == row_reference(base, N)


# (2, 40000): 20,000 pieces in two spans; its bounds from piece 10,402 on lie
# in [0.5, 1), where y = 1 - t gives G the inner bound 1 - y == t exactly
@pytest.mark.parametrize("k,where", [
    (1, "inside"), (7000, "inside"), (12000, "at"), (_SPAN - 1, "inside"), (_SPAN, "inside"),
    (_SPAN, "at"), (_SPAN + 1, "inside"), (_SPAN + 1, "at"), (20000, "inside"),
])
def test_any_inner_bound_keeps_the_bits(k, where):
    """G's inner bound on the first piece, the last piece, a span edge and
    anywhere, as a bound of F (``at``) or inside piece k - 1 of F."""
    base, N = 2, 40000
    bounds = closed_form_cdf(base, N).bounds
    t = bounds[k] if where == "at" else (bounds[k - 1] + bounds[k]) / 2
    G = cdf_wrapped_exponential(base, 1.0 - t)
    assert landing(base, N, G.bounds[1]) == (k, 20000, where == "inside")
    assert integral_abs(_RowPieces(LogSequenceSpec(base, N), G), 0.0).hex() == reference(base, N, G)


def cover_matches_profile(base, N, G, c):
    """The row cover's spans, copied and joined, equal the profile's arrays
    and powers bit for bit, signed zeros included, and ``integral_abs`` over
    the cover at c has the profile's bits."""
    cover = _RowPieces(LogSequenceSpec(base, N), G)
    profile = delta_profile(closed_form_cdf(base, N), G)
    parts = [[x.copy() for x in span] for span in cover.spans()]
    assert cover.base == profile.base and cover.piece_count == profile.piece_count
    joined = {
        "bounds": np.concatenate([p[0][:-1] for p in parts] + [parts[-1][0][-1:]]),
        "powers": np.concatenate([p[1][:-1] for p in parts] + [parts[-1][1][-1:]]),
        "coef": np.concatenate([p[2] for p in parts]),
        "offset": np.concatenate([p[3] for p in parts]),
    }
    want = {"bounds": profile.bounds, "powers": profile._bound_powers(),
            "coef": profile.coef, "offset": profile.offset}
    for name, got in joined.items():
        assert np.array_equal(got.view(np.int64), want[name].view(np.int64)), name
    # the next span's first bound is the last bound of the span before it
    for before, after in zip(parts, parts[1:]):
        assert before[0][-1] == after[0][0]
    assert integral_abs(cover, c).hex() == integral_abs(profile, c).hex()


@pytest.mark.parametrize("base,N", [row[:2] for row in ROWS])
def test_row_cover_is_the_profile_piece_for_piece(base, N):
    row = compute_metrics(base, N)
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    cover_matches_profile(base, N, G, row.offset_c)


# the inner bounds of test_any_inner_bound_keeps_the_bits: F's bound k, or
# inside piece k - 1 of F, on (2, 40000)
@pytest.mark.parametrize("k,where", [
    (1, "inside"), (7000, "inside"), (12000, "at"), (_SPAN - 1, "inside"), (_SPAN, "inside"),
    (_SPAN, "at"), (_SPAN + 1, "inside"), (_SPAN + 1, "at"), (20000, "inside"),
])
def test_row_cover_with_any_inner_bound_is_the_profile(k, where):
    F = closed_form_cdf(2, 40000)
    t = F.bounds[k] if where == "at" else (F.bounds[k - 1] + F.bounds[k]) / 2
    G = cdf_wrapped_exponential(2, 1.0 - t)
    cover_matches_profile(2, 40000, G, median_offset(delta_profile(F, G)))


def test_line_row_holds_no_piece_array():
    # (2, 10**6): 500k pieces, 4.0 MB per piece array
    compute_metrics(2, 1000, ("line",))  # imports and first allocations
    tracemalloc.start()
    try:
        compute_metrics(2, 10 ** 6, ("line",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_001 * 8


@pytest.mark.parametrize("entry", [
    lambda b, N: compute_metrics(b, N, ("line",)),
    compute_metrics,
    closed_form_cdf,
], ids=["line row", "both metrics", "closed_form_cdf"])
def test_unresolved_rows_are_refused_up_front(entry):
    # the last two bounds of the n-digit block lie 0.43 ulp apart in exact
    # arithmetic, yet round apart; the stream would run for years before it
    # met the first tie
    start = time.perf_counter()
    with pytest.raises(ValueError, match="strictly increasing: at N=9000000000000000 in base 10"):
        entry(10, 9 * 10 ** 15)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [_SPAN - 1, _SPAN, _SPAN + 1])
def test_a_tied_bound_fails_its_span(k, monkeypatch):
    """A bound that ties with the one before it, inside a span and at either
    side of a span edge, fails the stream as it fails ``PiecewiseCdf``."""
    original = _StepPieces.bounds

    def tied(self, start, stop, out):
        original(self, start, stop, out)
        if start <= k < stop:
            original(self, k - 1, k, out[k - start:])
    monkeypatch.setattr(_StepPieces, "bounds", tied)
    for entry in (lambda: compute_metrics(2, 40000, ("line",)), lambda: closed_form_cdf(2, 40000)):
        with pytest.raises(ValueError, match="^piece bounds must be strictly increasing$"):
            entry()

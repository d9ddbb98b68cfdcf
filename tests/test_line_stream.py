"""Line-only rows streamed span by span against the materialized profile.

The reference is ``integral_abs(delta_profile(closed_form_cdf(b, N), G), 0.0)``,
compared by ``float.hex``: the stream must give every joint piece the float
operations that the profile gives it.
"""

import os
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from circletransport import compute_metrics, transport
from circletransport.logseq import (
    _PIECE_BUDGET,
    LogSequenceSpec,
    _RowPieces,
    _StepPieces,
    closed_form_cdf,
    reference_rotation,
)
from circletransport.measures import cdf_wrapped_exponential, delta_profile
from circletransport.summation import _BLOCK, _SPAN, spans
from circletransport.transport import _FORK_MIN_PIECES, integral_abs, median_offset
from conftest import affinity, one_cpu_and_all


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
# past or just before it, and y = 0 gives G one piece and no inner bound.
# Piece 4 * _BLOCK is a block edge inside the first span; piece _SPAN is
# the first of the second span.
ROWS = [
    (2, 64, "y=0", None), (10, 1000, "y=0", None), (3, 81, "y=0", None),
    (2, 3, "equal", 1), (2, 13, "equal", 5), (2, 49152, "equal", 4 * _BLOCK),
    (2, 98304, "equal", _SPAN),
    (2, 5, "above", 2), (2, 147455, "above", 4 * _BLOCK), (2, 81920, "above", 4 * _BLOCK + 1),
    (2, 294911, "above", _SPAN), (2, 163840, "above", _SPAN + 1),
    (7, 117645, "above", "last"),
    (2, 33, "below", 1), (10, 116384, "below", 4 * _BLOCK), (2, 81921, "below", 4 * _BLOCK + 1),
    (3, 209915, "below", _SPAN), (2, 294913, "below", _SPAN + 1),
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


def inner_bound(N, k, where):
    """A G whose inner bound is F's bound k (``at``) or inside piece k - 1 of
    F, on (2, N), whose bounds from some piece on lie in [0.5, 1), where
    y = 1 - t gives G the inner bound 1 - y == t exactly."""
    F = closed_form_cdf(2, N)
    t = F.bounds[k] if where == "at" else (F.bounds[k - 1] + F.bounds[k]) / 2
    G = cdf_wrapped_exponential(2, 1.0 - t)
    assert landing(2, N, G.bounds[1]) == (k, F.piece_count, where == "inside")
    return F, G


# G's inner bound on the first piece, the last piece, a block edge inside
# the span and anywhere, on (2, 40000): 20,000 pieces in one span, its
# bounds in [0.5, 1) from piece 10,402 on
INNER_BOUNDS = [
    (1, "inside"), (7000, "inside"), (12000, "at"), (4 * _BLOCK - 1, "inside"),
    (4 * _BLOCK, "inside"), (4 * _BLOCK, "at"), (4 * _BLOCK + 1, "inside"),
    (4 * _BLOCK + 1, "at"), (20000, "inside"),
]
# and at the span edge and on the last piece, on (2, 131071): 65,536 pieces
# in two spans, its bounds in [0.5, 1) from piece 26,923 on
SPAN_EDGE_INNER_BOUNDS = [
    (_SPAN - 1, "inside"), (_SPAN, "inside"), (_SPAN, "at"), (_SPAN + 1, "inside"),
    (_SPAN + 1, "at"), (65536, "inside"),
]


def inner_bound_keeps_the_bits(N, k, where):
    _, G = inner_bound(N, k, where)
    assert integral_abs(_RowPieces(LogSequenceSpec(2, N), G), 0.0).hex() == reference(2, N, G)


@pytest.mark.parametrize("k,where", INNER_BOUNDS)
def test_any_inner_bound_keeps_the_bits(k, where):
    inner_bound_keeps_the_bits(40000, k, where)


@pytest.mark.parametrize("k,where", SPAN_EDGE_INNER_BOUNDS)
def test_an_inner_bound_at_a_span_edge_keeps_the_bits(k, where):
    inner_bound_keeps_the_bits(131071, k, where)


def cover_matches_profile(base, N, G, c):
    """The row cover's spans, copied and joined, equal the profile's arrays
    and powers bit for bit, signed zeros included, and ``integral_abs`` over
    the cover at c has the profile's bits.  Each span read on its own, in a
    shuffled order, equals the one read in order."""
    cover = _RowPieces(LogSequenceSpec(base, N), G)
    profile = delta_profile(closed_form_cdf(base, N), G)
    cuts = list(spans(cover.piece_count))
    parts = [[x.copy() for x in span] for span in cover.spans(cuts)]
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
    order = np.random.default_rng(len(cuts)).permutation(len(cuts)).tolist()
    for i, span in zip(order, cover.spans([cuts[i] for i in order])):
        for got, streamed in zip(span, parts[i]):
            assert np.array_equal(got.view(np.int64), streamed.view(np.int64)), cuts[i]
    assert integral_abs(cover, c).hex() == integral_abs(profile, c).hex()


# rows of several spans whose wrapped digit block starts inside a later
# span, in a base above the jump table's 4,096 entries, and at N = b**k,
# where G has one piece and the n-digit block holds N alone
COVER_ROWS = [row[:2] for row in ROWS] + [
    (10, 150000), (2, 2 ** 17), (3, 3 ** 11), (5000, 60000), (4099, 30 * 4099),
]


@pytest.mark.parametrize("base,N", COVER_ROWS)
def test_row_cover_is_the_profile_piece_for_piece(base, N):
    row = compute_metrics(base, N)
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    cover_matches_profile(base, N, G, row.offset_c)


@pytest.mark.parametrize("k,where", INNER_BOUNDS)
def test_row_cover_with_any_inner_bound_is_the_profile(k, where):
    F, G = inner_bound(40000, k, where)
    cover_matches_profile(2, 40000, G, median_offset(delta_profile(F, G)))


@pytest.mark.parametrize("k,where", SPAN_EDGE_INNER_BOUNDS)
def test_row_cover_with_an_inner_bound_at_a_span_edge_is_the_profile(k, where):
    F, G = inner_bound(131071, k, where)
    cover_matches_profile(2, 131071, G, median_offset(delta_profile(F, G)))


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


@pytest.mark.parametrize("b", [5000, 10 ** 7])
def test_a_row_in_a_large_base_is_built_at_once(b):
    # N < b: a jump table of one entry, not of b (which would trace 80 MB
    # at b = 10**7, and 8 GB at b = 10**9)
    closed_form_cdf(2, 1000)  # imports and first allocations
    tracemalloc.start()
    start = time.perf_counter()
    try:
        closed_form_cdf(b, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 64 * 1024


def test_a_streamed_line_row_in_a_large_base_holds_no_piece_array():
    # (10**6, 10**6): b > 4096, 999,999 pieces in 28 spans, 8.0 MB per piece
    # array, as much as a jump table of b entries would hold
    b = N = 10 ** 6
    compute_metrics(2, 1000, ("line",))  # imports and first allocations
    for cpus in one_cpu_and_all():
        with affinity(cpus):
            tracemalloc.start()
            try:
                got = compute_metrics(b, N, ("line",)).d_line.hex()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == row_reference(b, N), cpus
        assert peak < 500_001 * 8, cpus


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


@pytest.mark.parametrize("k", [4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, _SPAN - 1, _SPAN, _SPAN + 1])
def test_a_tied_bound_fails_its_span(k, monkeypatch):
    """A bound that ties with the one before it, inside a span and at either
    side of a span edge, fails the stream as it fails ``PiecewiseCdf``, on
    one CPU and on all."""
    original = _StepPieces.bounds

    def tied(self, start, stop, out):
        original(self, start, stop, out)
        if start <= k < stop:
            original(self, k - 1, k, out[k - start:])
    monkeypatch.setattr(_StepPieces, "bounds", tied)
    for cpus in one_cpu_and_all():
        for entry in (lambda: compute_metrics(2, 131071, ("line",)), lambda: closed_form_cdf(2, 131071)):
            with affinity(cpus), pytest.raises(ValueError, match="^piece bounds must be strictly increasing$"):
                entry()


def row_cover(N, base=2):
    """The cover of the line row (base, N): 16 spans at (2, 10**6)."""
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    return _RowPieces(LogSequenceSpec(base, N), G)


FORKS = pytest.mark.skipif(len(one_cpu_and_all()[-1]) < 2 or not hasattr(os, "fork"),
                           reason="integral_abs forks only where it has os.fork and two CPUs")


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The pids that ``os.fork`` returns to this process meanwhile."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def test_a_row_below_the_fork_threshold_does_not_fork(forks):
    N = 2 * _FORK_MIN_PIECES - 4
    assert row_cover(N).piece_count < _FORK_MIN_PIECES
    compute_metrics(2, N, ("line",))
    assert forks == []


@FORKS
def test_forked_integrals_keep_their_bits_and_leave_no_child(forks):
    """Over a line row's cover of 1,063,400 pieces (its d_line is pinned in
    ``test_line_rows_keep_their_bits``) and over its profile, at c = 0 and
    at the row's offset, where pieces split in every share."""
    G = cdf_wrapped_exponential(3, reference_rotation(3, 1595100))
    profile = delta_profile(closed_form_cdf(3, 1595100), G)
    calls = [(cover, c) for c in (0.0, median_offset(profile))
             for cover in (row_cover(1595100, base=3), profile)]
    with affinity(one_cpu_and_all()[0]):
        want = [integral_abs(cover, c).hex() for cover, c in calls]
    assert want[0] == "0x1.2d5fe2fd35d5ap-18" and forks == []
    workers = min(len(one_cpu_and_all()[-1]), len(list(spans(profile.piece_count)))) - 1
    for (cover, c), bits in zip(calls, want):
        assert integral_abs(cover, c).hex() == bits
        assert len(forks) == workers and no_child_is_left()
        forks.clear()


@FORKS
@pytest.mark.parametrize("k", [1500000, 1950000])
def test_a_tied_bound_in_a_workers_share_is_raised_by_the_caller(k, forks, monkeypatch):
    """(2, 4 * 10**6) has 2,000,000 pieces: on two CPUs the worker's share
    is the spans from piece 983,040 on, in both digit blocks (the wrapped
    one from piece 1,902,849).  The worker raises and replies nothing, so
    the caller raises the error by integrating that share itself."""
    original = _StepPieces.bounds

    def tied(self, start, stop, out):
        original(self, start, stop, out)
        if start <= k < stop:
            original(self, k - 1, k, out[k - start:])
    monkeypatch.setattr(_StepPieces, "bounds", tied)
    with pytest.raises(ValueError, match="^piece bounds must be strictly increasing$"):
        compute_metrics(2, 4 * 10 ** 6, ("line",))
    assert forks and no_child_is_left()


@FORKS
def test_a_share_whose_worker_dies_is_integrated_by_the_caller(forks, monkeypatch):
    """A worker killed inside its share replies nothing; the caller
    integrates that share itself, and the row keeps its bits."""
    caller, integrate = os.getpid(), transport._integrate

    def killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return integrate(*args)
    monkeypatch.setattr(transport, "_integrate", killed)
    assert compute_metrics(3, 1595100, ("line",)).d_line.hex() == "0x1.2d5fe2fd35d5ap-18"
    assert forks and no_child_is_left()


@FORKS
def test_a_failure_in_the_callers_share_leaves_no_child(forks, monkeypatch):
    def failing(values):
        raise RuntimeError("inside integral_abs")
    monkeypatch.setattr(transport, "block_sums", failing)
    with pytest.raises(RuntimeError, match="inside integral_abs"):
        integral_abs(row_cover(1595100, base=3), 0.0)
    assert forks and no_child_is_left()


def test_no_fork_beside_a_second_thread_or_on_one_cpu(monkeypatch):
    """A fork copies only the thread that calls it, so a row that is not
    its process's only thread integrates inline, as a row pinned to one
    CPU does, with the same bits."""
    def fork():
        raise AssertionError("os.fork called")
    monkeypatch.setattr(os, "fork", fork)
    with affinity(one_cpu_and_all()[0]):
        assert compute_metrics(3, 1595100, ("line",)).d_line.hex() == "0x1.2d5fe2fd35d5ap-18"
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with affinity(one_cpu_and_all()[-1]):
            assert compute_metrics(3, 1595100, ("line",)).d_line.hex() == "0x1.2d5fe2fd35d5ap-18"
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_concurrent_line_rows_keep_their_bits():
    """Six line rows at once on four threads, with the interpreter switching
    threads every microsecond: no row forks beside other threads, and each
    reads its spans into scratch of its own."""
    rows = [(2, 10 ** 6), (3, 400000), (10, 300000)] * 2
    with affinity(one_cpu_and_all()[0]):
        want = [compute_metrics(*row, ("line",)).d_line.hex() for row in rows]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(compute_metrics, *row, ("line",)) for row in rows]
            got = [f.result(timeout=120).d_line.hex() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert threading.active_count() == before
    assert no_child_is_left()


@pytest.mark.parametrize("base,N", [(10, 150000), (2, 2 ** 17), (3, 3 ** 11), (5000, 60000),
                                    (4099, 30 * 4099), (7, 117645), (2, 2 ** 17 - 1)])
def test_the_closed_form_jump_count_is_the_running_sum(base, N):
    """``_StepPieces.jumps_before(k)``, by Legendre's formula, is the running
    sum of the jumps before piece k, on both digit blocks and their edge,
    and ``levels`` over any range, an empty one included, has the bits of
    the whole array."""
    F = _StepPieces(LogSequenceSpec(base, N))
    jumps = np.empty(F.size)
    F.jumps(0, F.size, jumps)
    running = np.concatenate(([0.0], np.add.accumulate(jumps)))
    split = N + 1 - base ** (LogSequenceSpec(base, N).digits - 1)
    ks = sorted({*range(0, F.size + 1, 97), split - 1, split, split + 1, F.size} & {*range(F.size + 1)})
    assert [F.jumps_before(k) for k in ks] == running[ks].tolist()
    levels = np.empty(F.size)
    F.levels(0, F.size, levels)
    assert levels.tobytes() == (running[1:] / N).tobytes()
    for start, stop in zip(ks, ks[1:] + [F.size]):
        part = np.empty(stop - start)
        F.levels(start, stop, part)
        assert part.tobytes() == levels[start:stop].tobytes()


def test_a_row_past_the_piece_budget_is_refused_at_once(monkeypatch):
    """(10, 10**12) would stream 9e11 pieces, about 10 hours; it is refused
    before any stream, thread or worker starts."""
    streams = []
    monkeypatch.setattr(_RowPieces, "spans", lambda self, cuts: streams.append(self))
    before = threading.active_count()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="900000000000 pieces, past the budget of 10000000000"):
        compute_metrics(10, 10 ** 12, ("line",))
    assert time.perf_counter() - start < 1.0
    assert streams == [] and threading.active_count() == before
    # the budget counts the row's pieces: N - floor(N/2) in base 2, and G's
    # inner bound when it is new
    assert row_cover(2 * _PIECE_BUDGET - 2).piece_count <= _PIECE_BUDGET
    with pytest.raises(ValueError, match="past the budget"):
        row_cover(2 * _PIECE_BUDGET + 2)

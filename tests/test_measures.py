import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletransport import (
    build_empirical,
    cdf_of_empirical,
    cdf_wrapped_exponential,
    delta_profile,
    rotate_cdf,
    summation,
    transport,
)
from circletransport.logseq import closed_form_cdf, reference_rotation
from circletransport.measures import ATOM_MERGE_TOL, DeltaProfile, PiecewiseCdf
from circletransport.transport import median_offset
from conftest import random_cdf, random_step_cdf

UNIT_FLOATS = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestBuildEmpirical:
    def test_singleton(self):
        m = build_empirical([0.5], base=10)
        assert m.count == 1
        assert m.positions.tolist() == [0.5]
        assert m.weight == 1.0

    def test_sorts_and_keeps_multiplicity(self):
        m = build_empirical([0.3, 0.1, 0.3], base=10)
        assert m.positions.tolist() == [0.1, 0.3, 0.3]
        assert m.weight == pytest.approx(1 / 3)

    def test_log10_first_ten_has_double_atom_at_zero(self):
        # direct mantissa enumeration: k = 1 and k = 10 share mantissa 1
        fracs = [math.log10(k) % 1.0 for k in range(1, 11)]
        m = build_empirical(fracs, base=10)
        assert m.count == 10
        assert np.count_nonzero(m.positions == 0.0) == 2

    @pytest.mark.parametrize("positions", [[1.0], [-0.1], [0.2, 1.5], [math.nan, 0.5]])
    def test_rejects_positions_outside_unit(self, positions):
        with pytest.raises(ValueError):
            build_empirical(positions, base=10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_empirical([], base=10)

    @given(st.lists(UNIT_FLOATS, min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, positions):
        m = build_empirical(positions, base=2)
        assert m.count == len(positions)
        assert np.all(np.diff(m.positions) >= 0)
        assert np.all((m.positions >= 0) & (m.positions < 1))
        assert m.count * m.weight == pytest.approx(1.0)


class TestCdfOfEmpirical:
    def test_full_mass_at_zero(self):
        F = cdf_of_empirical(build_empirical([0.0], 10))
        for t in (0.0, 0.3, 0.999):
            assert F.value(t) == 1.0

    def test_two_atoms(self):
        F = cdf_of_empirical(build_empirical([0.25, 0.75], 10))
        assert F.value(0.1) == 0.0
        assert F.value(0.25) == 0.5
        assert F.value(0.5) == 0.5
        assert F.value(0.75) == 1.0

    def test_nu_ten_levels_match_direct_count(self):
        fracs = sorted(math.log10(k) % 1.0 for k in range(1, 11))
        F = cdf_of_empirical(build_empirical(fracs, 10))
        for t in (0.0, 0.5):
            direct = sum(1 for k in range(1, 11) if 10 ** (math.log10(k) % 1.0) <= 10 ** t + 1e-12)
            assert F.value(t) == pytest.approx(direct / 10, abs=1e-12)
        assert F.value(0.0) == pytest.approx(0.2)
        assert F.value(0.5) == pytest.approx(0.4)

    def test_total_jump_mass_is_one(self, rng):
        for _ in range(20):
            F = random_step_cdf(rng)
            jumps = np.diff(F.offset, prepend=0.0)
            assert math.fsum(jumps.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_atoms_within_merge_tolerance_collapse(self):
        F = cdf_of_empirical(build_empirical([0.5, 0.5 + ATOM_MERGE_TOL / 2], 10))
        assert F.piece_count == 2  # single merged atom plus leading zero piece


class TestWrappedExponential:
    def test_unrotated_is_plain_exponential(self):
        F = cdf_wrapped_exponential(2, 0.0)
        assert F.piece_count == 1
        for t in (0.0, 0.25, 0.5, 0.9):
            assert F.value(t) == pytest.approx(2 ** t - 1, abs=1e-15)
        assert F.value(1.0, side="left") == pytest.approx(1.0, abs=1e-15)

    def test_rotated_value_before_wrap(self):
        F = cdf_wrapped_exponential(10, 0.5)
        assert F.piece_count == 2
        expected = (10 - 10 ** 0.5) / 9
        assert F.value(0.5, side="left") == pytest.approx(expected, abs=1e-14)

    def test_rotation_by_fraction_of_exact_power_is_identity(self):
        from circletransport.logseq import reference_rotation

        y = reference_rotation(10, 100)
        assert y == 0.0
        F = cdf_wrapped_exponential(10, y)
        G = cdf_wrapped_exponential(10, 0.0)
        assert np.array_equal(F.bounds, G.bounds)
        assert np.array_equal(F.coef, G.coef)
        assert np.array_equal(F.offset, G.offset)

    @pytest.mark.parametrize("y", [-0.1, 1.0, 1.5])
    def test_rejects_rotation_outside_unit(self, y):
        with pytest.raises(ValueError):
            cdf_wrapped_exponential(10, y)

    def test_continuous_at_internal_breakpoint(self, rng):
        for b in (2, 10):
            for y in rng.random(50):
                F = cdf_wrapped_exponential(b, float(y))
                split = F.bounds[1]
                left = F.value(split, side="left")
                right = F.value(split, side="right")
                assert abs(left - right) <= 1e-14


class TestEvalCdf:
    def test_jump_semantics(self):
        F = cdf_of_empirical(build_empirical([0.5], 10))
        assert F.value(0.5, side="right") == 1.0
        assert F.value(0.5, side="left") == 0.0

    def test_exponential_values(self):
        F = cdf_wrapped_exponential(2, 0.0)
        assert F.value(0.0) == 0.0
        assert F.value(0.5) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)

    def test_left_limit_conventions(self):
        F = cdf_wrapped_exponential(3, 0.25)
        assert F.value(0.0, side="left") == 0.0
        assert F.value(1.0, side="left") == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        F = cdf_wrapped_exponential(2, 0.0)
        with pytest.raises(ValueError):
            F.value(1.0, side="right")
        with pytest.raises(ValueError):
            F.value(-0.2)
        with pytest.raises(ValueError):
            F.value(0.5, side="middle")

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_nan_probe_is_outside_the_domain(self, side):
        F = cdf_wrapped_exponential(10, 0.2)
        with pytest.raises(ValueError, match="outside the unit circle domain"):
            F.value(math.nan, side=side)
        with pytest.raises(ValueError, match="outside the unit circle domain"):
            F.value(np.array([0.5, math.nan]), side=side)

    def test_monotone_and_bounded(self, rng):
        for _ in range(10):
            F = random_cdf(rng)
            t = np.sort(rng.random(1000))
            vals = F.value(t)
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= -1e-15) & (vals <= 1 + 1e-15))


class TestRotateCdf:
    def test_matches_wrapped_construction(self, rng):
        # rotation of the plain exponential reproduces the two-piece formula
        for b in (2, 10):
            E = cdf_wrapped_exponential(b, 0.0)
            for y in rng.random(10):
                R = rotate_cdf(E, float(y))
                W = cdf_wrapped_exponential(b, float(y))
                assert R.piece_count == W.piece_count
                np.testing.assert_allclose(R.bounds, W.bounds, rtol=0, atol=1e-15)
                np.testing.assert_allclose(R.coef, W.coef, rtol=1e-13)
                np.testing.assert_allclose(R.offset, W.offset, rtol=0, atol=1e-13)

    def test_rotation_by_zero_is_identity(self, rng):
        F = random_cdf(rng)
        assert rotate_cdf(F, 0.0) is F

    def test_round_trip(self, rng):
        t = rng.random(1000)
        for _ in range(20):
            F = random_cdf(rng)
            y = float(rng.random())
            back = rotate_cdf(rotate_cdf(F, y), (1.0 - y) % 1.0)
            err = np.max(np.abs(back.value(t) - F.value(t)))
            assert err <= 1e-12

    @pytest.mark.parametrize("y", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_rotation_outside_unit(self, y):
        with pytest.raises(ValueError, match="rotation must lie in \\[0, 1\\)"):
            rotate_cdf(cdf_wrapped_exponential(10, 0.3), y)

    def test_rotation_of_atom(self):
        F = cdf_of_empirical(build_empirical([0.0], 10))
        R = rotate_cdf(F, 0.25)  # atom moves to <0 - 0.25> = 0.75
        assert R.value(0.5) == 0.0
        assert R.value(0.75) == 1.0

    def test_step_cdf_matches_rotated_atoms(self, rng):
        """Rotating a step CDF by the piece formula gives the step CDF of the
        moved atoms ``<x - y>``, away from the atoms themselves."""
        worst = 0.0
        for trial in range(300):
            x = rng.random(int(rng.integers(1, 301)))
            if trial % 3 == 0:
                x[0] = 0.0
            F = cdf_of_empirical(build_empirical(x, 10))
            y = float(rng.choice(x)) if trial % 2 == 0 else float(rng.random())
            moved = x - y
            moved[moved < 0.0] += 1.0
            atoms = np.unique(moved)
            edges = np.concatenate(([0.0], atoms, [1.0]))
            mids = 0.5 * (edges[:-1] + edges[1:])
            t = rng.random(1000)
            padded = np.concatenate(([-np.inf], atoms, [np.inf]))
            k = np.searchsorted(padded, t)
            gap = np.minimum(padded[k] - t, t - padded[k - 1])
            t = np.concatenate((mids[mids < 1.0], t[gap > 1e-12]))
            expected = cdf_of_empirical(build_empirical(moved, 10)).value(t)
            worst = max(worst, float(np.max(np.abs(rotate_cdf(F, y).value(t) - expected))))
        assert worst <= 1e-12


class TestIdentityEquality:
    """Array-backed values compare and hash by identity; fields stay frozen."""

    VALUES = {  # a builder of equal values and an array field
        "PiecewiseCdf": (lambda: cdf_wrapped_exponential(10, 0.2), "bounds"),
        "DeltaProfile": (lambda: delta_profile(cdf_wrapped_exponential(10, 0.2),
                                               cdf_of_empirical(build_empirical([0.1, 0.7], 10))),
                         "offset"),
        "CircleEmpirical": (lambda: build_empirical([0.1, 0.4, 0.7], 10), "positions"),
    }

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_eq_hash_and_frozen_fields(self, name):
        build, field = self.VALUES[name]
        a, b = build(), build()
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert a in {a, b} and b in {a, b} and len({a, b}) == 2
        for attr in ("base", field):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, attr, getattr(b, attr))


class TestDeltaProfile:
    def test_identical_inputs_give_zero_profile(self, rng):
        F = random_cdf(rng)
        d = delta_profile(F, F)
        assert np.all(d.coef == 0.0) and np.all(d.offset == 0.0)

    def test_atom_minus_exponential_closed_form(self):
        F = cdf_of_empirical(build_empirical([0.0], 2))
        G = cdf_wrapped_exponential(2, 0.0)
        d = delta_profile(F, G)
        assert d.piece_count == 1
        # delta(t) = 1 - (2**t - 1) = 2 - 2**t
        assert d.coef[0] == pytest.approx(-1.0)
        assert d.offset[0] == pytest.approx(2.0)

    def test_breakpoint_count_bound(self, rng):
        for _ in range(20):
            F = random_step_cdf(rng, max_atoms=9)
            G = cdf_wrapped_exponential(10, float(rng.random()))
            d = delta_profile(F, G)
            assert d.piece_count <= F.piece_count + G.piece_count

    def test_pointwise_identity(self, rng):
        t = rng.random(1000)
        for _ in range(20):
            F, G = random_cdf(rng), random_cdf(rng)
            d = delta_profile(F, G)
            err = np.max(np.abs(d.value(t) - (F.value(t) - G.value(t))))
            assert err <= 1e-14

    def test_incompatible_exponential_bases_rejected(self):
        with pytest.raises(ValueError):
            delta_profile(cdf_wrapped_exponential(2, 0.1), cdf_wrapped_exponential(10, 0.1))

    def test_constant_pieces_are_base_agnostic(self):
        F = cdf_of_empirical(build_empirical([0.5], 2))
        G = cdf_wrapped_exponential(10, 0.3)
        d = delta_profile(F, G)
        assert d.base == 10

    def test_left_value_wraps_to_zero_at_origin(self, rng):
        F, G = random_cdf(rng), random_cdf(rng)
        assert delta_profile(F, G).value(0.0, side="left") == 0.0

    @staticmethod
    def _assert_refinement(A, B):
        # the joint bounds are the sorted union; each joint piece differences
        # the pieces of A and B that one binary search per joint piece finds
        d = delta_profile(A, B)
        union = np.union1d(A.bounds, B.bounds)
        assert np.array_equal(d.bounds, union)
        fi = np.searchsorted(A.bounds, union[:-1], side="right") - 1
        gi = np.searchsorted(B.bounds, union[:-1], side="right") - 1
        assert d.coef.tobytes() == (A.coef[fi] - B.coef[gi]).tobytes()
        assert d.offset.tobytes() == (A.offset[fi] - B.offset[gi]).tobytes()

    def test_merged_refinement_matches_sorted_union(self, rng):
        # a short cover of constant and exponential pieces: its zero coef
        # pieces against a step CDF's zeros pin the sign of each joint zero
        c = 0.3 / (10 ** 0.6 - 10 ** 0.3)
        mixed = PiecewiseCdf(base=10, bounds=np.array([0.0, 0.3, 0.6, 1.0]),
                             coef=np.array([0.0, c, 0.0]),
                             offset=np.array([0.1, 0.2 - c * 10 ** 0.3, 1.0]))
        for _ in range(40):
            F = random_step_cdf(rng, max_atoms=int(rng.integers(1, 300)))
            shared = rng.choice(F.bounds[1:-1], size=min(5, F.piece_count - 1), replace=False)
            atoms = rng.random(int(rng.integers(1, 300)))
            G = cdf_of_empirical(build_empirical(np.concatenate((atoms, shared)), 10))
            W = cdf_wrapped_exponential(10, float(rng.random()))
            for A, B in ((F, G), (G, F), (F, W), (W, F), (F, mixed), (mixed, F)):
                self._assert_refinement(A, B)

    def test_long_covers_with_several_new_bounds_in_one_piece(self, rng):
        # two long covers sharing 20k bounds; B also puts nine bounds inside
        # one piece of the longer A, so np.insert gets repeated positions
        A = cdf_of_empirical(build_empirical(rng.random(30_000), 10))
        k = int(rng.integers(1, A.piece_count - 1))
        inner = np.linspace(A.bounds[k], A.bounds[k + 1], 11)[1:-1]
        shared = rng.choice(A.bounds[1:-1], size=20_000, replace=False)
        B = cdf_of_empirical(build_empirical(
            np.concatenate((shared, inner, rng.random(500))), 10))
        assert A.piece_count > B.piece_count >= 20_000
        for X, Y in ((A, B), (B, A)):
            self._assert_refinement(X, Y)


@pytest.mark.parametrize("cls", [PiecewiseCdf, DeltaProfile])
@pytest.mark.parametrize("array", ["bounds", "coef", "offset", "broadcast coef"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_piece_arrays_are_rejected(cls, array, bad):
    # a valid two-step CDF; one entry of one array is made non-finite, or
    # coef is one non-finite value of stride 0
    pieces = {"bounds": np.array([0.0, 0.5, 1.0]),
              "coef": np.zeros(2), "offset": np.array([0.5, 1.0])}
    if array == "broadcast coef":
        pieces["coef"] = np.broadcast_to(bad, 2)
    else:
        pieces[array][1 if array == "bounds" else 0] = bad
    with pytest.raises(ValueError):
        cls(base=10, **pieces)


# each a valid two-step CDF with one change, and the refusal it meets
MALFORMED_PIECES = {
    "2-d bounds": ({"bounds": np.array([[0.0, 0.5, 1.0]])}, "inconsistent piece array shapes"),
    "short offset": ({"offset": np.array([0.5])}, "inconsistent piece array shapes"),
    "no pieces": ({"bounds": np.array([1.0]), "coef": np.zeros(0), "offset": np.zeros(0)},
                  "pieces must cover"),
    "late start": ({"bounds": np.array([0.1, 0.5, 1.0])}, "pieces must cover"),
    "early end": ({"bounds": np.array([0.0, 0.5, 0.9])}, "pieces must cover"),
}
MALFORMED_CDFS = {
    "falling piece": ({"coef": np.array([0.0, -0.1])}, "non-decreasing \\(coef >= 0\\)"),
    "negative start": ({"offset": np.array([-0.5, 1.0])}, "rise from 0 to a left limit of 1"),
    "short of 1": ({"offset": np.array([0.5, 0.9])}, "rise from 0 to a left limit of 1"),
}


@pytest.mark.parametrize("cls,case", [(cls, case) for cls in (PiecewiseCdf, DeltaProfile)
                                      for case in MALFORMED_PIECES]
                         + [(PiecewiseCdf, case) for case in MALFORMED_CDFS],
                         ids=lambda v: getattr(v, "__name__", v))
def test_malformed_piece_arrays_are_refused(cls, case):
    change, message = {**MALFORMED_PIECES, **MALFORMED_CDFS}[case]
    pieces = {"bounds": np.array([0.0, 0.5, 1.0]), "coef": np.zeros(2),
              "offset": np.array([0.5, 1.0]), **change}
    with pytest.raises(ValueError, match=message):
        cls(base=10, **pieces)


@given(st.lists(UNIT_FLOATS, min_size=1, max_size=30), st.lists(UNIT_FLOATS, min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_delta_identity_property(xs, ys):
    F = cdf_of_empirical(build_empirical(xs, 10))
    G = cdf_of_empirical(build_empirical(ys, 10))
    d = delta_profile(F, G)
    probes = np.linspace(0.0, 1.0, 64, endpoint=False)
    assert np.max(np.abs(d.value(probes) - (F.value(probes) - G.value(probes)))) <= 1e-14


SPAN = summation._SPAN  # pieces per span of summation.spans
SPANNED_PIECES = 3 * SPAN + 100  # spans [0, S), [S, 2S), [2S, P)
# a block edge inside the first span (at 4 blocks), then the last piece of
# the first span, the first two pieces of the second, its last piece and the
# first piece of the third
SPAN_EDGE_PIECES = [4 * summation._BLOCK + d for d in (-1, 0, 1)] + [
    SPAN - 1, SPAN, SPAN + 1, 2 * SPAN - 1, 2 * SPAN]


def _spanned_cdf_arrays(kind="step"):
    """A valid CDF over three spans of pieces: P equal steps up to 1, or
    ``(10**t - 1) / 9`` cut into P exponential pieces."""
    P = SPANNED_PIECES
    bounds = np.linspace(0.0, 1.0, P + 1)
    if kind == "step":
        return {"bounds": bounds, "coef": np.zeros(P), "offset": np.arange(1, P + 1) / P}
    return {"bounds": bounds, "coef": np.full(P, 1 / 9), "offset": np.full(P, -1 / 9)}


def test_spanned_arrays_are_valid():
    assert [stop for _, stop in summation.spans(SPANNED_PIECES)] == [
        SPAN, 2 * SPAN, SPANNED_PIECES]
    broadcast = {**_spanned_cdf_arrays(), "coef": np.broadcast_to(0.0, SPANNED_PIECES)}
    for cls in (PiecewiseCdf, DeltaProfile):
        for pieces in (_spanned_cdf_arrays(), _spanned_cdf_arrays("exponential"), broadcast):
            assert cls(base=10, **pieces).piece_count == SPANNED_PIECES


@pytest.mark.parametrize("cls", [PiecewiseCdf, DeltaProfile])
@pytest.mark.parametrize("j", SPAN_EDGE_PIECES)
def test_span_edge_non_increasing_bound_is_rejected(cls, j):
    pieces = _spanned_cdf_arrays()
    pieces["bounds"][j + 1] = pieces["bounds"][j]  # piece j is empty
    with pytest.raises(ValueError, match="strictly increasing"):
        cls(base=10, **pieces)


@pytest.mark.parametrize("kind", ["step", "exponential"])
@pytest.mark.parametrize("j", SPAN_EDGE_PIECES)
def test_span_edge_negative_jump_is_rejected(kind, j):
    # the jump into piece j; at j = SPAN it straddles the first two spans
    pieces = _spanned_cdf_arrays(kind)
    step = 1 / SPANNED_PIECES if kind == "step" else 0.0  # the valid jump into piece j
    pieces["offset"][j] -= step + 1e-9
    with pytest.raises(ValueError, match="negative jump"):
        PiecewiseCdf(base=10, **pieces)


@pytest.mark.parametrize("cls", [PiecewiseCdf, DeltaProfile])
@pytest.mark.parametrize("array", ["bounds", "coef", "offset"])
@pytest.mark.parametrize("j", SPAN_EDGE_PIECES)
def test_span_edge_nan_is_rejected(cls, array, j):
    pieces = _spanned_cdf_arrays()
    pieces[array][j] = math.nan
    message = "strictly increasing" if array == "bounds" else "must be finite"
    with pytest.raises(ValueError, match=message):
        cls(base=10, **pieces)


def _traced(fn, *args):
    """``fn(*args)``, the memory it left allocated and the peak while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_closed_form_cdf_keeps_only_its_piece_arrays():
    # (2, 10**6): 500k pieces, 12.0 MB over bounds, coef and offset
    F, retained, _ = _traced(closed_form_cdf, 2, 10 ** 6)
    assert retained <= F.bounds.nbytes + F.coef.nbytes + F.offset.nbytes + 2 ** 16


@pytest.mark.parametrize("base", [2, 10])
def test_profile_build_peaks_below_the_offset_search(base):
    # the offset search, with the profile alive, sets the traced peak of a
    # both-metrics row, not the build of the profile: at (10, 10**6) 51 MB
    # against 68 MB, at (2, 10**6) 29 MB against 38 MB
    N = 10 ** 6
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    tracemalloc.start()
    try:
        profile = delta_profile(closed_form_cdf(base, N), G)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        median_offset(profile)
        search_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < search_peak


# The offset search's own memory, per piece of the profile, by its design:
# five float64 arrays (v_min, v_max, the edges and the pass's two buffers)
# and at most three bool masks at once, 43 bytes a piece.  Once narrowed it
# holds the width buffer (8 bytes a piece) and, per active piece, the index,
# offsets, coefficients, both bounds, the two buffers and one bool mask of
# `steps` (57 bytes), plus v_min, v_max and the edge of each border piece.
SEARCH_BYTES_PER_PIECE = 5 * 8 + 3
NARROWED_BYTES_PER_PIECE, NARROWED_BYTES_PER_ACTIVE, BORDER_BYTES = 8, 7 * 8 + 1, 3 * 8
SEARCH_SLACK_BYTES = 2 ** 16  # Python objects and short lists


@pytest.mark.parametrize("base,N", [(10, 2 * 10 ** 5), (2, 2 * 10 ** 5)])
def test_offset_search_holds_its_designed_working_set(base, N, monkeypatch):
    # the profile's own arrays, its cached b**bounds included, exist before
    # the trace starts, so the traced peak is the search's own
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    profile = delta_profile(closed_form_cdf(base, N), G)
    profile._bound_powers()
    narrowed = []
    narrow = transport._LevelProfile.narrow

    def recorded(self, lo, hi):
        narrow(self, lo, hi)
        narrowed.append((self.a_coef.size, self.v_min.size))

    monkeypatch.setattr(transport._LevelProfile, "narrow", recorded)
    _, _, peak = _traced(median_offset, profile)
    (active, border), = narrowed
    P = profile.piece_count
    designed = max(SEARCH_BYTES_PER_PIECE * P,
                   NARROWED_BYTES_PER_PIECE * P + NARROWED_BYTES_PER_ACTIVE * active
                   + BORDER_BYTES * border)
    assert peak <= designed + SEARCH_SLACK_BYTES, (peak / P, active / P)


def test_writeable_arrays_are_copied_and_read_only_ones_kept():
    a = np.array([0.0, 1.0])
    F = PiecewiseCdf(base=10, bounds=a, coef=np.zeros(1), offset=np.ones(1))
    assert a.flags.writeable and not F.bounds.flags.writeable
    a[1] = 0.5  # the caller's array is the caller's again
    assert F.bounds[1] == 1.0
    G = closed_form_cdf(10, 1000)  # fresh read-only arrays, stored as given
    H = PiecewiseCdf(base=10, bounds=G.bounds, coef=G.coef, offset=G.offset)
    assert H.bounds is G.bounds and H.coef is G.coef and H.offset is G.offset

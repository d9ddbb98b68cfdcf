import dataclasses
import math

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
)
from circletransport.measures import ATOM_MERGE_TOL, DeltaProfile, PiecewiseCdf, _merge_pieces
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

    @pytest.mark.parametrize("positions", [[1.0], [-0.1], [0.2, 1.5]])
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

    def test_merged_refinement_matches_sorted_union(self, rng):
        """Merging the shorter cover into the longer one gives the arrays a
        sorted union and one binary search per joint piece give."""
        for _ in range(40):
            F = random_step_cdf(rng, max_atoms=int(rng.integers(1, 300)))
            shared = rng.choice(F.bounds[1:-1], size=min(5, F.piece_count - 1), replace=False)
            atoms = rng.random(int(rng.integers(1, 300)))
            G = cdf_of_empirical(build_empirical(np.concatenate((atoms, shared)), 10))
            for A, B in ((F, G), (G, F), (F, cdf_wrapped_exponential(10, float(rng.random())))):
                fi, gi, bounds = _merge_pieces(A.bounds, B.bounds)
                union = np.union1d(A.bounds, B.bounds)
                assert np.array_equal(bounds, union)
                for k, t in enumerate(union[:-1]):
                    assert fi[k] == np.searchsorted(A.bounds, t, side="right") - 1
                    assert gi[k] == np.searchsorted(B.bounds, t, side="right") - 1


@pytest.mark.parametrize("cls", [PiecewiseCdf, DeltaProfile])
@pytest.mark.parametrize("array", ["bounds", "coef", "offset"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_piece_arrays_are_rejected(cls, array, bad):
    # a valid two-step CDF; one entry of one array is made non-finite
    pieces = {"bounds": np.array([0.0, 0.5, 1.0]),
              "coef": np.zeros(2), "offset": np.array([0.5, 1.0])}
    pieces[array][1 if array == "bounds" else 0] = bad
    with pytest.raises(ValueError):
        cls(base=10, **pieces)


@given(st.lists(UNIT_FLOATS, min_size=1, max_size=30), st.lists(UNIT_FLOATS, min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_delta_identity_property(xs, ys):
    F = cdf_of_empirical(build_empirical(xs, 10))
    G = cdf_of_empirical(build_empirical(ys, 10))
    d = delta_profile(F, G)
    probes = np.linspace(0.0, 1.0, 64, endpoint=False)
    assert np.max(np.abs(d.value(probes) - (F.value(probes) - G.value(probes)))) <= 1e-14

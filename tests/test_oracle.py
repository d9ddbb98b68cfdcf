import dataclasses
import itertools
import math

import numpy as np
import pytest

from circletransport import (
    DeltaProfile,
    build_empirical,
    build_nu,
    cdf_of_empirical,
    cdf_wrapped_exponential,
    closed_form_cdf,
    delta_profile,
    w1_circle,
    w1_line,
)
from circletransport.oracle import (
    AtomList,
    discrete_w1_circle,
    discrete_w1_line,
    equivalence_trials,
    grid_minimize_offset,
    quantile_discretize,
)
from circletransport.transport import integral_abs, median_offset
from conftest import random_cdf


def half_step_profile():
    return DeltaProfile(base=2, bounds=np.array([0.0, 0.5, 1.0]),
                        coef=np.zeros(2), offset=np.array([0.0, 1.0]))


def exhaustive_equal_weight_line(pos_a, pos_b):
    """Min average |a - sigma(b)| over all pairings (tiny lists only)."""
    best = math.inf
    for perm in itertools.permutations(pos_b):
        cost = sum(abs(x - y) for x, y in zip(pos_a, perm)) / len(pos_a)
        best = min(best, cost)
    return best


def exhaustive_equal_weight_circle(pos_a, pos_b):
    wrap = lambda x, y: min(abs(x - y), 1 - abs(x - y))
    best = math.inf
    for perm in itertools.permutations(pos_b):
        cost = sum(wrap(x, y) for x, y in zip(pos_a, perm)) / len(pos_a)
        best = min(best, cost)
    return best


class TestDiscreteLine:
    def test_single_atoms(self):
        assert discrete_w1_line(AtomList.equal_weights([0.0]),
                                AtomList.equal_weights([0.5])) == pytest.approx(0.5)

    def test_two_atom_pairing(self):
        a, b = [0.0, 0.5], [0.25, 0.75]
        d = discrete_w1_line(AtomList.equal_weights(a), AtomList.equal_weights(b))
        assert d == pytest.approx(exhaustive_equal_weight_line(a, b), abs=1e-15)
        assert d == pytest.approx(0.25)

    def test_identical(self):
        a = AtomList.equal_weights([0.1, 0.2, 0.9])
        assert discrete_w1_line(a, a) == 0.0

    def test_matches_exhaustive_matching(self, rng):
        for _ in range(25):
            pos_a = rng.random(5).tolist()
            pos_b = rng.random(5).tolist()
            d = discrete_w1_line(AtomList.equal_weights(pos_a), AtomList.equal_weights(pos_b))
            assert d == pytest.approx(exhaustive_equal_weight_line(pos_a, pos_b), abs=1e-12)

    def test_rational_weights(self):
        a = AtomList(np.array([0.0, 0.5]), np.array([0.25, 0.75]))
        b = AtomList(np.array([0.5]), np.array([1.0]))
        # move a quarter of the mass from 0 to 0.5
        assert discrete_w1_line(a, b) == pytest.approx(0.125)

    def test_mass_mismatch_rejected(self):
        # AtomList already normalizes mass, so forge one to hit the guard
        good = AtomList.equal_weights([0.5])
        bad = AtomList.__new__(AtomList)
        object.__setattr__(bad, "positions", np.array([0.1]))
        object.__setattr__(bad, "weights", np.array([0.9]))
        with pytest.raises(ValueError):
            discrete_w1_line(good, bad)

    def test_atom_list_validation(self):
        with pytest.raises(ValueError):
            AtomList(np.array([0.1, 0.2]), np.array([0.4, 0.4]))
        with pytest.raises(ValueError):
            AtomList(np.array([1.2]), np.array([1.0]))
        with pytest.raises(ValueError):
            AtomList(np.array([0.1]), np.array([-1.0]))

    @pytest.mark.parametrize("positions,weights,message", [
        ([math.nan], [1.0], "must lie in"),
        ([0.2, math.nan], [0.5, 0.5], "must lie in"),
        ([0.5], [math.nan], "positive and sum to 1"),
        ([0.2, 0.7], [1.0, math.nan], "positive and sum to 1"),
    ])
    def test_nan_atoms_are_refused(self, positions, weights, message):
        # each built, and discrete_w1_line returned nan, while the tests let NaN pass
        with pytest.raises(ValueError, match=message):
            AtomList(np.array(positions), np.array(weights))

    @pytest.mark.parametrize("positions,weights", [
        ([0.1, 0.2], [1.0]),
        ([[0.5]], [[1.0]]),
        ([], []),
    ], ids=["unequal", "2-d", "empty"])
    def test_malformed_atom_arrays_are_refused(self, positions, weights):
        with pytest.raises(ValueError, match="matching non-empty 1-d arrays"):
            AtomList(np.array(positions), np.array(weights))


class TestDiscreteCircle:
    def test_wraparound(self):
        assert discrete_w1_circle(AtomList.equal_weights([0.0]),
                                  AtomList.equal_weights([0.75])) == pytest.approx(0.25)

    def test_two_cyclic_matchings(self):
        a, b = [0.0, 0.5], [0.25, 0.75]
        d = discrete_w1_circle(AtomList.equal_weights(a), AtomList.equal_weights(b))
        assert d == pytest.approx(exhaustive_equal_weight_circle(a, b), abs=1e-15)
        assert d == pytest.approx(0.25)

    def test_identical(self):
        a = AtomList.equal_weights([0.1, 0.6])
        assert discrete_w1_circle(a, a) == 0.0

    def test_matches_exhaustive_matching(self, rng):
        for _ in range(25):
            pos_a = rng.random(5).tolist()
            pos_b = rng.random(5).tolist()
            d = discrete_w1_circle(AtomList.equal_weights(pos_a),
                                   AtomList.equal_weights(pos_b))
            assert d == pytest.approx(exhaustive_equal_weight_circle(pos_a, pos_b), abs=1e-12)

    def test_mass_mismatch_rejected(self):
        # forged past AtomList's own check, as in the line test
        bad = AtomList.__new__(AtomList)
        object.__setattr__(bad, "positions", np.array([0.1]))
        object.__setattr__(bad, "weights", np.array([0.9]))
        with pytest.raises(ValueError, match="total masses differ"):
            discrete_w1_circle(AtomList.equal_weights([0.5]), bad)

    def test_brute_force_cap(self):
        big = AtomList.equal_weights(np.linspace(0, 0.999, 1500))
        with pytest.raises(ValueError):
            discrete_w1_circle(big, big)


class TestQuantileDiscretize:
    def test_uniform_two_step(self):
        # the 2-atom uniform step CDF realizes the quantile midpoints exactly
        F = cdf_of_empirical(build_empirical([0.25, 0.75], 10))
        assert quantile_discretize(F, 2).positions.tolist() == [0.25, 0.75]

    def test_median_atom(self):
        F = cdf_of_empirical(build_empirical([0.5], 10))
        assert quantile_discretize(F, 1).positions.tolist() == [0.5]

    def test_exponential_inversion(self):
        F = cdf_wrapped_exponential(2, 0.0)
        atoms = quantile_discretize(F, 2)
        np.testing.assert_allclose(
            atoms.positions, [math.log2(1.25), math.log2(1.75)], rtol=0, atol=1e-15)

    def test_generalized_inverse_reaches_quantile(self):
        for F in (cdf_wrapped_exponential(10, 0.37), closed_form_cdf(10, 45)):
            atoms = quantile_discretize(F, 64)
            qs = (np.arange(64) + 0.5) / 64
            assert np.all(F.value(atoms.positions) >= qs - 1e-12)

    def test_discretization_error_bound(self):
        # mass 1/m per quantile cell moves at most half a cell width, and the
        # cell widths sum to at most 1, so the distance is below 1/(2m)
        for F in (cdf_wrapped_exponential(10, 0.37), closed_form_cdf(10, 45),
                  cdf_wrapped_exponential(2, 0.0)):
            for m in (4, 16, 64):
                atoms = quantile_discretize(F, m)
                disc = cdf_of_empirical(build_empirical(atoms.positions, F.base))
                assert w1_line(F, disc).distance <= 1.0 / (2 * m) + 1e-12

    def test_rejects_zero_atoms(self):
        with pytest.raises(ValueError):
            quantile_discretize(cdf_wrapped_exponential(2, 0.0), 0)


class TestGridMinimize:
    def test_zero_profile(self):
        F = cdf_wrapped_exponential(2, 0.25)
        prof = delta_profile(F, F)
        assert grid_minimize_offset(prof, 11) == (0.0, 0.0)

    def test_fine_grid_approaches_exact(self):
        prof = delta_profile(cdf_of_empirical(build_nu(2, 2)),
                             cdf_wrapped_exponential(2, 0.0))
        _, val = grid_minimize_offset(prof, 100001)
        exact = (3 - 2 * math.sqrt(2)) / math.log(2)
        assert exact - 1e-12 <= val <= exact + 1e-5

    def test_flat_stretch_is_exact_on_any_grid(self):
        prof = half_step_profile()
        for grid in (2, 5, 17):
            _, val = grid_minimize_offset(prof, grid)
            assert val == pytest.approx(0.5, abs=1e-15)

    def test_gap_bound(self, rng):
        for _ in range(10):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            b = float(prof.base)
            v = np.concatenate((
                prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset,
                prof.coef * np.power(b, prof.bounds[1:]) + prof.offset))
            c_lo = median_offset(prof)
            exact = integral_abs(prof, c_lo)
            grid_points = 101
            _, val = grid_minimize_offset(prof, grid_points)
            assert val >= exact - 1e-12
            assert val - exact <= (v.max() - v.min()) / grid_points + 1e-12

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            grid_minimize_offset(half_step_profile(), 1)


def test_atom_list_compares_by_identity():
    a = AtomList(np.array([0.1, 0.5]), np.array([0.25, 0.75]))
    b = AtomList(np.array([0.1, 0.5]), np.array([0.25, 0.75]))
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert a in {a, b} and b in {a, b} and len({a, b}) == 2
    for attr in ("positions", "weights"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, attr, getattr(b, attr))


class TestEngineOracleEquivalence:
    def test_seeded_trials(self):
        worst_line, worst_circle = equivalence_trials(trials=200, max_atoms=40, seed=20260324)
        assert worst_line <= 1e-9
        assert worst_circle <= 1e-9

    @pytest.mark.parametrize("trials,max_atoms,name", [
        (0, 40, "trials"), (-3, 40, "trials"), (5, 0, "max_atoms"), (5, 1025, "max_atoms"),
    ])
    def test_arguments_are_refused_before_any_trial(self, monkeypatch, trials, max_atoms, name):
        def no_trials(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(np.random, "default_rng", no_trials)
        with pytest.raises(ValueError, match=name):
            equivalence_trials(trials=trials, max_atoms=max_atoms, seed=1)

    @pytest.mark.parametrize("max_atoms", [1, 1024])
    def test_atom_limits_are_accepted(self, max_atoms):
        # 1024 atoms a side is the most the brute-force circle cap takes
        worst_line, worst_circle = equivalence_trials(trials=1, max_atoms=max_atoms, seed=3)
        assert worst_line <= 1e-9 and worst_circle <= 1e-9

    def test_quantile_halving(self):
        # The signed discretization error oscillates through zero, so the
        # halving rate is enforced in aggregate over the doubling range: five
        # doublings must shrink the error by 2^5 within the 2.5x slack.
        pairs = [
            (closed_form_cdf(10, 50), cdf_wrapped_exponential(10, 0.37)),
            (cdf_wrapped_exponential(2, 0.3), cdf_wrapped_exponential(2, 0.8)),
        ]
        ms = (32, 64, 128, 256, 512, 1024)
        for F, G in pairs:
            target = w1_circle(F, G).distance
            errs = []
            for m in ms:
                da = quantile_discretize(F, m)
                db = quantile_discretize(G, m)
                errs.append(abs(discrete_w1_circle(da, db) - target))
            assert errs[-1] <= 2.5 * errs[0] * (ms[0] / ms[-1]) + 1e-12
            assert all(e <= errs[0] + 1e-12 for e in errs)

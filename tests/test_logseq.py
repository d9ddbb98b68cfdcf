import math

import mpmath
import numpy as np
import pytest

from circletransport import (
    build_nu,
    cdf_of_empirical,
    closed_form_cdf,
)
from circletransport.logseq import (
    LogSequenceSpec,
    digit_count,
    frac_log,
    reference_rotation,
    significand_count,
)

mpmath.mp.dps = 40


def mp_frac_log(base, k):
    """High-precision oracle for the fractional part of log_b(k)."""
    v = mpmath.log(k) / mpmath.log(base)
    return float(v - mpmath.floor(v))


class TestDigitCount:
    @pytest.mark.parametrize("base,k,expected", [
        (10, 999, 3), (10, 1000, 4), (2, 8, 4), (10, 1, 1),
        (2, 1, 1), (2, 7, 3), (3, 27, 4), (3, 26, 3),
    ])
    def test_values(self, base, k, expected):
        assert digit_count(base, k) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            digit_count(10, 0)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            digit_count(1, 5)


class TestFracLog:
    @pytest.mark.parametrize("base,k", [
        (10, 20), (2, 3), (10, 7), (2, 1000), (3, 5), (7, 123456),
    ])
    def test_against_high_precision_oracle(self, base, k):
        assert frac_log(base, k) == pytest.approx(mp_frac_log(base, k), abs=2e-16)

    def test_frozen_reference_values(self):
        assert frac_log(10, 20) == pytest.approx(0.301029995663981, abs=1e-15)
        assert frac_log(2, 3) == pytest.approx(0.584962500721156, abs=1e-15)

    @pytest.mark.parametrize("base", [2, 10])
    def test_powers_map_to_exact_zero(self, base):
        p = 1
        while p < 10 ** 9:
            assert frac_log(base, p) == 0.0
            p *= base

    @pytest.mark.parametrize("base", [2, 10])
    def test_mantissa_invariance_is_exact(self, base):
        for k in range(1, 100001, 7):
            assert frac_log(base, base * k) == frac_log(base, k)


class TestBuildNu:
    def test_ten_atoms_with_double_zero(self):
        m = build_nu(10, 10)
        assert m.count == 10
        assert np.count_nonzero(m.positions == 0.0) == 2

    def test_single_atom(self):
        m = build_nu(2, 1)
        assert m.count == 1 and m.positions[0] == 0.0

    def test_two_powers_of_two(self):
        m = build_nu(2, 2)
        assert m.positions.tolist() == [0.0, 0.0]

    def test_matches_scalar_frac_log(self):
        m = build_nu(10, 200)
        expected = np.sort([frac_log(10, k) for k in range(1, 201)])
        np.testing.assert_allclose(m.positions, expected, rtol=0, atol=1e-15)


class TestClosedFormCdf:
    def test_levels_at_ten(self):
        F = closed_form_cdf(10, 10)
        assert F.value(0.0) == pytest.approx(0.2)
        assert F.value(0.5) == pytest.approx(0.4)

    def test_left_limit_at_one(self, rng):
        for _ in range(20):
            b = int(rng.choice([2, 3, 10]))
            N = int(rng.integers(1, 5000))
            F = closed_form_cdf(b, N)
            assert F.value(1.0, side="left") == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("b,N", [(b, N) for b in (2, 3, 10, 16) for N in range(1, b)])
    def test_counts_below_the_base_take_the_digit_sum_path(self, b, N):
        F = closed_form_cdf(b, N)
        G = cdf_of_empirical(build_nu(b, N))
        assert np.array_equal(F.bounds, G.bounds)
        assert np.array_equal(F.offset, G.offset)
        assert np.array_equal(F.coef, G.coef)

    def test_identical_to_empirical_construction(self, rng):
        # spot sample; the full N <= 10^4 sweep is in the acceptance suite
        for _ in range(40):
            b = int(rng.choice([2, 3, 10]))
            N = int(rng.integers(1, 10001))
            F = closed_form_cdf(b, N)
            G = cdf_of_empirical(build_nu(b, N))
            assert np.array_equal(F.bounds, G.bounds)
            assert np.array_equal(F.offset, G.offset)

    def test_probe_agreement_with_breakpoint_sides(self, rng):
        for b, N in [(10, 1234), (2, 777), (3, 2025)]:
            F = closed_form_cdf(b, N)
            G = cdf_of_empirical(build_nu(b, N))
            t = rng.random(1000)
            assert np.max(np.abs(F.value(t) - G.value(t))) <= 1e-12
            bp = F.bounds[1:-1]
            nudged = np.concatenate((np.clip(bp - 1e-9, 0, None), bp))
            for side in ("left", "right"):
                err = np.max(np.abs(F.value(nudged, side) - G.value(nudged, side)))
                assert err <= 1e-12


class TestIntegerCountIdentity:
    def brute_count(self, b, N, i):
        d = digit_count(b, i)
        target = i / b ** (d - 1)
        count = 0
        for k in range(1, N + 1):
            dk = digit_count(b, k)
            if k / b ** (dk - 1) <= target * (1 + 1e-15):
                count += 1
        return count

    @pytest.mark.parametrize("b,N", [(10, 57), (10, 360), (2, 75), (3, 200)])
    def test_against_brute_force(self, rng, b, N):
        for i in rng.integers(1, N + 1, size=12):
            assert significand_count(b, N, int(i)) == self.brute_count(b, N, int(i))

    def test_counts_power_block(self):
        # N = 10: mantissas <= 1 are {1, 10}; <= 2 adds {2}
        assert significand_count(10, 10, 10) == 2
        assert significand_count(10, 10, 2) == 3

    def test_matches_closed_form_levels(self):
        for b, N in [(10, 73), (2, 41), (3, 100)]:
            F = closed_form_cdf(b, N)
            counts = np.rint(F.offset * N).astype(int)
            # each breakpoint is the fractional log of some index i; recover
            # it from the mantissa and compare count formulas
            for bound, count in zip(F.bounds[:-1], counts):
                n = digit_count(b, N)
                i = round(b ** (bound + n - 1))
                assert significand_count(b, N, i) == count

    @staticmethod
    def floor_sum_counts(b, N):
        """Levels times N from n floor divisions per piece, in piece order:
        the n-digit block, then the wrapped (n-1)-digit block plus N."""
        n = digit_count(b, N)

        def counts_for(ii):
            s = np.zeros(ii.size, dtype=np.int64)
            p = 1
            for _ in range(n):
                s += ii // p
                p *= b
            return n + s - (b ** n - 1) // (b - 1)

        top = b ** (n - 1)
        return np.concatenate((counts_for(np.arange(top, N + 1, dtype=np.int64)),
                               counts_for(np.arange(N // b + 1, top, dtype=np.int64)) + N))

    @pytest.mark.parametrize("b,N", [
        (2, 2 ** 20 - 1), (2, 2 ** 20), (2, 2 ** 20 + 1), (3, 3 ** 12 + 5),
        (10, 10 ** 5 - 1), (10, 10 ** 5), (16, 16 ** 4 + 3), (3, 3 ** 11 - 1)])
    def test_closed_form_counts_at_many_digits(self, b, N):
        # N = b**n - 1 leaves the wrapped block empty
        F = closed_form_cdf(b, N)
        counts = self.floor_sum_counts(b, N)
        assert F.piece_count == N - N // b
        assert np.array_equal(np.rint(F.offset * N), counts)
        assert np.array_equal(F.offset, counts / N)


class TestReferenceRotation:
    def test_exact_powers_give_zero(self):
        for b in (2, 3, 10):
            p = b
            while p <= 10 ** 9:
                assert reference_rotation(b, p) == 0.0
                p *= b

    def test_reference_values(self):
        assert reference_rotation(10, 200) == pytest.approx(0.698970004336019, abs=1e-15)
        assert reference_rotation(2, 3) == pytest.approx(0.415037499278844, abs=1e-15)

    def test_against_oracle(self):
        for b, N in [(10, 77), (2, 1000), (3, 500)]:
            v = mpmath.log(N) / mpmath.log(b)
            expected = float(mpmath.ceil(v) - v) % 1.0
            assert reference_rotation(b, N) == pytest.approx(expected, abs=2e-15)


class TestLogSequenceSpec:
    def test_digit_derivation(self):
        spec = LogSequenceSpec(10, 999)
        assert spec.digits == 3
        assert LogSequenceSpec(2, 8).digits == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            LogSequenceSpec(10, 0)
        with pytest.raises(ValueError):
            LogSequenceSpec(1, 10)


@pytest.mark.parametrize("func,args", [
    (frac_log, (3 ** 34,)),
    (reference_rotation, (3 ** 34,)),
    (digit_count, (3 ** 41,)),
    (significand_count, (3 ** 40, 3 ** 39 + 5)),
], ids=["frac_log", "reference_rotation", "digit_count", "significand_count"])
def test_float_base_gives_the_int_base_value(func, args):
    """Past 2**53 a float base would round its powers; 3.0 computes as 3."""
    assert repr(func(3.0, *args)) == repr(func(3, *args))

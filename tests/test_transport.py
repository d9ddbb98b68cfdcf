import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletransport import (
    DeltaProfile,
    build_empirical,
    build_nu,
    cdf_of_empirical,
    cdf_wrapped_exponential,
    closed_form_cdf,
    compute_metrics,
    delta_profile,
    rotate_cdf,
    w1_circle,
    w1_line,
)
from circletransport import summation, transport
from circletransport.logseq import reference_rotation
from circletransport.oracle import cut_distance, grid_minimize_offset
from circletransport.transport import (
    _LevelProfile,
    integral_abs,
    level_measure,
    median_offset,
)
from conftest import affinity, one_cpu_and_all, one_pass_sum, random_cdf, random_step_cdf

LN2 = math.log(2)
SQRT2 = math.sqrt(2)

# nu_2 in base 2 is a double atom at 0, so its profile against the plain
# exponential is 2 - 2**t on one piece; the analytic values below follow.
LINE_VALUE = 2 - 1 / LN2                  # integral of |2 - 2**t|
CIRCLE_VALUE = (3 - 2 * SQRT2) / LN2      # integral of |sqrt(2) - 2**t|
MEDIAN_C = 2 - SQRT2

SPAN = summation._SPAN  # pieces per span of integral_abs


def atom_exp_profile():
    F = cdf_of_empirical(build_empirical([0.0], 2))
    G = cdf_wrapped_exponential(2, 0.0)
    return delta_profile(F, G)


def half_step_profile():
    """0 on [0, 1/2), 1 on [1/2, 1): a flat median stretch from 0 to 1."""
    return DeltaProfile(base=2, bounds=np.array([0.0, 0.5, 1.0]),
                        coef=np.zeros(2), offset=np.array([0.0, 1.0]))


def zero_profile():
    F = cdf_wrapped_exponential(2, 0.3)
    return delta_profile(F, F)


class TestIntegralAbs:
    def test_zero_profile(self):
        assert integral_abs(zero_profile(), 0.0) == 0.0

    def test_analytic_unshifted(self):
        assert integral_abs(atom_exp_profile(), 0.0) == pytest.approx(LINE_VALUE, abs=1e-15)

    def test_analytic_split_at_root(self):
        # the root of 2 - 2**t = 2 - sqrt(2) sits exactly at t = 1/2
        assert integral_abs(atom_exp_profile(), MEDIAN_C) == pytest.approx(CIRCLE_VALUE, abs=1e-15)

    def test_shift_by_one(self):
        assert integral_abs(atom_exp_profile(), 1.0) == pytest.approx(1 / LN2 - 1, abs=1e-15)

    def test_nan_level_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            integral_abs(atom_exp_profile(), math.nan)
        # an infinite level is far from every value: the integral is inf
        assert integral_abs(atom_exp_profile(), math.inf) == math.inf
        assert integral_abs(atom_exp_profile(), -math.inf) == math.inf

    # block edges inside one span (at 4 blocks and 5 blocks), then the span edges
    @pytest.mark.parametrize("pieces", [
        1, 4095, 4096, 4097, 4 * 4096 - 1, 4 * 4096, 4 * 4096 + 1, 5 * 4096,
        SPAN - 1, SPAN, SPAN + 1, SPAN + 4096, 2 * SPAN + 4096])
    def test_spans_keep_the_bits_of_one_pass(self, pieces, rng):
        # a wrong rule moves the last bit in a quarter to a half of the cases
        for _ in range(3):
            prof = wide_tail_profile(rng, pieces)
            v = piece_values(prof)
            for c in (0.0, median_offset(prof), *rng.uniform(v.min(), v.max(), 5).tolist()):
                assert integral_abs(prof, c).hex() == one_pass_integral_abs(prof, c).hex(), c


def one_pass_integral_abs(prof, c):
    """``integral_abs`` over whole-length arrays, as it was before it took spans."""
    b, log_b = float(prof.base), math.log(prof.base)
    powers, lo, hi = np.power(b, prof.bounds), prof.bounds[:-1], prof.bounds[1:]
    a, shift = prof.coef, prof.offset - c

    def chunk(a, shift, u, pow_u, v):
        width = v - u
        return a * pow_u * np.expm1(width * log_b) / log_b + shift * width

    split = np.flatnonzero((a * powers[:-1] + shift) * (a * powers[1:] + shift) < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.log(-shift[split] / a[split]) / log_b
    inside = (root > lo[split]) & (root < hi[split])
    split, root = split[inside], root[inside]
    t_mid, parts = hi.copy(), np.zeros_like(hi)
    t_mid[split] = root
    parts[split] = np.abs(chunk(a[split], shift[split], root, np.power(b, root), hi[split]))
    return one_pass_sum(np.abs(chunk(a, shift, lo, powers[:-1], t_mid))) + one_pass_sum(parts)


def wide_tail_profile(rng, pieces):
    """A random profile whose last 4,096 pieces hold nearly all of [0, 1].

    Those pieces then carry the integral, so a last span summed by the wrong
    rule (``fsum`` where the whole array reduces that block pairwise) shows
    in the result's last bits.
    """
    widths = rng.random(pieces) + 0.5
    widths[-4096:] *= 1000.0
    bounds = np.concatenate(([0.0], np.cumsum(widths)))
    bounds /= bounds[-1]
    bounds[-1] = 1.0
    coef = rng.normal(0.0, 0.3, pieces)
    coef[rng.random(pieces) < 0.2] = 0.0
    return DeltaProfile(base=10, bounds=bounds, coef=coef, offset=rng.normal(0.0, 0.3, pieces))


class TestLevelMeasure:
    def test_everything_below_one(self):
        assert level_measure(atom_exp_profile(), 1.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_nothing_at_or_below_zero(self):
        assert level_measure(atom_exp_profile(), 0.0)[0] == 0.0

    def test_median_level(self):
        assert level_measure(atom_exp_profile(), MEDIAN_C)[0] == pytest.approx(0.5, abs=1e-15)

    def test_monotone_with_extremes(self, rng):
        for _ in range(20):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            b = float(prof.base)
            v_lo = prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset
            v_hi = prof.coef * np.power(b, prof.bounds[1:]) + prof.offset
            vals = np.unique(np.concatenate((v_lo, v_hi)))
            levels = [level_measure(prof, float(c))[0] for c in vals]
            assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(levels, levels[1:]))
            assert levels[-1] == pytest.approx(1.0, abs=1e-12)
            assert level_measure(prof, float(vals[0]) - 1e-6)[0] == 0.0


class TestMedianOffset:
    def test_zero_profile(self):
        assert median_offset(zero_profile()) == 0.0

    def test_unique_median(self):
        c_lo = median_offset(atom_exp_profile())
        assert c_lo == pytest.approx(MEDIAN_C, abs=1e-14)

    def test_flat_median_stretch(self):
        c_lo = median_offset(half_step_profile())
        assert c_lo == 0.0

    def test_every_offset_in_interval_ties(self):
        prof = half_step_profile()
        base_val = integral_abs(prof, 0.0)
        for c in np.linspace(0.0, 1.0, 11):
            assert integral_abs(prof, float(c)) == pytest.approx(base_val, abs=1e-15)

    def test_endpoints_are_attained_values(self, rng):
        for _ in range(30):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            b = float(prof.base)
            v_lo = prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset
            v_hi = prof.coef * np.power(b, prof.bounds[1:]) + prof.offset
            lo, hi = np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi)
            c = median_offset(prof)
            assert np.any((lo - 1e-12 <= c) & (c <= hi + 1e-12))


def nu_profile(base, N):
    """The profile of a metrics row: nu_N against its rotated exponential."""
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    return delta_profile(closed_form_cdf(base, N), G)


def piece_values(prof):
    """The start values and right-end left limits of all pieces, in one array."""
    b = float(prof.base)
    return np.concatenate((prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset,
                           prof.coef * np.power(b, prof.bounds[1:]) + prof.offset))


def assert_median_interval(prof):
    """c_lo is the least float where the level reaches 1/2, to the last bit."""
    values = piece_values(prof)
    c_lo = median_offset(prof)
    assert level_measure(prof, c_lo)[0] >= 0.5
    if c_lo != values.min():
        assert level_measure(prof, math.nextafter(c_lo, -math.inf))[0] < 0.5


class TestMedianSearch:
    @pytest.mark.parametrize("N", [10 ** 3, 10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("base", [10, 2])
    def test_rows_reach_the_last_bit(self, base, N):
        assert_median_interval(nu_profile(base, N))

    def test_random_pairs(self, rng):
        for _ in range(50):
            assert_median_interval(delta_profile(random_cdf(rng), random_cdf(rng)))

    def test_flat_median_stretch(self):
        assert_median_interval(half_step_profile())

    def test_slope_is_the_derivative_of_the_level(self, rng):
        for _ in range(20):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            values = np.unique(piece_values(prof))
            # the middle of the widest gap between piece values: L is smooth there
            k = int(np.argmax(np.diff(values)))
            c, h = (values[k] + values[k + 1]) / 2, (values[k + 1] - values[k]) / 8
            level, slope = level_measure(prof, c)
            assert level == level_measure(prof, c)[0]
            quotient = (level_measure(prof, c + h)[0] - level_measure(prof, c - h)[0]) / (2 * h)
            assert slope == pytest.approx(quotient, rel=1e-2, abs=1e-9)

    @pytest.mark.parametrize("base,d_circle,offset_c", [
        (10, 6.2160293974009677e-06, 3.2184796258688537e-05),
        (2, 1.6059164154578043e-05, 8.3716439999936845e-05),
    ])
    def test_pinned_rows(self, base, d_circle, offset_c):
        row = compute_metrics(base, 10 ** 5)
        assert row.d_circle == pytest.approx(d_circle, rel=1e-12, abs=0.0)
        assert row.offset_c == pytest.approx(offset_c, rel=1e-12, abs=0.0)


def bracket_probes(prof, lo, hi, count=200):
    """Levels spread over [lo, hi], its ends and their neighbours, and every
    piece value inside it: where pieces switch between counting fully,
    partly and not at all."""
    values = piece_values(prof)
    inside = np.unique(values[(lo <= values) & (values <= hi)])[:count]
    ends = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    return [float(c) for c in np.concatenate((np.linspace(lo, hi, count), inside, ends))]


def narrowed(prof, lo, hi):
    level = _LevelProfile(prof)
    level.narrow(lo, hi)
    return level


def brackets(prof, rng):
    """A tight bracket around the median offset and one between two piece values."""
    c_lo = median_offset(prof)
    values = np.unique(piece_values(prof))
    spread = 1e-3 * (values[-1] - values[0])
    i, j = sorted(rng.choice(values.size, size=2, replace=False))
    return [(c_lo - spread, c_lo + spread), (float(values[i]), float(values[j]))]


def value_ranges(prof):
    """Each piece's least and greatest value, as a level pass computes them."""
    b = float(prof.base)
    v_lo = prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset
    v_hi = prof.coef * np.power(b, prof.bounds[1:]) + prof.offset
    return np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi)


def value_end_brackets(prof):
    """Brackets around the median offset whose ends are piece values, so
    that pieces start or end exactly at an end or inside the bracket: the
    cases where a piece is in the core (``v_min < lo`` and ``v_max > hi``)
    or on the border by one comparison."""
    c = median_offset(prof)
    v_min, v_max = value_ranges(prof)
    out = []
    for low, high in ((v_min, v_max), (v_max, v_min), (v_min, v_min), (v_max, v_max)):
        below, above = low[low <= c], high[high >= c]
        if below.size and above.size:
            lo, hi = float(below.max()), float(above.min())
            if lo < hi:
                out.append((lo, hi))
    return out


def coreless_bracket(prof):
    """A bracket around the median offset wider than every piece's value
    range, so that no piece straddles all of it: the core is empty."""
    c = median_offset(prof)
    v_min, v_max = value_ranges(prof)
    spread = float((v_max - v_min).max())
    return c - spread, c + spread


def core_size(level):
    """How many active pieces of a narrowed search profile are in its core."""
    return level.index.size - level.v_min.size


NARROW_ROWS = [(2, 6000), (3, 5000), (10, 5000), (16, 5000)]


@pytest.mark.parametrize("base,N", [(10, 2 * 10 ** 4), (2, 2 * 10 ** 4)])
def test_search_value_ranges_are_the_piece_values(base, N):
    """The search's value ranges come from ``_piece_values``, the one
    formula for a piece's end values, bit for bit, signed zeros included."""
    prof = nu_profile(base, N)
    starts, ends = prof._piece_values()
    level = _LevelProfile(prof)
    for got, want in ((level.v_min, np.minimum(starts, ends)),
                      (level.v_max, np.maximum(starts, ends))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("base,N", [(10, 1000), (7, 1500), (2, 2 * 10 ** 4), (10, 2 * 10 ** 4)])
def test_search_edges_of_a_metrics_row_are_its_bounds(base, N):
    """No piece of a metrics row rises (its coef is -G.coef), so every
    partial piece is measured from its right end and the search keeps no
    array of edges."""
    prof = nu_profile(base, N)
    assert np.shares_memory(_LevelProfile(prof).edge, prof.bounds)


def test_search_edges_are_where_each_piece_is_measured_from(rng):
    """A partial piece is measured from its left end if it rises and from its
    right end otherwise, on profiles with every sign mix."""
    profiles = [delta_profile(random_cdf(rng), random_cdf(rng)) for _ in range(30)]
    rising = delta_profile(cdf_wrapped_exponential(10, 0.3), closed_form_cdf(10, 1000))
    for prof in [*profiles, rising, nu_profile(10, 1000)]:
        want = np.where(prof.coef > 0.0, prof.bounds[:-1], prof.bounds[1:])
        assert np.array_equal(_LevelProfile(prof).edge, want)
    assert np.shares_memory(_LevelProfile(rising).edge, rising.bounds)


class TestNarrowedLevel:
    """A narrowed search profile answers with the bits of a full pass."""

    def assert_same_bits(self, prof, lo, hi):
        level = narrowed(prof, lo, hi)
        for c in bracket_probes(prof, lo, hi):
            got, slope = level_measure(level, c)
            want, full_slope = level_measure(prof, c)
            assert got.hex() == want.hex(), c
            assert slope == pytest.approx(full_slope, rel=1e-10, abs=0.0)
        return level

    @pytest.mark.parametrize("base,N", NARROW_ROWS)
    def test_rows(self, base, N, rng):
        prof = nu_profile(base, N)
        for lo, hi in brackets(prof, rng):
            self.assert_same_bits(prof, lo, hi)

    @pytest.mark.parametrize("base,N", NARROW_ROWS)
    def test_bracket_ends_at_piece_values(self, base, N):
        prof = nu_profile(base, N)
        v_min, v_max = value_ranges(prof)
        ends = value_end_brackets(prof)
        assert len(ends) == 4
        for lo, hi in ends:
            level = self.assert_same_bits(prof, lo, hi)
            # a piece that starts or ends at an end of the bracket and does
            # not lie below it is on the border, not in the core
            at_ends = ((v_min == lo) | (v_min == hi) | (v_max == hi)).nonzero()[0]
            assert at_ends.size
            assert np.isin(at_ends, level.index[core_size(level):]).all()

    @pytest.mark.parametrize("base,N", NARROW_ROWS)
    def test_bracket_with_an_empty_core(self, base, N):
        prof = nu_profile(base, N)
        lo, hi = coreless_bracket(prof)
        level = self.assert_same_bits(prof, lo, hi)
        assert core_size(level) == 0 and 0 < level.index.size < prof.piece_count

    def test_random_pairs(self, rng):
        for _ in range(20):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            values = piece_values(prof)
            if values.min() == values.max():
                continue
            for lo, hi in brackets(prof, rng) + value_end_brackets(prof) + [coreless_bracket(prof)]:
                if lo < hi:
                    self.assert_same_bits(prof, lo, hi)

    def test_levels_outside_the_bracket_are_refused(self, rng):
        prof = nu_profile(10, 5000)
        for lo, hi in brackets(prof, rng):
            level = narrowed(prof, lo, hi)
            for c in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
                      lo - 1.0, hi + 1.0, math.nan):
                with pytest.raises(ValueError):
                    level_measure(level, c)

    @pytest.mark.parametrize("base,N", NARROW_ROWS)
    def test_level_is_monotone_around_the_median(self, base, N):
        prof = nu_profile(base, N)
        c_lo = median_offset(prof)
        cs = [c_lo]
        for _ in range(300):
            cs.insert(0, math.nextafter(cs[0], -math.inf))
            cs.append(math.nextafter(cs[-1], math.inf))
        level = narrowed(prof, cs[0], cs[-1])
        levels = [level_measure(level, c)[0] for c in cs]
        assert all(a <= b for a, b in zip(levels, levels[1:]))
        assert levels[299] < 0.5 <= levels[300]

    def test_search_narrows_once(self, monkeypatch):
        calls = []
        narrow = _LevelProfile.narrow
        monkeypatch.setattr(_LevelProfile, "narrow",
                            lambda self, lo, hi: calls.append((lo, hi)) or narrow(self, lo, hi))
        prof = nu_profile(10, 10 ** 4)
        assert prof.piece_count >= transport._NARROW_MIN_PIECES
        median_offset(prof)
        assert len(calls) == 1

    def test_flat_median_stretch_over_many_pieces(self, rng):
        """A median stretch wider than one piece, found on a narrowed profile:
        the search ends at its lower end."""
        pieces = 2 * transport._NARROW_MIN_PIECES
        low, high = -rng.random(pieces // 2), 1.0 + rng.random(pieces // 2)
        # dyadic widths: every sublevel measure is exact, so L is 1/2 on [max low, min high)
        prof = DeltaProfile(base=2, bounds=np.arange(pieces + 1) / pieces,
                            coef=np.zeros(pieces),
                            offset=rng.permutation(np.concatenate((low, high))))
        assert median_offset(prof) == low.max()
        assert_median_interval(prof)


def ordinal(x):
    """Rank of ``x`` among binary64 values; both zeros have rank 0."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def from_ordinal(k):
    """The binary64 value of rank ``k``."""
    x = float(np.int64(abs(k)).view(np.float64))
    return x if k >= 0 else -x


def bisected_median(prof):
    """The least float where the level reaches 1/2, by plain rank bisection."""
    values, level = piece_values(prof), _LevelProfile(prof)
    lo, hi = ordinal(math.nextafter(float(values.min()), -math.inf)), ordinal(float(values.max()))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if level_measure(level, from_ordinal(mid))[0] >= 0.5:
            hi = mid
        else:
            lo = mid
    return from_ordinal(hi)


def near_offsets_profile(rng):
    """Over 2 * _NARROW_MIN_PIECES pieces of equal width: constant ones, two
    short of half below 0 and two short of half above, and four exponential
    ones whose values and offsets d all lie within 3e-300 of 0.  The level
    reaches 1/2 inside the second of these by value."""
    pieces = 2 * transport._NARROW_MIN_PIECES
    half = pieces // 2
    coef = np.zeros(pieces)
    offset = np.concatenate((-rng.random(half - 2), 1.0 + rng.random(half - 2), np.zeros(4)))
    coef[-4:], offset[-4:] = 1e-300, [0.0, -1e-300, 1e-300, -2e-300]
    order = rng.permutation(pieces)
    return DeltaProfile(base=2, bounds=np.arange(pieces + 1) / pieces,
                        coef=coef[order], offset=offset[order])


class TestStaircaseFinish:
    """The search's finish over the level's steps returns what bisecting the
    level over every float does."""

    @pytest.mark.parametrize("base,N", NARROW_ROWS + [(2, 13), (10, 10 ** 4)])
    def test_rows(self, base, N):
        prof = nu_profile(base, N)
        assert median_offset(prof).hex() == bisected_median(prof).hex()

    def test_random_pairs(self, rng):
        for _ in range(100):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            assert median_offset(prof).hex() == bisected_median(prof).hex()

    def test_offsets_at_the_median_fall_back(self, rng, monkeypatch):
        """Offsets d within 1e-300 of the median make the grid of rounding
        ties too fine to list, so the search bisects by rank to the end."""
        listed = []
        steps = _LevelProfile.steps

        def recorded(self, lo, hi):
            listed.append(steps(self, lo, hi))
            return listed[-1]

        monkeypatch.setattr(_LevelProfile, "steps", recorded)
        prof = near_offsets_profile(rng)
        assert median_offset(prof).hex() == bisected_median(prof).hex()
        assert listed and all(points is None for points, _ in listed)

    def test_steps_answer_as_a_fresh_scan(self, rng, monkeypatch):
        """``steps`` scans the active offsets once per narrowing and answers
        every later, narrower bracket from that scan: each answer of a search
        is that of a fresh profile with the same active pieces, narrowed to
        the search's bracket or, below ``_NARROW_MIN_PIECES``, not at all."""
        calls = []
        steps = _LevelProfile.steps

        def recorded(self, lo, hi):
            answer = steps(self, lo, hi)
            calls.append((self.index is not None and self.bracket, lo, hi, answer))
            return answer

        monkeypatch.setattr(_LevelProfile, "steps", recorded)
        profiles = [nu_profile(base, N) for base, N in NARROW_ROWS]
        profiles += [delta_profile(random_cdf(rng), random_cdf(rng)) for _ in range(20)]
        asked_again = narrowed_searches = 0
        for prof in profiles:
            calls.clear()
            median_offset(prof)
            asked_again += len(calls) > 1
            for bracket, lo, hi, answer in calls:
                fresh = narrowed(prof, *bracket) if bracket else _LevelProfile(prof)
                narrowed_searches += bool(bracket)
                assert steps(fresh, lo, hi) == answer, (lo, hi)
        assert asked_again and narrowed_searches  # later brackets were answered from a scan

    @pytest.mark.parametrize("base", [10, 2])
    def test_rows_take_few_passes(self, base, monkeypatch):
        calls = []
        monkeypatch.setattr(transport, "level_measure",
                            lambda prof, c: calls.append(c) or level_measure(prof, c))
        median_offset(nu_profile(base, 10 ** 5))
        assert len(calls) <= 9


@pytest.mark.parametrize("base,N,d_line,d_circle,offset_c", [
    (10, 10 ** 5, "0x1.0d719f2c85720p-15", "0x1.a126926776faap-18", "0x1.0dfc52dcad001p-15"),
    (2, 10 ** 5, "0x1.5f0a135eb7996p-14", "0x1.0d6d95b867076p-16", "0x1.5f21d7cdd2001p-14"),
    (3, 300, "0x1.4f0a70c282109p-7", "0x1.403d7afd6e4d4p-9", "0x1.505c010333141p-7"),
    (16, 2000, "0x1.65cd088034046p-11", "0x1.bfedab26e3f50p-13", "0x1.65715a685bd01p-11"),
    (2, 13, "0x1.1de608c25dee1p-3", "0x1.bef05f81f05f2p-5", "0x1.12a2ce48a2addp-3"),
    (10, 10 ** 6, "0x1.f23813414dfbep-19", "0x1.68a179798f42cp-21", "0x1.f2f5e4eee8001p-19"),
    (10, 468, "0x1.81b4cacc17babp-9", "0x1.e2ea233444591p-11", "0x1.80fb4daedab80p-9"),
    (7, 732, "0x1.660ca78d1b110p-9", "0x1.6d4d2263e119dp-11", "0x1.671258e45f5c0p-9"),
    (3, 1837, "0x1.cec7d0ea6f445p-10", "0x1.e69f8f2b214b3p-12", "0x1.cd42d03574a01p-10"),
    (10, 1000, "0x1.21ede6588b622p-9", "0x1.09af1771a131bp-11", "0x1.2329e3ac0d7c0p-9"),
    (7, 1500, "0x1.3d4d52f04cf30p-10", "0x1.71b117a5f5506p-12", "0x1.3cb8f88e81c81p-10"),
    (2, 2000, "0x1.54378e5a22276p-9", "0x1.5efd5273e65bap-11", "0x1.53f5e7fbd3501p-9"),
])
def test_rows_keep_their_bits(base, N, d_line, d_circle, offset_c):
    """Rows to the last bit, as recorded before the level passes were narrowed
    and the integrals restricted to the split pieces; (2, 13) has a flat
    median stretch, whose lower end is its offset, and (10, 10**6) is the
    benchmark's row, recorded before the search listed the level's steps.
    The rows of N <= 2000 after it are small rows of the benchmark's mix,
    whose searches never narrow, recorded before their passes called ufuncs
    in place of numpy's Python-level wrappers."""
    for cpus in one_cpu_and_all():
        with affinity(cpus):
            row = compute_metrics(base, N)
        assert (row.d_line.hex(), row.d_circle.hex(), row.offset_c.hex()) == (d_line, d_circle, offset_c)


@pytest.mark.parametrize("base,N,d_line", [
    (2, 10 ** 7, "0x1.4365d07472996p-20"),
    (2, 1060921, "0x1.51559bee01d4cp-17"),
    (3, 1595100, "0x1.2d5fe2fd35d5ap-18"),
])
def test_line_rows_keep_their_bits(base, N, d_line):
    """Line-only rows of half a million to five million pieces to the last
    bit, as recorded before ``closed_form_cdf`` took running digit sums and
    ``integral_abs`` took spans; (2, 10**7) is the benchmark's line row.
    On two CPUs the rows past a million pieces fork a worker for half of
    the spans; on one they are integrated inline."""
    for cpus in one_cpu_and_all():
        with affinity(cpus):
            assert compute_metrics(base, N, ("line",)).d_line.hex() == d_line


class TestW1Line:
    def test_identical(self, rng):
        F = random_cdf(rng)
        assert w1_line(F, F).distance == 0.0

    def test_two_atoms(self):
        F = cdf_of_empirical(build_empirical([0.0], 10))
        G = cdf_of_empirical(build_empirical([0.75], 10))
        assert w1_line(F, G).distance == pytest.approx(0.75, abs=1e-15)

    def test_atom_versus_exponential(self):
        F = cdf_of_empirical(build_nu(2, 2))
        G = cdf_wrapped_exponential(2, 0.0)
        res = w1_line(F, G)
        assert res.distance == pytest.approx(LINE_VALUE, abs=1e-15)
        assert res.offset == 0.0


class TestW1Circle:
    def test_wraparound_geodesic(self):
        F = cdf_of_empirical(build_empirical([0.0], 10))
        G = cdf_of_empirical(build_empirical([0.75], 10))
        assert w1_circle(F, G).distance == pytest.approx(0.25, abs=1e-15)

    def test_identical(self, rng):
        F = random_cdf(rng)
        assert w1_circle(F, F).distance == 0.0

    def test_atom_versus_exponential(self):
        F = cdf_of_empirical(build_nu(2, 2))
        G = cdf_wrapped_exponential(2, 0.0)
        res = w1_circle(F, G)
        assert res.distance == pytest.approx(CIRCLE_VALUE, abs=1e-12)
        assert res.offset == pytest.approx(MEDIAN_C, abs=1e-12)

    def test_against_grid_oracle(self):
        F = cdf_of_empirical(build_nu(2, 2))
        G = cdf_wrapped_exponential(2, 0.0)
        _, grid_val = grid_minimize_offset(delta_profile(F, G), 100001)
        exact = w1_circle(F, G).distance
        assert exact <= grid_val + 1e-15
        assert grid_val - exact <= 1e-5


class TestCutDistance:
    def test_direct_variant_at_zero(self):
        F = cdf_of_empirical(build_nu(2, 2))
        G = cdf_wrapped_exponential(2, 0.0)
        # delta(0) = 1, so the integrand is |1 - 2**t|
        assert cut_distance(F, G, 0.0, "D") == pytest.approx(1 / LN2 - 1, abs=1e-15)

    def test_left_variant_at_zero(self):
        F = cdf_of_empirical(build_nu(2, 2))
        G = cdf_wrapped_exponential(2, 0.0)
        # delta(0-) wraps around the circle to 0
        assert cut_distance(F, G, 0.0, "I") == pytest.approx(LINE_VALUE, abs=1e-15)

    def test_identical_any_cut(self, rng):
        F = random_cdf(rng)
        for s in rng.random(5):
            assert cut_distance(F, F, float(s), "D") == 0.0
            assert cut_distance(F, F, float(s), "I") == 0.0

    def test_validation(self):
        F = cdf_wrapped_exponential(2, 0.0)
        with pytest.raises(ValueError):
            cut_distance(F, F, 1.0, "D")
        with pytest.raises(ValueError):
            cut_distance(F, F, 0.5, "X")


def min_over_cut_candidates(F, G, c_star):
    """Min cut distance over breakpoints (both variants) plus the interior
    locations where the profile crosses the optimal offset."""
    prof = delta_profile(F, G)
    cuts = set(float(s) for s in prof.bounds[:-1])
    b = float(prof.base)
    v_lo = prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset
    v_hi = prof.coef * np.power(b, prof.bounds[1:]) + prof.offset
    for i in range(prof.piece_count):
        if prof.coef[i] == 0.0:
            continue
        if min(v_lo[i], v_hi[i]) - 1e-12 <= c_star <= max(v_lo[i], v_hi[i]) + 1e-12:
            ratio = (c_star - prof.offset[i]) / prof.coef[i]
            if ratio > 0.0:
                s = math.log(ratio) / math.log(prof.base)
                s = min(max(s, float(prof.bounds[i])), float(prof.bounds[i + 1]))
                if s < 1.0:
                    cuts.add(s)
    return min(cut_distance(F, G, s, v) for s in cuts for v in ("D", "I"))


@pytest.mark.parametrize("base,N", [(2, 13), (3, 300), (7, 566), (10, 1000)])
def test_rows_match_the_cut_formulation(base, N):
    """Cutting the circle open where a row's profile meets offset_c gives
    d_circle; (2, 13) has a flat median stretch."""
    row = compute_metrics(base, N)
    F = closed_form_cdf(base, N)
    G = cdf_wrapped_exponential(base, reference_rotation(base, N))
    assert min_over_cut_candidates(F, G, row.offset_c) == pytest.approx(
        row.d_circle, rel=1e-12, abs=0.0)


class TestInvariants:
    def test_offset_convexity(self, rng):
        for _ in range(5):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            b = float(prof.base)
            v = np.concatenate((
                prof.coef * np.power(b, prof.bounds[:-1]) + prof.offset,
                prof.coef * np.power(b, prof.bounds[1:]) + prof.offset))
            grid = np.linspace(v.min(), v.max(), 100)
            vals = [integral_abs(prof, float(c)) for c in grid]
            for i in range(1, len(grid) - 1):
                chord = 0.5 * (vals[i - 1] + vals[i + 1])
                assert vals[i] <= chord + 1e-12

    def test_optimality_of_median(self, rng):
        for _ in range(10):
            prof = delta_profile(random_cdf(rng), random_cdf(rng))
            c_lo = median_offset(prof)
            best = integral_abs(prof, c_lo)
            for c in rng.uniform(-1.0, 1.0, 100):
                assert integral_abs(prof, float(c)) >= best - 1e-12

    def test_cut_formulation_matches_offset_formulation(self, rng):
        for _ in range(20):
            F, G = random_cdf(rng), random_cdf(rng)
            res = w1_circle(F, G)
            assert min_over_cut_candidates(F, G, res.offset) == pytest.approx(
                res.distance, abs=1e-10)

    def test_symmetry(self, rng):
        for _ in range(30):
            F, G = random_cdf(rng), random_cdf(rng)
            assert w1_circle(F, G).distance == pytest.approx(
                w1_circle(G, F).distance, abs=1e-12)
            assert w1_line(F, G).distance == pytest.approx(
                w1_line(G, F).distance, abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            A, B, C = (random_step_cdf(rng) for _ in range(3))
            dab = w1_circle(A, B).distance
            dbc = w1_circle(B, C).distance
            dac = w1_circle(A, C).distance
            assert dac <= dab + dbc + 1e-10

    def test_rotation_invariance_of_circle_distance(self, rng):
        for _ in range(100):
            F, G = random_cdf(rng), random_cdf(rng)
            y = float(rng.random())
            before = w1_circle(F, G).distance
            after = w1_circle(rotate_cdf(F, y), rotate_cdf(G, y)).distance
            assert after == pytest.approx(before, abs=1e-10)

    def test_line_distance_is_not_rotation_invariant(self):
        F = cdf_of_empirical(build_empirical([0.0], 10))
        G = cdf_of_empirical(build_empirical([0.75], 10))
        before = w1_line(F, G).distance
        after = w1_line(rotate_cdf(F, 0.5), rotate_cdf(G, 0.5)).distance
        assert abs(before - after) > 0.4

    def test_domination(self, rng):
        for _ in range(50):
            F, G = random_cdf(rng), random_cdf(rng)
            circle = w1_circle(F, G).distance
            line = w1_line(F, G).distance
            assert 0.0 <= circle <= line + 1e-12
            assert circle <= 0.5 + 1e-12
            assert line <= 1.0 + 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
                min_size=1, max_size=12),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_median_beats_all_candidate_offsets(xs, ys):
    prof = delta_profile(cdf_of_empirical(build_empirical(xs, 2)),
                         cdf_of_empirical(build_empirical(ys, 2)))
    c_lo = median_offset(prof)
    best = integral_abs(prof, c_lo)
    for c in np.unique(prof.offset):
        assert best <= integral_abs(prof, float(c)) + 1e-12

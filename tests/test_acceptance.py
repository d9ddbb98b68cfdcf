"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``); the
quantitative sweep checks share two session-scoped sweeps.
"""

import math
import os
import time

import numpy as np
import pytest

from circletransport import (
    SweepConfig,
    build_empirical,
    build_nu,
    cdf_of_empirical,
    cdf_wrapped_exponential,
    closed_form_cdf,
    fit_rate,
    line_rate_limit,
    rotate_cdf,
    run_sweep,
    w1_circle,
    w1_line,
)
from circletransport.harness import (
    CIRCLE_SQRT_BOUND,
    _classes,
    _grid,
    _non_increasing,
)
from circletransport.oracle import equivalence_trials
from conftest import SEED, random_cdf, random_step_cdf
from test_transport import min_over_cut_candidates

LINE_RATE_TOL = 0.02
CIRCLE_SLACK = 1.5
LINEAR_FLOOR = 0.01
PROBE_TOL = 1e-12


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{criterion} failed: {detail}"


GRID = dict(n_min=1000, n_max=10 ** 6, points_per_decade=4)


def _grid_of(base: int) -> dict[int, int]:
    """The sweeps' grid in ``base``: ``{N: k}``."""
    return _grid(base, GRID["n_min"], GRID["n_max"], GRID["points_per_decade"])


def _timed_sweep(base: int):
    cfg = SweepConfig(base=base, **GRID, threads=os.cpu_count() or 1)
    start = time.perf_counter()
    rows = run_sweep(cfg)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def sweep_b10():
    return _timed_sweep(10)


@pytest.fixture(scope="session")
def sweep_b2():
    return _timed_sweep(2)


class TestCriterion1SharpLineRate:
    """Fit scaled_line = a + b/ln N and compare a against 1/(2 ln base).

    The finite-N correction depends on where N sits inside its period of
    log_b N, so the model is fitted along the grid's phase classes; all
    fitted intercepts must land within the tolerance and the deviation must
    shrink with N inside every phase class.
    """

    def check_base(self, rows, elapsed, base):
        limit = line_rate_limit(base)
        by_n = {r.N: r for r in rows}
        classes = [[by_n[N] for N in cl]
                   for cl in _classes(_grid_of(base), GRID["points_per_decade"])]
        fits = [fit_rate(cl, "scaled_line") for cl in classes if len(cl) >= 3]
        assert fits, "no constant-phase subsequence long enough to fit"
        worst = max(abs(f.intercept - limit) for f in fits)
        monotone = all(
            _non_increasing([abs(r.scaled_line - limit) for r in cl])
            for cl in classes if len(cl) >= 2)
        ok = worst <= LINE_RATE_TOL and monotone and elapsed <= 300.0
        report(
            f"1 sharp-line-rate base {base}", ok,
            f"intercepts {[round(f.intercept, 5) for f in fits]} vs {limit:.7f}, "
            f"worst gap {worst:.5f} (tol {LINE_RATE_TOL}), deviation monotone "
            f"along phase classes: {monotone}, sweep {elapsed:.1f}s")

    def test_base_10(self, sweep_b10):
        self.check_base(*sweep_b10, base=10)

    def test_base_2(self, sweep_b2):
        self.check_base(*sweep_b2, base=2)


class TestCriterion2CircleUpperBound:
    def test_sqrt_scaled_bound(self, sweep_b10):
        rows, _ = sweep_b10
        mx = max(r.scaled_circle_sqrt for r in rows if r.N >= 10 ** 4)
        hard = CIRCLE_SLACK * CIRCLE_SQRT_BOUND
        warn = "" if mx <= CIRCLE_SQRT_BOUND else " (WARN: above 1.0x, inside slack)"
        report("2 circle-upper-bound", mx <= hard,
               f"max N*d_circle/sqrt(ln N) = {mx:.6f} vs bound {CIRCLE_SQRT_BOUND:.6f} "
               f"x {CIRCLE_SLACK}{warn}")


class TestCriterion3NotFasterThanOneOverN:
    def test_linear_floor(self, sweep_b10):
        rows, _ = sweep_b10
        mn = min(r.scaled_circle_linear for r in rows)
        report("3 not-faster-than-1/N", mn >= LINEAR_FLOOR,
               f"min N*d_circle = {mn:.4f} vs floor {LINEAR_FLOOR}")


class TestCriterion4CircleBeatsLine:
    def test_domination_and_vanishing_ratio(self, sweep_b10):
        rows, _ = sweep_b10
        gated = [r for r in rows if r.N >= 1000]
        strict = all(r.d_circle < r.d_line for r in gated)
        by_n = {r.N: r for r in rows}
        ratios = [[by_n[N].d_circle / by_n[N].d_line for N in cl]
                  for cl in _classes(_grid_of(10), GRID["points_per_decade"])]
        shrinking = all(_non_increasing(cl) for cl in ratios)
        report("4 circle-beats-line", strict and shrinking,
               f"d_circle < d_line on all {len(gated)} rows: {strict}; ratios along the "
               f"phase classes {[[round(v, 4) for v in cl] for cl in ratios]} "
               f"non-increasing: {shrinking}")


class TestCriterion5OracleEquivalence:
    def test_seeded_random_pairs(self):
        start = time.perf_counter()
        worst_line, worst_circle = equivalence_trials(trials=200, max_atoms=40, seed=SEED)
        elapsed = time.perf_counter() - start
        ok = worst_line <= 1e-9 and worst_circle <= 1e-9 and elapsed <= 30.0
        report("5 oracle-equivalence", ok,
               f"200 pairs, max line err {worst_line:.2e}, max circle err "
               f"{worst_circle:.2e} (tol 1e-9), {elapsed:.1f}s")


class TestCriterion6ClosedFormIdentity:
    def test_all_counts_to_ten_thousand(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for base in (2, 3, 10):
            for N in range(1, 10 ** 4 + 1):
                F = closed_form_cdf(base, N)
                G = cdf_of_empirical(build_nu(base, N))
                # integer-count identity, exact: same breakpoints, same counts
                assert np.array_equal(F.bounds, G.bounds), (base, N)
                counts_f = np.rint(F.offset * N).astype(np.int64)
                counts_g = np.rint(G.offset * N).astype(np.int64)
                assert np.array_equal(counts_f, counts_g), (base, N)
                t = rng.random(1000)
                err = float(np.max(np.abs(F.value(t) - G.value(t))))
                worst = max(worst, err)
                assert err <= PROBE_TOL, (base, N, err)
        report("6 closed-form-cdf-identity", True,
               f"bases 2,3,10 x all N <= 1e4, 1000 probes each, worst "
               f"probe gap {worst:.2e} (tol {PROBE_TOL:.0e}), counts exact")


class TestCriterion7RotatedExponentialIdentity:
    def test_rotation_matches_wrapped_construction(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for base in (2, 10):
            E = cdf_wrapped_exponential(base, 0.0)
            for y in rng.random(50):
                R = rotate_cdf(E, float(y))
                W = cdf_wrapped_exponential(base, float(y))
                t = rng.random(1000)
                worst = max(worst, float(np.max(np.abs(R.value(t) - W.value(t)))))
        report("7 rotated-exponential-identity", worst <= PROBE_TOL,
               f"50 rotations x bases 2,10, 1000 probes each, worst gap {worst:.2e}")


class TestCriterion8MetricPropertySuite:
    def test_properties(self):
        rng = np.random.default_rng(SEED)

        sym_err = 0.0
        for _ in range(50):
            F, G = random_cdf(rng), random_cdf(rng)
            sym_err = max(sym_err, abs(w1_circle(F, G).distance - w1_circle(G, F).distance))
        symmetric = sym_err <= 1e-12

        triangle = True
        for _ in range(100):
            A, B, C = (random_step_cdf(rng) for _ in range(3))
            if w1_circle(A, C).distance > (w1_circle(A, B).distance
                                           + w1_circle(B, C).distance + 1e-10):
                triangle = False
        rot_err = 0.0
        for _ in range(100):
            F, G = random_cdf(rng), random_cdf(rng)
            y = float(rng.random())
            rot_err = max(rot_err, abs(
                w1_circle(rotate_cdf(F, y), rotate_cdf(G, y)).distance
                - w1_circle(F, G).distance))
        rotation_invariant = rot_err <= 1e-10

        dominated = True
        for _ in range(50):
            F, G = random_cdf(rng), random_cdf(rng)
            circle = w1_circle(F, G).distance
            if not (0.0 <= circle <= min(w1_line(F, G).distance, 0.5) + 1e-12):
                dominated = False

        cut_err = 0.0
        for _ in range(100):
            F, G = random_cdf(rng), random_cdf(rng)
            res = w1_circle(F, G)
            cut_err = max(cut_err, abs(
                min_over_cut_candidates(F, G, res.offset) - res.distance))
        cut_equivalence = cut_err <= 1e-10

        identity = w1_circle(cdf_wrapped_exponential(10, 0.25),
                             cdf_wrapped_exponential(10, 0.25)).distance == 0.0

        ok = (symmetric and triangle and rotation_invariant and dominated
              and cut_equivalence and identity)
        report("8 metric-property-suite", ok,
               f"symmetry err {sym_err:.2e} (tol 1e-12); triangle on 100 triples: "
               f"{triangle}; rotation invariance err {rot_err:.2e} (tol 1e-10); "
               f"domination: {dominated}; cut-vs-offset err {cut_err:.2e} "
               f"(tol 1e-10) on 100 fixtures; identity exact: {identity}")

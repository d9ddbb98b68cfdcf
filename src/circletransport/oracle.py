"""Brute-force references the transport engine is tested against, and
cross-checks that drive the engine itself.

The independent references share no code with the piecewise machinery:

- ``discrete_w1_line`` and ``discrete_w1_circle`` take distances from
  merged-CDF sums over ``AtomList``s.  The circle variant enumerates cut
  candidates at every atom: for discrete measures an optimal cut can always
  be placed at an atom, since the CDF difference is piecewise constant and
  every level it takes is attained at an atom.
- ``significand_count`` counts the k <= N up to a mantissa in integer
  arithmetic (with ``logseq.digit_count``).

The cross-checks run the engine, so they test one of its parts against
another, not against an independent truth:

- ``quantile_discretize`` reads the pieces' end values (``_piece_values``).
- ``grid_minimize_offset`` checks the offset minimizer on a plain value
  grid; it takes the grid's extent from ``_piece_values`` and each value
  from ``integral_abs``.
- ``cut_distance`` cuts the circle open at a given point and calls
  ``integral_abs``.
- ``equivalence_trials`` compares ``w1_line`` and ``w1_circle`` with the
  discrete references on random atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logseq import digit_count
from .measures import (DeltaProfile, PiecewiseCdf, _check_base, build_empirical,
                       cdf_of_empirical, delta_profile)
from .transport import integral_abs, w1_circle, w1_line

__all__ = [
    "AtomList",
    "discrete_w1_line",
    "discrete_w1_circle",
    "quantile_discretize",
    "grid_minimize_offset",
    "cut_distance",
    "equivalence_trials",
    "significand_count",
]

# Combined atom budget for cut enumeration.  Sized so that the quantile
# convergence checks (1024 atoms per side) stay runnable while accidental
# huge inputs are still rejected.
_CIRCLE_BRUTE_CAP = 2048


@dataclass(frozen=True, eq=False)
class AtomList:
    """Weighted atoms on [0, 1); weights are positive and sum to 1.

    Compares and hashes by identity, since its fields are arrays.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if pos.shape != w.shape or pos.ndim != 1 or pos.size == 0:
            raise ValueError("positions and weights must be matching non-empty 1-d arrays")
        # each test is written so that a NaN fails it
        if not np.all((pos >= 0.0) & (pos < 1.0)):
            raise ValueError("atom positions must lie in [0, 1)")
        if not (np.all(w > 0.0) and abs(math.fsum(w.tolist()) - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to 1")
        pos.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @classmethod
    def equal_weights(cls, positions) -> "AtomList":
        pos = np.asarray(positions, dtype=np.float64)
        return cls(pos, np.full(pos.size, 1.0 / pos.size))


def _line_distance(pos_a, w_a, pos_b, w_b) -> float:
    """L1 distance of the two step CDFs on [0, 1]; atoms at 1 are allowed."""
    xs = np.concatenate((pos_a, pos_b))
    ws = np.concatenate((w_a, -w_b))
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    diff = np.cumsum(ws[order])
    gaps = np.diff(np.concatenate((xs, [1.0])))
    return math.fsum((np.abs(diff) * gaps).tolist())


def discrete_w1_line(a: AtomList, b: AtomList) -> float:
    """Exact Wasserstein-1 on [0, 1] between two atom lists.

    Equivalent to the monotone (sorted-quantile) coupling, which is optimal
    in one dimension.
    """
    mass_a = math.fsum(a.weights.tolist())
    mass_b = math.fsum(b.weights.tolist())
    if abs(mass_a - mass_b) > 1e-12:
        raise ValueError(f"total masses differ: {mass_a} vs {mass_b}")
    return _line_distance(a.positions, a.weights, b.positions, b.weights)


def _cut_open(pos, s: float, variant: str) -> np.ndarray:
    """Positions after cutting the circle at s; atoms at s go to 1 (D) or 0 (I)."""
    q = pos - s
    q[q < 0.0] += 1.0
    if variant == "D":
        q[pos == s] = 1.0
    else:
        q[pos == s] = 0.0
    return q


def discrete_w1_circle(a: AtomList, b: AtomList) -> float:
    """Exact Wasserstein-1 on the circle by enumerating cuts at every atom.

    Both cut conventions are tried at each candidate (atoms sitting exactly
    on the cut may travel with either side).
    """
    if a.positions.size + b.positions.size > _CIRCLE_BRUTE_CAP:
        raise ValueError(
            f"brute-force circle distance capped at {_CIRCLE_BRUTE_CAP} combined atoms")
    mass_a = math.fsum(a.weights.tolist())
    mass_b = math.fsum(b.weights.tolist())
    if abs(mass_a - mass_b) > 1e-12:
        raise ValueError(f"total masses differ: {mass_a} vs {mass_b}")

    cuts = np.unique(np.concatenate((a.positions, b.positions)))
    best = math.inf
    for s in cuts:
        for variant in ("D", "I"):
            qa = _cut_open(a.positions.copy(), float(s), variant)
            qb = _cut_open(b.positions.copy(), float(s), variant)
            oa, ob = np.argsort(qa, kind="stable"), np.argsort(qb, kind="stable")
            d = _line_distance(qa[oa], a.weights[oa], qb[ob], b.weights[ob])
            if d < best:
                best = d
    return best


def quantile_discretize(F: PiecewiseCdf, m: int) -> AtomList:
    """m equal-weight atoms at the generalized quantiles F^{-1}((k-1/2)/m)."""
    if m < 1:
        raise ValueError(f"need at least one atom, got m={m}")
    qs = (np.arange(m) + 0.5) / m
    starts, ends = F._piece_values()
    idx = np.searchsorted(ends, qs, side="left")
    idx = np.clip(idx, 0, F.piece_count - 1)
    lo = F.bounds[:-1][idx]
    hi = F.bounds[1:][idx]
    coef = F.coef[idx]
    offset = F.offset[idx]
    # jump (or constant level) already covers q at the piece start
    at_start = qs <= starts[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(coef != 0.0, (qs - offset) / np.where(coef != 0.0, coef, 1.0), 1.0)
        inner = np.where(ratio > 0.0, np.log(np.where(ratio > 0.0, ratio, 1.0)) / math.log(F.base), 0.0)
    t = np.where(at_start | (coef == 0.0), lo, np.clip(inner, lo, hi))
    t = np.minimum(t, np.nextafter(1.0, 0.0))  # quantiles live on [0, 1)
    return AtomList(t, np.full(m, 1.0 / m))


def grid_minimize_offset(profile: DeltaProfile, grid_points: int) -> tuple[float, float]:
    """Minimize ``c -> integral |delta - c|`` on a uniform value grid.

    Brute force: the returned value is an upper bound on the exact minimum,
    with gap at most ``(max delta - min delta) / grid_points``.
    """
    if grid_points < 2:
        raise ValueError(f"need at least two grid points, got {grid_points}")
    v_lo, v_hi = profile._piece_values()
    c_min = float(min(v_lo.min(), v_hi.min()))
    c_max = float(max(v_lo.max(), v_hi.max()))
    best_c, best_val = c_min, math.inf
    for c in np.linspace(c_min, c_max, grid_points):
        val = integral_abs(profile, float(c))
        if val < best_val:
            best_c, best_val = float(c), val
    return best_c, best_val


def cut_distance(F: PiecewiseCdf, G: PiecewiseCdf, s: float, variant: str = "D") -> float:
    """Line distance after cutting the circle open at ``s``.

    Variant ``"D"`` subtracts the right value ``delta(s)``; variant ``"I"``
    subtracts the left limit ``delta(s-)`` (which wraps to 0 at s = 0).
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"cut point must lie in [0, 1), got {s}")
    if variant not in ("D", "I"):
        raise ValueError(f"variant must be 'D' or 'I', got {variant!r}")
    profile = delta_profile(F, G)
    side = "right" if variant == "D" else "left"
    return integral_abs(profile, profile.value(s, side))


def significand_count(base: int, count: int, i: int) -> int:
    """Exact number of k <= count whose base-b mantissa is <= that of i.

    Per digit block dd the qualifying k form the run from b**(dd-1) up to
    floor(i * b**(dd-d)), capped by count; everything is integer arithmetic.
    """
    # Python integers are exact at any size, so the int64 envelope does not apply
    b, N, n = _check_base(base), count, digit_count(base, count)
    d = digit_count(b, i)
    total = 0
    for dd in range(1, n + 1):
        top = i * b ** (dd - d) if dd >= d else i // b ** (d - dd)
        total += min(top, N) - b ** (dd - 1) + 1
    return total


def equivalence_trials(trials: int, max_atoms: int, seed: int) -> tuple[float, float]:
    """Worst |engine - brute force| over random equal-weight atom pairs.

    Returns the max absolute discrepancies (line, circle).  The engine sees
    the pairs as step CDFs; the oracle path never touches the piecewise
    machinery beyond building the atom lists.  A run of no trials, or of
    pairs past the brute-force circle cap, is refused.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 1 <= max_atoms <= _CIRCLE_BRUTE_CAP // 2:
        raise ValueError(f"max_atoms must lie in 1..{_CIRCLE_BRUTE_CAP // 2}, got {max_atoms}")
    rng = np.random.default_rng(seed)
    worst_line = worst_circle = 0.0
    for _ in range(trials):
        pos_a = rng.random(int(rng.integers(1, max_atoms + 1)))
        pos_b = rng.random(int(rng.integers(1, max_atoms + 1)))
        a = AtomList.equal_weights(pos_a)
        b = AtomList.equal_weights(pos_b)
        Fa = cdf_of_empirical(build_empirical(pos_a, base=2))
        Fb = cdf_of_empirical(build_empirical(pos_b, base=2))
        worst_line = max(worst_line, abs(w1_line(Fa, Fb).distance - discrete_w1_line(a, b)))
        worst_circle = max(worst_circle, abs(w1_circle(Fa, Fb).distance - discrete_w1_circle(a, b)))
    return worst_line, worst_circle

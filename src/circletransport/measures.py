"""Probability measures on the unit circle represented by exact piecewise CDFs.

A measure on [0, 1) is stored through its right-continuous CDF, given as an
ordered cover of [0, 1) by pieces on which the CDF is either constant or of
the exponential form ``A * base**t + B``.  Differences of two such CDFs stay
in the same family (with signed leading coefficient), which is what makes the
transport integrals in :mod:`circletransport.transport` exactly computable.

All containers are immutable after construction (the backing arrays are
marked read-only) and every operation is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOM_MERGE_TOL",
    "CircleEmpirical",
    "PiecewiseCdf",
    "DeltaProfile",
    "build_empirical",
    "cdf_of_empirical",
    "cdf_wrapped_exponential",
    "rotate_cdf",
    "delta_profile",
]

# Atom positions closer than this are treated as one atom with multiplicity.
# Mantissa collisions of the log sequences are exact in theory and within one
# ulp in practice, so this only has to absorb rounding noise.
ATOM_MERGE_TOL = 1e-15

_EDGE_TOL = 1e-12  # slack for CDF sanity checks (monotone, total mass)


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_base(base) -> int:
    """The one test of a logarithm base: the paper's rates need an integer b >= 2.

    Returns the base as an ``int``, so a float base such as 3.0 computes
    with exact integer powers.
    """
    if base < 2 or int(base) != base:
        raise ValueError(f"base must be an integer >= 2, got {base}")
    return int(base)


@dataclass(frozen=True, eq=False)
class CircleEmpirical:
    """Equal-weight atom set on [0, 1): N atoms, each of weight 1/N.

    ``positions`` is sorted non-decreasing; duplicates encode multiplicity.
    """

    base: int
    positions: np.ndarray

    @property
    def count(self) -> int:
        return int(self.positions.size)

    @property
    def weight(self) -> float:
        """Weight carried by each atom."""
        return 1.0 / self.count


@dataclass(frozen=True, eq=False)
class _PiecewiseBase:
    """Shared piece bookkeeping for CDFs and CDF differences.

    Construction validates the base and the piece arrays and stores them
    read-only.  A contiguous float64 array is stored as given, not copied,
    so the caller's own array becomes read-only too.  Copying would hold a
    second set of piece arrays during construction: it raised the peak RSS
    of a line-only row at base 2, N near 10**7, from 383 MB to 498 MB.
    Instances compare and hash by identity (``eq=False``): a
    field-wise ``==`` over numpy arrays has no single truth value.
    Subclasses add no fields and no decorator, which would bring the
    generated ``__eq__`` back.
    """

    base: int
    bounds: np.ndarray  # shape (P+1,): bounds[0] == 0.0, bounds[-1] == 1.0
    coef: np.ndarray  # shape (P,)
    offset: np.ndarray  # shape (P,)

    def __post_init__(self):
        for name in ("bounds", "coef", "offset"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        bounds, coef, offset = self.bounds, self.coef, self.offset
        if bounds.ndim != 1 or coef.shape != offset.shape or coef.size != bounds.size - 1:
            raise ValueError("inconsistent piece array shapes")
        # each test is written so that a NaN fails it
        if not (bounds.size >= 2 and bounds[0] == 0.0 and bounds[-1] == 1.0):
            raise ValueError("pieces must cover [0, 1)")
        if not np.all(bounds[1:] > bounds[:-1]):
            raise ValueError("piece bounds must be strictly increasing")
        # a NaN or inf anywhere makes the sum of squares non-finite; two dot
        # products allocate no full-length temporary (values past 1e154 in
        # magnitude would overflow it too, far outside this family's range)
        if not math.isfinite(float(coef @ coef + offset @ offset)):
            raise ValueError("piece coefficients and offsets must be finite")
        _check_base(self.base)

    @property
    def piece_count(self) -> int:
        return int(self.coef.size)

    def _values_at(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.coef[idx] * np.power(float(self.base), t) + self.offset[idx]

    def value(self, t, side: str = "right"):
        """Evaluate at ``t`` (right value) or take the left limit (``side='left'``).

        Right evaluation requires ``t`` in [0, 1).  Left evaluation accepts
        [0, 1]: the left limit at 0 wraps around the circle to 0, since
        every CDF starts from ``F(0-) = 0`` by convention, and ``t = 1``
        gives the left limit at the end (the total mass of a CDF).  Accepts
        scalars or arrays.
        """
        t_arr, scalar = _as_probe_array(t)
        if side == "right":
            _check_domain(t_arr, upper_open=True)
            idx = np.searchsorted(self.bounds, t_arr, side="right") - 1
            out = self._values_at(t_arr, idx)
        elif side == "left":
            _check_domain(t_arr, upper_open=False)
            idx = np.clip(np.searchsorted(self.bounds, t_arr, side="left") - 1, 0, None)
            out = np.where(t_arr == 0.0, 0.0, self._values_at(t_arr, idx))
        else:
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        return float(out[0]) if scalar else out

    def _bound_powers(self) -> np.ndarray:
        """``base ** bounds``, computed once per instance and kept with it.

        Slices ``[:-1]`` and ``[1:]`` are the powers at the piece starts and
        ends.  The arrays are read-only, so a race between two threads costs
        at most one extra computation.
        """
        powers = self.__dict__.get("_powers")
        if powers is None:
            powers = np.power(float(self.base), self.bounds)
            powers.setflags(write=False)
            object.__setattr__(self, "_powers", powers)
        return powers

    def _piece_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Start values and left limits at the right ends of the pieces."""
        if not self.coef.any():  # constant pieces: coef * b**t adds exactly 0
            values = self.offset + 0.0
            return values, values
        powers = self._bound_powers()
        return (self.coef * powers[:-1] + self.offset,
                self.coef * powers[1:] + self.offset)


class PiecewiseCdf(_PiecewiseBase):
    """Right-continuous non-decreasing CDF on [0, 1) built from pieces.

    Invariants enforced at construction: pieces cover [0, 1) without gaps,
    each piece is non-decreasing, jumps at piece boundaries are >= 0, and the
    left limit at 1 equals 1.  ``F(0-) = 0`` by convention.
    """

    def __post_init__(self):
        super().__post_init__()
        if not np.all(self.coef >= 0.0):
            raise ValueError("CDF pieces must be non-decreasing (coef >= 0)")
        starts, ends = self._piece_values()
        if not np.all(starts[1:] - ends[:-1] >= -_EDGE_TOL):
            raise ValueError("negative jump at a piece boundary")
        if not (starts[0] >= -_EDGE_TOL and abs(ends[-1] - 1.0) <= _EDGE_TOL):
            raise ValueError("CDF must rise from 0 to a left limit of 1 at t=1")


class DeltaProfile(_PiecewiseBase):
    """Pointwise difference of two CDFs over their joint piece refinement.

    Each piece carries ``coef * base**t + offset`` with ``coef`` of either
    sign (0 encodes a constant); values stay within [-1, 1].
    """


def _as_probe_array(t):
    arr = np.asarray(t, dtype=np.float64)
    return np.atleast_1d(arr), arr.ndim == 0


def _check_domain(t: np.ndarray, upper_open: bool) -> None:
    hi_bad = (t >= 1.0) if upper_open else (t > 1.0)
    if np.any(t < 0.0) or np.any(hi_bad):
        raise ValueError("evaluation point outside the unit circle domain")


def build_empirical(positions, base: int) -> CircleEmpirical:
    """Build the equal-weight empirical measure from atom positions in [0, 1).

    Atoms are sorted; duplicates are preserved as multiplicity.
    """
    base = _check_base(base)
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size == 0:
        raise ValueError("empirical measure needs at least one atom")
    if np.any(pos < 0.0) or np.any(pos >= 1.0):
        raise ValueError("atom positions must lie in [0, 1)")
    return CircleEmpirical(base=base, positions=_frozen(np.sort(pos)))


def cdf_of_empirical(m: CircleEmpirical) -> PiecewiseCdf:
    """Pure step CDF of an empirical measure; jump at each distinct atom.

    Levels are exact integer multiplicity counts divided by N once, so they
    match integer-sum constructions bit for bit.
    """
    # an atom within the tolerance of the one before it joins that one's jump
    starts = np.concatenate(([True], np.diff(m.positions) > ATOM_MERGE_TOL))
    rep = m.positions[starts]
    levels = np.cumsum(np.bincount(np.cumsum(starts) - 1)) / m.count
    if rep[0] > 0.0:
        bounds = np.concatenate(([0.0], rep, [1.0]))
        levels = np.concatenate(([0.0], levels))
    else:
        bounds = np.concatenate((rep, [1.0]))
    return PiecewiseCdf(base=m.base, bounds=bounds,
                        coef=np.zeros_like(levels), offset=levels)


def cdf_wrapped_exponential(base: int, y: float) -> PiecewiseCdf:
    """CDF of the base-``b`` exponential law rotated by ``y`` around the circle.

    For ``y == 0`` this is ``(b**t - 1) / (b - 1)`` on one piece; for
    ``y > 0`` two exponential pieces joined continuously at ``1 - y``.
    """
    base = _check_base(base)
    if not 0.0 <= y < 1.0:
        raise ValueError(f"rotation must lie in [0, 1), got {y}")
    b = float(base)
    if y == 0.0:
        a = 1.0 / (b - 1.0)
        return PiecewiseCdf(base=base, bounds=np.array([0.0, 1.0]),
                            coef=np.array([a]), offset=np.array([-a]))
    by = b ** y
    a1 = by / (b - 1.0)
    return PiecewiseCdf(
        base=base,
        bounds=np.array([0.0, 1.0 - y, 1.0]),
        coef=np.array([a1, a1 / b]),
        offset=np.array([-a1, 1.0 - a1]),
    )


def rotate_cdf(F: PiecewiseCdf, y: float) -> PiecewiseCdf:
    """CDF of the rotated measure: atoms move ``x -> <x - y>``.

    Matches the wrapped-exponential construction:
    ``rotate_cdf(cdf_wrapped_exponential(b, 0), y)`` equals
    ``cdf_wrapped_exponential(b, y)`` piece for piece.  Rotating by 0 is the
    identity; rotating by ``y`` then ``<1 - y>`` recovers the original up to
    rounding.  Only empty pieces are dropped: equal neighbouring pieces are
    kept as they are, not merged.
    """
    if not 0.0 <= y < 1.0:
        raise ValueError(f"rotation must lie in [0, 1), got {y}")
    if y == 0.0:
        return F

    # G(t) = F(<t + y>) - F(y-) (+1 past the wrap at 1 - y).  Source pieces
    # over [y, 1) land on [0, 1 - y); pieces over [0, y) land on [1 - y, 1).
    # Exponential coefficients pick up b**y resp. b**(y-1); a step CDF's
    # constant pieces just move, and an atom at y lands at 0.
    f_left_y = F.value(y, side="left")
    b = float(F.base)
    by = b ** y
    k = int(np.searchsorted(F.bounds, y, side="right") - 1)

    part_a_bounds = np.concatenate(([0.0], F.bounds[k + 1:-1] - y))
    part_a_coef = F.coef[k:] * by
    part_a_offset = F.offset[k:] - f_left_y

    part_b_bounds = F.bounds[:k + 1] + (1.0 - y)
    part_b_coef = F.coef[:k + 1] * (by / b)
    part_b_offset = F.offset[:k + 1] + (1.0 - f_left_y)

    bounds = np.concatenate((part_a_bounds, part_b_bounds, [1.0]))
    coef = np.concatenate((part_a_coef, part_b_coef))
    offset = np.concatenate((part_a_offset, part_b_offset))

    # The piece containing y may touch the wrap exactly; drop empty pieces.
    widths = np.diff(bounds)
    keep = widths > 0.0
    bounds = np.concatenate((bounds[:-1][keep], [1.0]))
    coef, offset = coef[keep], offset[keep]
    return PiecewiseCdf(base=F.base, bounds=bounds, coef=coef, offset=offset)


def _merge_pieces(f_bounds: np.ndarray, g_bounds: np.ndarray):
    """Joint refinement of two covers of [0, 1) and each side's piece indices.

    Returns ``(fi, gi, bounds)``: ``bounds`` is the sorted union of both bound
    arrays, and the joint piece ``k`` lies in piece ``fi[k]`` of the first
    cover and ``gi[k]`` of the second.  The shorter array is merged into the
    longer one, so the only search is one per bound of the shorter array.
    """
    swap = f_bounds.size < g_bounds.size
    big, small = (g_bounds, f_bounds) if swap else (f_bounds, g_bounds)
    at = np.searchsorted(big, small)  # big[at - 1] < small <= big[at]
    new = big[at] != small  # both covers end at 1, so at < big.size
    # small[i] lands after the big bounds below it and the new bounds before it
    landed = at + np.cumsum(new) - new
    from_big = np.ones(big.size + np.count_nonzero(new), dtype=bool)
    from_big[landed[new]] = False
    bounds = np.empty(from_big.size)
    bounds[from_big] = big
    bounds[landed] = small
    big_index = np.cumsum(from_big[:-1]) - 1
    small_index = np.repeat(np.arange(small.size - 1), np.diff(landed))
    return (small_index, big_index, bounds) if swap else (big_index, small_index, bounds)


def delta_profile(F: PiecewiseCdf, G: PiecewiseCdf) -> DeltaProfile:
    """Difference profile ``t -> F(t) - G(t)`` on the joint piece refinement.

    Constant pieces are base-agnostic; two exponential pieces may only be
    combined when the bases agree.  Every joint piece is kept, also where it
    equals its neighbour.
    """
    f_exp = bool(np.any(F.coef != 0.0))
    g_exp = bool(np.any(G.coef != 0.0))
    if f_exp and g_exp and F.base != G.base:
        raise ValueError(
            f"cannot difference exponential pieces with bases {F.base} and {G.base}")
    base = F.base if f_exp or not g_exp else G.base

    fi, gi, bounds = _merge_pieces(F.bounds, G.bounds)
    coef = F.coef[fi] - G.coef[gi]
    offset = F.offset[fi] - G.offset[gi]
    return DeltaProfile(base=base, bounds=bounds, coef=coef, offset=offset)

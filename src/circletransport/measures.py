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
    """``a`` as a read-only float64 array that no caller can write.

    A read-only contiguous float64 array is kept as given; anything else, a
    writeable array in particular, is copied.  The builders of this package
    mark their fresh arrays read-only (``_sealed``), so they pay no copy.
    """
    out = np.asarray(a, dtype=np.float64)
    if out.flags.writeable or not out.flags.c_contiguous:
        out = _sealed(np.array(out))
    return out


def _sealed(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: for a fresh array that no one else holds."""
    a.setflags(write=False)
    return a


def _check_base(base) -> int:
    """The one test of a logarithm base: the paper's rates need an integer b >= 2.

    Returns the base as an ``int``, so a float base such as 3.0 computes
    with exact integer powers.
    """
    # written so that a NaN and an infinity fail it
    if not 2 <= base < math.inf or int(base) != base:
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
    read-only.  A writeable array is copied, so a caller's array keeps its
    flags and cannot change the instance.  A read-only contiguous float64
    array is stored as given: the package's builders hand over fresh arrays
    marked read-only, so a row holds no second set of piece arrays.
    Instances compare and hash by identity (``eq=False``): a field-wise
    ``==`` over numpy arrays has no single truth value.
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
        if not np.logical_and.reduce(bounds[1:] > bounds[:-1]):
            raise ValueError("piece bounds must be strictly increasing")
        # a NaN or inf anywhere makes the sum of squares non-finite (values
        # past 1e154 in magnitude would overflow it too, far outside this
        # family's range)
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
        """Start values and left limits at the right ends of the pieces.

        The one formula for them: ``coef * b**bound``, then ``+= offset``,
        built in place, two fresh writeable arrays.  ``PiecewiseCdf``'s
        jump check, the offset search's value ranges
        (``transport._LevelProfile``) and ``oracle``'s quantiles and grid
        take them from here.
        """
        powers = self._bound_powers()
        starts = np.multiply(self.coef, powers[:-1])
        starts += self.offset
        ends = np.multiply(self.coef, powers[1:])
        ends += self.offset
        return starts, ends


class PiecewiseCdf(_PiecewiseBase):
    """Right-continuous non-decreasing CDF on [0, 1) built from pieces.

    Invariants enforced at construction: pieces cover [0, 1) without gaps,
    each piece is non-decreasing, jumps at piece boundaries are >= 0, and the
    left limit at 1 equals 1.  ``F(0-) = 0`` by convention.
    """

    def __post_init__(self):
        super().__post_init__()
        coef, offset = self.coef, self.offset
        if not np.minimum.reduce(coef) >= 0.0:
            raise ValueError("CDF pieces must be non-decreasing (coef >= 0)")
        starts = ends = offset
        if np.logical_or.reduce(coef):  # else coef * b**t adds exactly 0
            starts, ends = self._piece_values()
        if not np.logical_and.reduce(starts[1:] - ends[:-1] >= -_EDGE_TOL):
            raise ValueError("negative jump at a piece boundary")
        # the first piece starts at b**0 = 1, so its start value is coef + offset
        if not (coef[0] + offset[0] >= -_EDGE_TOL and abs(ends[-1] - 1.0) <= _EDGE_TOL):
            raise ValueError("CDF must rise from 0 to a left limit of 1 at t=1")


class DeltaProfile(_PiecewiseBase):
    """Pointwise difference of two CDFs over their joint piece refinement.

    Each piece carries ``coef * base**t + offset`` with ``coef`` of either
    sign (0 encodes a constant); values stay within [-1, 1].
    """

    def spans(self, cuts):
        """``(bounds, powers, coef, offset)`` slices for each ``(start,
        stop)`` of ``cuts``; the cached ``b**bounds`` are made at once."""
        powers = self._bound_powers()
        bounds, coef, offset = self.bounds, self.coef, self.offset
        return ((bounds[start:stop + 1], powers[start:stop + 1], coef[start:stop],
                 offset[start:stop]) for start, stop in cuts)


def _as_probe_array(t):
    arr = np.asarray(t, dtype=np.float64)
    return np.atleast_1d(arr), arr.ndim == 0


def _check_domain(t: np.ndarray, upper_open: bool) -> None:
    # written so that a NaN fails it
    below_top = (t < 1.0) if upper_open else (t <= 1.0)
    if not (np.all(t >= 0.0) and np.all(below_top)):
        raise ValueError("evaluation point outside the unit circle domain")


def build_empirical(positions, base: int) -> CircleEmpirical:
    """Build the equal-weight empirical measure from atom positions in [0, 1).

    Atoms are sorted; duplicates are preserved as multiplicity.
    """
    base = _check_base(base)
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size == 0:
        raise ValueError("empirical measure needs at least one atom")
    if not np.all((pos >= 0.0) & (pos < 1.0)):  # a NaN fails it
        raise ValueError("atom positions must lie in [0, 1)")
    return CircleEmpirical(base=base, positions=_sealed(np.sort(pos)))


def _step_cdf(base: int, bounds: np.ndarray, levels: np.ndarray) -> PiecewiseCdf:
    """The step CDF taking ``levels`` on the pieces between ``bounds``.

    Both arrays are fresh and held by no one else: they are sealed, not
    copied.
    """
    return PiecewiseCdf(base=base, bounds=_sealed(bounds), coef=_sealed(np.zeros(levels.size)),
                        offset=_sealed(levels))


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
    return _step_cdf(m.base, bounds, levels)


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
        return PiecewiseCdf(base=base, bounds=_sealed(np.array([0.0, 1.0])),
                            coef=_sealed(np.array([a])), offset=_sealed(np.array([-a])))
    by = b ** y
    a1 = by / (b - 1.0)
    return PiecewiseCdf(
        base=base,
        bounds=_sealed(np.array([0.0, 1.0 - y, 1.0])),
        coef=_sealed(np.array([a1, a1 / b])),
        offset=_sealed(np.array([-a1, 1.0 - a1])),
    )


def rotate_cdf(F: PiecewiseCdf, y: float) -> PiecewiseCdf:
    """CDF of the rotated measure: atoms move ``x -> <x - y>``.

    Matches the wrapped-exponential construction:
    ``rotate_cdf(cdf_wrapped_exponential(b, 0), y)`` equals
    ``cdf_wrapped_exponential(b, y)`` piece for piece.  Rotating by 0 is the
    identity; rotating by ``y`` then ``<1 - y>`` recovers the original up to
    rounding.  Only empty pieces are dropped: equal neighbouring pieces are
    kept as they are, not merged.

    No row calls it.  It stays public as the reference that the
    ``cdf_wrapped_exponential`` tests compare against, and the circle
    distance's rotation-invariance tests rotate with it.
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
    return PiecewiseCdf(base=F.base, bounds=_sealed(bounds),
                        coef=_sealed(coef[keep]), offset=_sealed(offset[keep]))


def delta_profile(F: PiecewiseCdf, G: PiecewiseCdf) -> DeltaProfile:
    """Difference profile ``t -> F(t) - G(t)`` on the joint piece refinement.

    Constant pieces are base-agnostic; two exponential pieces may only be
    combined when the bases agree.  Every joint piece is kept, also where it
    equals its neighbour.

    The bounds of G are merged into those of F, whichever cover is longer:
    a row's F has N - floor(N/b) pieces and its G one or two.  Bound ``i``
    of G lands at ``bounds[landed[i]]``: after the bounds of F below it and
    the new bounds before it.  The bounds that F lacks land at ``fresh``,
    and one mask ``kept`` marks the places of F's own bounds; the last of
    them is F's 1, so the rest of the mask marks the places of F's pieces.
    A new bound splits the piece of F before it, so an array ``x`` over
    the pieces of F refines to ``x`` at the kept places and ``x[ins - 1]``
    at ``fresh``, ``ins`` being the bounds of F that the new ones precede.
    Piece ``i`` of G covers the joint pieces from ``landed[i]`` up to
    ``landed[i + 1]``, so an array ``y`` over its pieces refines to
    ``y.repeat(landed[1:] - landed[:-1])``.  The only search is one per
    bound of G, and every index array is as long as G's bounds.

    ``coef`` and ``offset`` are each F's array refined by the mask, minus
    G's refined by the repeat.  Each joint piece takes the one subtraction
    ``F.coef[fi] - G.coef[gi]`` would, with ``fi`` and ``gi`` its pieces in
    F and G, so the bits are those of that gather, down to the sign of
    every zero.
    """
    f_exp, g_exp = bool(np.logical_or.reduce(F.coef)), bool(np.logical_or.reduce(G.coef))
    if f_exp and g_exp and F.base != G.base:
        raise ValueError(
            f"cannot difference exponential pieces with bases {F.base} and {G.base}")
    base = F.base if f_exp or not g_exp else G.base

    at = F.bounds.searchsorted(G.bounds)  # F.bounds[at - 1] < G.bounds <= F.bounds[at]
    new = F.bounds[at] != G.bounds  # both covers end at 1, so at < F.bounds.size
    ins = at[new]
    landed = at + new.cumsum() - new
    repeats = landed[1:] - landed[:-1]
    fresh = landed[new]
    kept = np.ones(landed[-1] + 1, dtype=bool)  # G's last bound, 1, lands last
    kept[fresh] = False

    # DeltaProfile(...) would check again what holds by construction: the
    # joint bounds are the union of two valid covers, and differences of
    # finite values (below 1e154, see _PiecewiseBase) are finite
    profile = object.__new__(DeltaProfile)
    object.__setattr__(profile, "base", base)
    bounds = np.empty(kept.size)
    bounds[kept] = F.bounds
    bounds[fresh] = G.bounds[new]
    object.__setattr__(profile, "bounds", _sealed(bounds))
    for name in ("coef", "offset"):
        x, y = getattr(F, name), getattr(G, name)  # over the pieces of F and of G
        value = np.empty(kept.size - 1)
        value[kept[:-1]] = x
        value[fresh] = x[ins - 1]
        value -= y.repeat(repeats)
        object.__setattr__(profile, name, _sealed(value))
    return profile

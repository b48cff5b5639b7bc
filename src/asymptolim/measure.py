"""Finitely supported probabilities built from weighted multisets.

An :class:`AtomicMeasure` assigns nonnegative weights (summing to one) to
finitely many points of R^k.  Boxes are half-open below and closed above so
that the measure of a box equals the alternating-sum increment of the CDF
over its vertices, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accum import apply_to_array, fsum_array

__all__ = [
    "AtomicMeasure",
    "HyperBox",
    "from_points",
    "measure_box",
    "cdf_eval",
    "pushforward",
    "expectation",
]


@dataclass(frozen=True)
class HyperBox:
    """Axis-aligned box ``{x : lower[i] < x[i] <= upper[i] for all i}``.

    Bounds may be infinite.  The open-below/closed-above membership rule is
    what makes box measure and CDF increments agree exactly for atomic
    measures.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = _as_bound(self.lower)
        up = _as_bound(self.upper)
        if len(lo) != len(up):
            raise ValueError("lower and upper bounds must have the same dimension")
        for a, b in zip(lo, up):
            if math.isnan(a) or math.isnan(b) or a > b:
                raise ValueError("each lower bound must be <= the upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def up_to(cls, upper) -> "HyperBox":
        """The lower-unbounded box ``(-inf, x1] x ... x (-inf, xk]``."""
        up = _as_bound(upper)
        return cls((-math.inf,) * len(up), up)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.lower + self.upper)

    def contains(self, point) -> bool:
        x = _as_bound(point)
        if len(x) != self.dim:
            raise ValueError("point dimension does not match box dimension")
        return all(lo < v <= up for lo, v, up in zip(self.lower, x, self.upper))

    def contains_box(self, other: "HyperBox") -> bool:
        return all(a <= c for a, c in zip(self.lower, other.lower)) and all(
            d <= b for d, b in zip(other.upper, self.upper)
        )


def _as_bound(value) -> tuple[float, ...]:
    if isinstance(value, (int, float, np.integer, np.floating)):
        return (float(value),)
    return tuple(float(v) for v in value)


@dataclass(frozen=True, eq=False, repr=False)
class AtomicMeasure:
    """Probability measure carried by finitely many weighted atoms.

    ``points`` is an (m, dim) array in lexicographic order with no duplicate
    rows; ``weights`` is the matching (m,) array of nonnegative weights
    summing to one.  ``source_count`` is the multiset size before duplicate
    points were folded together, so uniform weighting is 1/source_count.
    """

    points: np.ndarray
    weights: np.ndarray
    source_count: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def atoms(self) -> list[tuple[tuple[float, ...], float]]:
        """All (point, weight) pairs, in canonical (sorted) order."""
        return [
            (tuple(p), float(w)) for p, w in zip(self.points.tolist(), self.weights)
        ]

    def total_weight(self) -> float:
        return fsum_array(self.weights)

    def __repr__(self):
        return f"AtomicMeasure(atoms={len(self)}, dim={self.dim})"


def from_points(points, weights=None) -> AtomicMeasure:
    """Build an atomic probability from a multiset of points.

    Omitted weights default to the uniform 1/m where m counts the input with
    multiplicity.  Weights are normalized to sum to one and bit-identical
    points are folded by summing their weights (no tolerance is applied; a
    caller wanting coarser folding must quantize the points first).
    """
    pts = _point_matrix(points)
    m = pts.shape[0]
    if weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != m:
            raise ValueError("weights must match the number of points")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        total = fsum_array(w)
        if total <= 0.0:
            raise ValueError("at least one weight must be positive")
        w = w / total
    pts, w = _fold_sorted(pts, w)
    return AtomicMeasure(pts, w, m)


def _point_matrix(points) -> np.ndarray:
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise ValueError("all points must share one dimension") from exc
    if pts.ndim == 0 or pts.size == 0:
        raise ValueError("points must be a nonempty sequence")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("points must be scalars or flat vectors")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    # +0.0 maps -0.0 to +0.0 so equal reals always fold together.
    return pts + 0.0


def _fold_sorted(pts: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the points, lexicographically, and fold equal ones.

    A 1-D sort need not be stable: equal points are bit-identical (the
    points are finite and -0.0 is folded to +0.0), and a group's weight is
    c equal weights times c or an fsum, neither of which depends on the
    order within the group.  Where all weights have the same bits, no
    weight moves, so the points are sorted alone.
    """
    m, k = pts.shape
    bits = w.view(np.int64)
    if k == 1 and (bits == bits[0]).all():
        pts = np.sort(pts, axis=0)
    else:
        order = np.argsort(pts[:, 0]) if k == 1 else np.lexsort(pts.T[::-1])
        pts = np.ascontiguousarray(pts[order])
        w = np.ascontiguousarray(w[order])
    if m > 1:
        is_new = np.empty(m, dtype=bool)
        is_new[0] = True
        is_new[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        starts = np.flatnonzero(is_new)
        if starts.size != m:
            counts = np.diff(np.append(starts, m))
            first = w[starts]
            # c equal weights sum to c * w, one rounding of the exact sum as
            # in math.fsum (+ 0.0: fsum sums -0.0s to +0.0); unequal weights
            # and an overflowing product go through fsum
            folded = np.where(counts == 1, first, counts * first + 0.0)
            equal = np.minimum.reduceat(w, starts) == np.maximum.reduceat(w, starts)
            for j in np.flatnonzero((counts > 1) & ~(equal & np.isfinite(folded))):
                s = starts[j]
                folded[j] = math.fsum(w[s : s + counts[j]].tolist())
            pts = np.ascontiguousarray(pts[starts])
            w = folded
    return pts, w


def measure_box(m: AtomicMeasure, box: HyperBox) -> float:
    """Total weight of the atoms inside the box (open below, closed above)."""
    if box.dim != m.dim:
        raise ValueError("box dimension does not match measure dimension")
    lo = np.asarray(box.lower)
    up = np.asarray(box.upper)
    mask = np.all((m.points > lo) & (m.points <= up), axis=1)
    return fsum_array(m.weights[mask])


def cdf_eval(m: AtomicMeasure, x) -> float:
    """Cumulative distribution of ``m`` at ``x``: the weight of all atoms <= x."""
    q = _as_bound(x)
    if len(q) != m.dim:
        raise ValueError("query dimension does not match measure dimension")
    mask = np.all(m.points <= np.asarray(q), axis=1)
    return fsum_array(m.weights[mask])


def _eval_at_atoms(m: AtomicMeasure, f: Callable) -> np.ndarray:
    if m.dim == 1:
        vals = apply_to_array(f, m.points[:, 0])
    else:
        # one call per row: a call on the whole (m, k) matrix could mean
        # something else to a callback written for one point
        vals = np.asarray([f(p) for p in m.points], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("callback produced a non-finite value at an atom")
    return vals


def pushforward(m: AtomicMeasure, g: Callable) -> AtomicMeasure:
    """Image measure of ``m`` under ``g``: atoms g(e) with inherited weights.

    Atoms mapped to bit-identical images are folded together; the weights are
    carried over unchanged (they already sum to one).  For a 1-D measure
    ``g`` may first be called once on the whole atom array, as solver
    callbacks are (``accum.apply_to_array``); k-D atoms go one row at a time.
    """
    imgs = _eval_at_atoms(m, g)
    if imgs.ndim == 1:
        imgs = imgs[:, None]
    pts, w = _fold_sorted(imgs + 0.0, np.asarray(m.weights))
    return AtomicMeasure(pts, w, m.source_count)


def expectation(m: AtomicMeasure, f: Callable):
    """Weighted mean of ``f`` over the atoms, with compensated summation.

    Returns a float for scalar-valued ``f`` and an ndarray for vector-valued
    ``f``.  For a 1-D measure ``f`` may first be called once on the whole
    atom array, as solver callbacks are (``accum.apply_to_array``); k-D atoms
    go one row at a time.
    """
    vals = _eval_at_atoms(m, f)
    if vals.ndim == 1:
        return fsum_array(m.weights * vals)
    return np.array(
        [fsum_array(m.weights * vals[:, j]) for j in range(vals.shape[1])]
    )

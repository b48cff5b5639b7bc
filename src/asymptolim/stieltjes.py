"""One- and multi-dimensional Stieltjes calculus.

Box increments (the alternating vertex sum), total variation on nested
dyadic partitions, exact integration against step CDFs, and adaptive
Gauss-Kronrod quadrature of f * density for differentiable CDFs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .accum import anchored_cumsum, apply_to_array, fsum_array
from .measure import AtomicMeasure, HyperBox, cdf_eval, expectation

__all__ = [
    "QuadratureError",
    "VariationError",
    "QuadratureResult",
    "StepCdf",
    "SmoothCdf",
    "Partition1D",
    "delta_box",
    "variation",
    "variation_nd",
    "integrate_step",
    "integrate_smooth",
    "integrate_by_parts",
    "riemann_stieltjes_oracle",
]


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot meet its tolerance in budget."""


class VariationError(RuntimeError):
    """Raised when the variation estimator fails to stabilize."""


class QuadratureResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class StepCdf:
    """Cumulative distribution of an atomic measure.

    A finitely supported step function, nondecreasing in every coordinate,
    equal to 1 at +infinity; its 1-D total variation is 1.  One-dimensional
    evaluation is vectorized via binary search on the sorted support.
    """

    source: AtomicMeasure
    _support: Optional[np.ndarray] = field(default=None, init=False)
    _cumw: Optional[np.ndarray] = field(default=None, init=False)

    def __post_init__(self):
        if self.dim == 1:
            support = np.ascontiguousarray(self.source.points[:, 0])
            cumw = anchored_cumsum(self.source.weights)
            support.setflags(write=False)
            cumw.setflags(write=False)
            object.__setattr__(self, "_support", support)
            object.__setattr__(self, "_cumw", cumw)

    @property
    def dim(self) -> int:
        return self.source.dim

    def __call__(self, x):
        if self.dim == 1:
            if isinstance(x, np.ndarray) and x.ndim >= 1:
                idx = np.searchsorted(self._support, x, side="right")
                padded = np.concatenate(([0.0], self._cumw))
                return padded[idx]
            idx = int(np.searchsorted(self._support, float(x), side="right"))
            return float(self._cumw[idx - 1]) if idx > 0 else 0.0
        return cdf_eval(self.source, x)

    def window(self, margin: float = 1.0) -> tuple[float, float]:
        """A 1-D interval outside which the CDF is constant."""
        if self.dim != 1:
            raise ValueError("window is defined for 1-D step CDFs")
        return float(self._support[0]) - margin, float(self._support[-1]) + margin


@dataclass(frozen=True, slots=True, eq=False)
class SmoothCdf:
    """A limit CDF given by callbacks.

    ``value`` evaluates the CDF; ``density`` (optional) is its derivative in
    one dimension and the mixed partial d^k/dx1..dxk in k dimensions;
    ``support`` is a box outside which ``value`` is constant 0 below and 1
    above.
    """

    value: Callable
    support: HyperBox
    density: Optional[Callable] = None

    @property
    def dim(self) -> int:
        return self.support.dim


@dataclass(frozen=True, slots=True)
class Partition1D:
    """A finite set of non-overlapping closed intervals [a_i, b_i]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not (a <= b):
                raise ValueError("each interval needs a <= b")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if b0 > a1:
                raise ValueError("intervals must be non-overlapping and ordered")
        object.__setattr__(self, "intervals", ivs)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)


# ---------------------------------------------------------------------------
# Box increments
# ---------------------------------------------------------------------------

def delta_box(phi: Callable, box: HyperBox) -> float:
    """Alternating sum of ``phi`` over the 2^k vertices of a finite box.

    The sign of each vertex is (-1)**(number of lower coordinates chosen);
    for a CDF this increment equals the measure of the box.
    """
    if not box.is_finite:
        raise ValueError("delta_box needs a finite box")
    k = box.dim
    terms = []
    for choice in itertools.product((0, 1), repeat=k):
        vertex = tuple(
            box.lower[i] if c == 0 else box.upper[i] for i, c in enumerate(choice)
        )
        val = float(phi(vertex[0] if k == 1 else vertex))
        if not math.isfinite(val):
            raise ValueError("phi is non-finite at a box vertex")
        sign = -1.0 if (k - sum(choice)) % 2 else 1.0
        terms.append(sign * val)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Total variation on nested dyadic partitions
# ---------------------------------------------------------------------------

def _refine_until_stable(partition_sum, first_depth, max_depth, tol, stable_rounds) -> float:
    """``partition_sum(depth)`` for depth = first_depth.. max_depth, until
    ``stable_rounds`` refinements in a row change it by less than ``tol``."""
    prev = None
    stable = 0
    for depth in range(first_depth, max_depth + 1):
        v = partition_sum(depth)
        if prev is not None and abs(v - prev) < tol:
            stable += 1
            if stable >= stable_rounds:
                return v
        else:
            stable = 0
        prev = v
    raise VariationError(
        f"variation did not stabilize within {max_depth} dyadic refinements"
    )


def variation(
    phi: Callable,
    window: tuple[float, float],
    tol: float = 1e-9,
    max_depth: int = 22,
    stable_rounds: int = 2,
) -> float:
    """Total variation of ``phi`` on ``window`` via nested dyadic partitions.

    Refines until successive partition sums differ by less than ``tol`` for
    ``stable_rounds`` refinements in a row.  The result is a lower bound of
    the true variation, exact once the partition separates the monotone
    pieces of a piecewise-monotone ``phi``.
    """
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("window must be a finite nondegenerate interval")

    def partition_sum(depth: int) -> float:
        vals = apply_to_array(phi, np.linspace(a, b, 2**depth + 1))
        if not np.all(np.isfinite(vals)):
            raise ValueError("phi is non-finite on the window")
        return fsum_array(np.abs(np.diff(vals)))

    return _refine_until_stable(partition_sum, 2, max_depth, tol, stable_rounds)


def variation_nd(
    phi: Callable,
    box: HyperBox,
    tol: float = 1e-9,
    max_depth: int = 8,
    stable_rounds: int = 2,
) -> float:
    """Variation of a k-D function: sup of sums of |box increments|.

    Estimated on nested dyadic grids of ``box``; each grid cell contributes
    the absolute alternating vertex sum, obtained by differencing the vertex
    value array once along every axis.
    """
    if not box.is_finite:
        raise ValueError("variation_nd needs a finite box")
    k = box.dim

    def partition_sum(depth: int) -> float:
        axes = [
            np.linspace(box.lower[i], box.upper[i], 2**depth + 1) for i in range(k)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.asarray(
            [float(phi(p[0] if k == 1 else tuple(p))) for p in flat]
        ).reshape(grids[0].shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("phi is non-finite on the box")
        inc = vals
        for axis in range(k):
            inc = np.diff(inc, axis=axis)
        return fsum_array(np.abs(inc).ravel())

    return _refine_until_stable(partition_sum, 1, max_depth, tol, stable_rounds)


# ---------------------------------------------------------------------------
# Integration against step CDFs (exact) and smooth CDFs (quadrature)
# ---------------------------------------------------------------------------

def integrate_step(f: Callable, cdf: StepCdf) -> float:
    """Integral of ``f`` against a step CDF: the exact weighted atom sum."""
    return expectation(cdf.source, f)


# Gauss-7 / Kronrod-15 nodes on [-1, 1]; odd indices are the Gauss points.
_GK_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_K_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_G_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk_panel(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    acc_k = 0.0
    acc_g = 0.0
    for i, xi in enumerate(_GK_NODES):
        if xi == 0.0:
            v = g(c)
            if not math.isfinite(v):
                raise QuadratureError(f"integrand is non-finite at {c!r}")
            acc_k += _K_WEIGHTS[i] * v
            acc_g += _G_WEIGHTS[3] * v
        else:
            v1 = g(c - h * xi)
            v2 = g(c + h * xi)
            if not (math.isfinite(v1) and math.isfinite(v2)):
                raise QuadratureError("integrand is non-finite inside a panel")
            acc_k += _K_WEIGHTS[i] * (v1 + v2)
            if i % 2 == 1:
                acc_g += _G_WEIGHTS[i // 2] * (v1 + v2)
    return h * acc_k, abs(h) * abs(acc_k - acc_g)


def adaptive_quadrature(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-9,
    max_panels: int = 4096,
) -> QuadratureResult:
    """Adaptive bisection with a Gauss-Kronrod rule per panel.

    The panel error estimate is the difference between the embedded 7-point
    Gauss and 15-point Kronrod values.  Panels are split worst-first until
    the summed estimate is below ``tol``.  Deterministic: the splitting order
    is fixed by the error/insertion-order heap, and the final value is the
    fsum of panel values sorted by position.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0)
    val, err = _gk_panel(g, a, b)
    heap = [(-err, 0, a, b, val, err)]
    serial = 1
    total_err = err
    while total_err > tol:
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"tolerance {tol:g} not reached within {max_panels} panels "
                f"(estimate {total_err:g})"
            )
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            raise QuadratureError("panel underflow before tolerance was met")
        v1, e1 = _gk_panel(g, pa, mid)
        v2, e2 = _gk_panel(g, mid, pb)
        heapq.heappush(heap, (-e1, serial, pa, mid, v1, e1))
        serial += 1
        heapq.heappush(heap, (-e2, serial, mid, pb, v2, e2))
        serial += 1
        total_err = math.fsum(item[5] for item in heap)
    panels = sorted(heap, key=lambda item: item[2])
    value = math.fsum(p[4] for p in panels)
    return QuadratureResult(value, total_err)


def integrate_smooth(
    f: Callable,
    phi: SmoothCdf,
    box: Optional[HyperBox] = None,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Integral of ``f`` with respect to a differentiable CDF.

    Reduces to the ordinary integral of ``f * phi.density`` over ``box``
    (default: the CDF's support), by adaptive quadrature in one dimension
    and tensorized adaptive quadrature in k dimensions.
    """
    if phi.density is None:
        raise ValueError("integrate_smooth needs phi.density")
    if box is None:
        box = phi.support
    if not box.is_finite:
        raise ValueError("integration box must be finite")
    if box.dim != phi.dim:
        raise ValueError("box dimension does not match the CDF dimension")
    if not phi.support.contains_box(box):
        raise ValueError("integration box must lie inside the CDF support")
    if phi.dim == 1:
        a, b = box.lower[0], box.upper[0]
        g = lambda t: float(f(t)) * float(phi.density(t))
        return adaptive_quadrature(g, a, b, tol=tol)
    return _tensor_quadrature(f, phi.density, box, tol)


def _tensor_quadrature(
    f: Callable, density: Callable, box: HyperBox, tol: float
) -> QuadratureResult:
    k = box.dim

    def nested(prefix: tuple[float, ...], level_tol: float) -> QuadratureResult:
        d = len(prefix)
        a, b = box.lower[d], box.upper[d]
        if d == k - 1:
            def g(t: float) -> float:
                point = prefix + (t,)
                return float(f(point)) * float(density(point))
            return adaptive_quadrature(g, a, b, tol=level_tol)
        # inner evaluations bias the outer integrand pointwise by at most
        # inner_tol, adding width * inner_tol to this level's error
        width = b - a
        inner_tol = level_tol / (4.0 * width) if width > 0 else level_tol
        g = lambda t: nested(prefix + (t,), inner_tol).value
        outer = adaptive_quadrature(g, a, b, tol=0.5 * level_tol)
        return QuadratureResult(outer.value, outer.error + width * inner_tol)

    return nested((), tol)


def integrate_by_parts(
    f: Callable,
    f_prime: Callable,
    phi: Callable,
    window: tuple[float, float],
    tol: float = 1e-9,
) -> QuadratureResult:
    """Stieltjes integral of ``f`` against ``phi`` via integration by parts.

    With ``phi`` held constant outside ``window`` the boundary term collapses
    to ``f(b) phi(b) - f(a) phi(a)``; the remaining term is the ordinary
    integral of ``phi * f_prime``, done by adaptive quadrature.
    """
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError("window must be a finite interval")
    boundary = float(f(b)) * float(phi(b)) - float(f(a)) * float(phi(a))
    if not math.isfinite(boundary):
        raise ValueError("boundary term is non-finite")
    quad = adaptive_quadrature(
        lambda t: float(phi(t)) * float(f_prime(t)), a, b, tol=tol
    )
    return QuadratureResult(boundary - quad.value, quad.error)


def riemann_stieltjes_oracle(
    f: Callable,
    phi: Callable,
    interval: tuple[float, float],
    levels: int,
) -> list[float]:
    """Raw Riemann-Stieltjes sums on dyadic refinements of ``interval``.

    Level L splits the interval into 2**L pieces and sums f(midpoint) times
    the increment of ``phi``; the caller inspects stabilization across
    levels.  Used as an independent check of the quadrature route.
    """
    a, b = float(interval[0]), float(interval[1])
    sums = []
    for level in range(1, levels + 1):
        xs = np.linspace(a, b, 2**level + 1)
        pv = apply_to_array(phi, xs)
        mids = 0.5 * (xs[:-1] + xs[1:])
        fv = apply_to_array(f, mids)
        sums.append(fsum_array(fv * np.diff(pv)))
    return sums

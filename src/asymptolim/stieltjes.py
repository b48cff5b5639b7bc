"""One- and multi-dimensional Stieltjes calculus.

Box increments (the alternating vertex sum), total variation on nested
dyadic partitions, exact integration against step CDFs, and adaptive
Gauss-Kronrod quadrature against differentiable CDFs.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .accum import anchored_cumsum, apply_to_array, exact_units, fsum_array, round_units
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


WINDOW_MARGIN = 1.0


@dataclass(frozen=True, eq=False, repr=False)
class StepCdf:
    """Cumulative distribution of an atomic measure.

    A finitely supported step function, nondecreasing in every coordinate,
    equal to 1 at +infinity; its 1-D total variation is 1.  One-dimensional
    evaluation is a binary search on the sorted support into the cumulative
    weights, which are built on the first call.
    """

    source: AtomicMeasure

    @property
    def dim(self) -> int:
        return self.source.dim

    @functools.cached_property
    def _cumw(self) -> np.ndarray:
        # entry i is the CDF from the i-th atom up to the next; 0 below all
        cumw = np.concatenate(([0.0], anchored_cumsum(self.source.weights)))
        cumw.setflags(write=False)
        return cumw

    def __call__(self, x):
        if self.dim == 1:
            support = self.source.points[:, 0]
            if isinstance(x, np.ndarray) and x.ndim >= 1:
                return self._cumw[np.searchsorted(support, x, side="right")]
            return float(self._cumw[np.searchsorted(support, float(x), side="right")])
        return cdf_eval(self.source, x)

    def window(self) -> tuple[float, float]:
        """A 1-D interval outside which the CDF is constant: the support
        widened by ``WINDOW_MARGIN`` on each side."""
        if self.dim != 1:
            raise ValueError("window is defined for 1-D step CDFs")
        points = self.source.points
        return float(points[0, 0]) - WINDOW_MARGIN, float(points[-1, 0]) + WINDOW_MARGIN


@dataclass(frozen=True, eq=False)
class SmoothCdf:
    """A limit CDF given by callbacks.

    ``value`` evaluates the CDF; ``support`` is a box outside which ``value``
    is constant 0 below and 1 above.  ``integrate_smooth`` needs one more
    callback: ``quantile``, the inverse of a 1-D CDF on [0, 1] (read in one
    dimension only), or else ``density``, the derivative in 1-D and the mixed
    partial d^k/dx1..dxk in k-D, which a k-D law always needs.
    """

    value: Callable
    support: HyperBox
    density: Optional[Callable] = None
    quantile: Optional[Callable] = None

    @property
    def dim(self) -> int:
        return self.support.dim


@dataclass(frozen=True)
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

# Deepest 1-D dyadic partition: 2**22 + 1 points, 32 MiB of float64.
_MAX_DEPTH = 22

STABLE_ROUNDS = 2


def _refine_until_stable(sums: Iterable[float], max_depth, tol) -> float:
    """The first of the partition ``sums`` (one per depth, up to
    ``max_depth``) after ``STABLE_ROUNDS`` refinements in a row changed the
    sum by less than ``tol``."""
    prev = None
    stable = 0
    for v in sums:
        if prev is not None and abs(v - prev) < tol:
            stable += 1
            if stable >= STABLE_ROUNDS:
                return v
        else:
            stable = 0
        prev = v
    raise VariationError(
        f"variation did not stabilize within {max_depth} dyadic refinements"
    )


def _grid(a: float, b: float, num: int) -> np.ndarray:
    """``np.linspace(a, b, num)`` for finite a <= b.  Where b - a overflows,
    the grid of a/2 and b/2, doubled: halving and doubling are exact at that
    size, so these are the points of linspace's formula without the
    overflow."""
    if math.isinf(b - a):
        return 2.0 * np.linspace(0.5 * a, 0.5 * b, num)
    return np.linspace(a, b, num)


def _midpoints(xs: np.ndarray) -> np.ndarray:
    """``0.5 * (xs[:-1] + xs[1:])``; where a sum overflows, the sum of the
    halves, which are exact at that size."""
    with np.errstate(over="ignore"):
        mids = 0.5 * (xs[:-1] + xs[1:])
    big = np.flatnonzero(np.isinf(mids))
    mids[big] = 0.5 * xs[big] + 0.5 * xs[big + 1]
    return mids


def _dyadic_values(phi: Callable, a: float, b: float, first: int, last: int):
    """``(xs, phi(xs))`` on ``xs = _grid(a, b, 2**depth + 1)`` for
    depth = first..last.

    Each grid holds the one before it at its even points, so ``phi`` is
    called on the new odd points only.  Where rounding moved an even point
    (a subnormal step), the bits differ and the whole grid is evaluated.
    """
    prev_xs = prev_vals = None
    for depth in range(first, last + 1):
        xs = _grid(a, b, 2**depth + 1)
        if prev_xs is not None and np.array_equal(
            xs[::2].view(np.int64), prev_xs.view(np.int64)
        ):
            vals = np.empty_like(xs)
            vals[::2] = prev_vals
            vals[1::2] = apply_to_array(phi, np.ascontiguousarray(xs[1::2]))
        else:
            vals = apply_to_array(phi, xs)
        yield xs, vals
        prev_xs, prev_vals = xs, vals


def variation(
    phi: Callable,
    window: tuple[float, float],
    tol: float = 1e-9,
    max_depth: int = _MAX_DEPTH,
) -> float:
    """Total variation of ``phi`` on ``window`` via nested dyadic partitions.

    Refines until successive partition sums differ by less than ``tol`` for
    ``STABLE_ROUNDS`` refinements in a row.  The result is a lower bound of
    the true variation, exact once the partition separates the monotone
    pieces of a piecewise-monotone ``phi``, which is called once per point
    of the finest partition reached.
    """
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("window must be a finite nondegenerate interval")

    def partition_sum(vals: np.ndarray) -> float:
        if not np.all(np.isfinite(vals)):
            raise ValueError("phi is non-finite on the window")
        return fsum_array(np.abs(np.diff(vals)))

    sums = (partition_sum(vals) for _, vals in _dyadic_values(phi, a, b, 2, max_depth))
    return _refine_until_stable(sums, max_depth, tol)


def variation_nd(
    phi: Callable,
    box: HyperBox,
    tol: float = 1e-9,
    max_depth: int = 8,
) -> float:
    """Variation of a k-D function: sup of sums of |box increments|.

    Estimated on nested dyadic grids of ``box``, refined until
    ``STABLE_ROUNDS`` refinements in a row change the sum by less than
    ``tol``; each grid cell contributes the absolute alternating vertex sum,
    obtained by differencing the vertex value array once along every axis.
    """
    if not box.is_finite:
        raise ValueError("variation_nd needs a finite box")
    k = box.dim

    def partition_sum(depth: int) -> float:
        axes = [
            _grid(box.lower[i], box.upper[i], 2**depth + 1) for i in range(k)
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

    sums = (partition_sum(depth) for depth in range(1, max_depth + 1))
    return _refine_until_stable(sums, max_depth, tol)


# ---------------------------------------------------------------------------
# Integration against step CDFs (exact) and smooth CDFs (quadrature)
# ---------------------------------------------------------------------------

def integrate_step(f: Callable, cdf: StepCdf) -> float:
    """Integral of ``f`` against a step CDF: the exact weighted atom sum."""
    return expectation(cdf.source, f)


# Gauss-7 / Kronrod-15 nodes on [-1, 1]; odd indices are the Gauss points.
# Each constant is the correctly rounded double of the exact value.
_GK_NODES = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789848,
    0.0,
)
_K_WEIGHTS = (
    0.022935322010529224,
    0.06309209262997856,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_G_WEIGHTS = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)


def _gk_panel(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    acc_k = 0.0
    acc_g = 0.0
    acc_abs = 0.0
    for i, xi in enumerate(_GK_NODES):
        if xi == 0.0:
            v = g(c)
            if not math.isfinite(v):
                raise QuadratureError(f"integrand is non-finite at {c!r}")
            acc_k += _K_WEIGHTS[i] * v
            acc_g += _G_WEIGHTS[3] * v
            acc_abs += _K_WEIGHTS[i] * abs(v)
        else:
            v1 = g(c - h * xi)
            v2 = g(c + h * xi)
            if not (math.isfinite(v1) and math.isfinite(v2)):
                raise QuadratureError("integrand is non-finite inside a panel")
            acc_k += _K_WEIGHTS[i] * (v1 + v2)
            acc_abs += _K_WEIGHTS[i] * (abs(v1) + abs(v2))
            if i % 2 == 1:
                acc_g += _G_WEIGHTS[i // 2] * (v1 + v2)
    # below the rounding level of the panel sum |K15 - G7| says nothing
    floor = 50.0 * sys.float_info.epsilon * acc_abs
    value, err = h * acc_k, abs(h) * max(abs(acc_k - acc_g), floor)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError(f"panel sum overflows on [{a!r}, {b!r}]")
    return value, err


MAX_PANELS = 4096


def adaptive_quadrature(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Adaptive bisection with a Gauss-Kronrod rule per panel.

    The panel error estimate is the difference between the embedded 7-point
    Gauss and 15-point Kronrod values, but never below the rounding level of
    the panel sum (50 eps times the panel's integral of |g|), so a
    tolerance under that level is reported as not reached.  Panels are split worst-first until
    the summed estimate is below ``tol``; that sum is kept exactly, as an
    integer multiple of 2**-1074, and rounded once per split, so it equals
    the fsum of the panel estimates at O(1) cost.  QuadratureError is raised
    if ``tol`` is not met within ``MAX_PANELS`` panels.  Deterministic: the
    splitting order is fixed by the error/insertion-order heap, and the final
    value is the fsum of panel values sorted by position.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0)
    val, err = _gk_panel(g, a, b)
    heap = [(-err, 0, a, b, val, err)]
    serial = 1
    total_units = exact_units(err)
    total_err = err
    while total_err > tol:
        if len(heap) >= MAX_PANELS:
            raise QuadratureError(
                f"tolerance {tol:g} not reached within {MAX_PANELS} panels "
                f"(estimate {total_err:g})"
            )
        _, _, pa, pb, _, e = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            raise QuadratureError("panel underflow before tolerance was met")
        v1, e1 = _gk_panel(g, pa, mid)
        v2, e2 = _gk_panel(g, mid, pb)
        heapq.heappush(heap, (-e1, serial, pa, mid, v1, e1))
        serial += 1
        heapq.heappush(heap, (-e2, serial, mid, pb, v2, e2))
        serial += 1
        total_units += exact_units(e1) + exact_units(e2) - exact_units(e)
        total_err = round_units(total_units)
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

    Over ``box`` = (a, b] (default: the support), a 1-D law with a quantile Q
    gives the integral of f(Q(u)) over (phi(a), phi(b)], which has no
    singular end; any other law that of ``f * phi.density``, by adaptive
    quadrature in one dimension and tensorized quadrature in k dimensions.
    """
    if box is None:
        box = phi.support
    if not box.is_finite:
        raise ValueError("integration box must be finite")
    if box.dim != phi.dim:
        raise ValueError("box dimension does not match the CDF dimension")
    if not phi.support.contains_box(box):
        raise ValueError("integration box must lie inside the CDF support")
    a, b = box.lower[0], box.upper[0]
    if phi.dim == 1 and phi.quantile is not None:
        g = lambda u: float(f(phi.quantile(u)))
        return adaptive_quadrature(g, float(phi.value(a)), float(phi.value(b)), tol=tol)
    if phi.density is None:
        raise ValueError("integrate_smooth needs phi.density or a 1-D phi.quantile")
    if phi.dim == 1:
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


def _finite_interval(interval: tuple[float, float]) -> tuple[float, float]:
    """The interval's ends as floats; ValueError unless finite with a <= b."""
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError("interval must be finite with a <= b")
    return a, b


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
    a, b = _finite_interval(window)
    boundary = float(f(b)) * float(phi(b)) - float(f(a)) * float(phi(a))
    if not math.isfinite(boundary):
        raise FloatingPointError("boundary term is non-finite")
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
    levels.  ``phi`` is called once per point of the finest grid.  Used as
    an independent check of the quadrature route.
    """
    if not 1 <= levels <= _MAX_DEPTH:
        raise ValueError(f"levels must be in 1..{_MAX_DEPTH}, got {levels}")
    a, b = _finite_interval(interval)
    sums = []
    for xs, pv in _dyadic_values(phi, a, b, 1, levels):
        fv = apply_to_array(f, _midpoints(xs))
        sums.append(fsum_array(fv * np.diff(pv)))
    return sums

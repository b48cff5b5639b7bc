"""End-to-end solvers for the classic fractional-part limit problems.

Each solver returns the empirical value at a finite index n, the closed-form
limit, and their absolute gap.  Index loops run over fixed chunks with
compensated partial sums reduced in chunk order, so results are bit-identical
for every thread count.  Fractional parts of rationals are derived from
integer remainders, never from floating division, so CDF jump points are
never misclassified.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .accum import apply_to_array, fsum_array, map_reduce_fsum, map_reduce_int
from .convergence import Boundary, MeasureFamily
from .measure import HyperBox
from .special import EULER_GAMMA, frac_limit_cdf, frac_limit_density
from .stieltjes import SmoothCdf, integrate_smooth

__all__ = [
    "SolveResult",
    "DivergentResult",
    "PolySpec",
    "uniform_cdf",
    "root_cdf",
    "arcsin_cdf",
    "frac_limit_smooth_cdf",
    "Problem",
    "PROBLEMS",
    "reciprocal_frac_map",
    "reciprocal_frac_boundary",
    "sqrt_frac_cdf",
    "sequence_average",
    "interval_proportion_sin",
    "frac_n_over_i_cdf",
    "frac_n_over_i_mean",
    "dirichlet_weak",
    "polynomial_family",
]


@dataclass(frozen=True)
class SolveResult:
    """Empirical value at finite n versus the closed-form limit."""

    empirical: float
    closed_form: float
    abs_error: float
    n: int
    meta: str


def _result(empirical: float, closed_form: float, n: int, meta: str) -> SolveResult:
    return SolveResult(
        empirical=float(empirical),
        closed_form=float(closed_form),
        abs_error=abs(float(empirical) - float(closed_form)),
        n=int(n),
        meta=meta,
    )


@dataclass(frozen=True)
class DivergentResult:
    """Verdict for normalized sums whose closed form is not a finite number."""

    empirical: float
    n: int
    meta: str
    verdict: str = "divergent"


# ---------------------------------------------------------------------------
# Named limit CDFs
# ---------------------------------------------------------------------------

def uniform_cdf() -> SmoothCdf:
    """CDF of the uniform law on [0, 1]."""

    def value(t):
        t = np.asarray(t, dtype=float)
        out = np.clip(t, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    return SmoothCdf(value, HyperBox(0.0, 1.0), density=lambda t: 1.0)


def root_cdf(q: int) -> SmoothCdf:
    """CDF x -> x**(1/q) on (0, 1], the limit law of normalized polynomial
    sample points of degree q."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")

    def value(x):
        x = float(x)
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return x ** (1.0 / q)

    def density(x):
        x = float(x)
        if x <= 0.0 or x > 1.0:
            return 0.0
        return (1.0 / q) * x ** (1.0 / q - 1.0)

    return SmoothCdf(value, HyperBox(0.0, 1.0), density=density)


def arcsin_cdf() -> SmoothCdf:
    """CDF of sin(U) for U uniform on a full period: arcsin(t)/pi + 1/2."""

    def value(t):
        t = float(t)
        if t <= -1.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        return math.asin(t) / math.pi + 0.5

    def density(t):
        t = float(t)
        if abs(t) >= 1.0:
            return 0.0
        return 1.0 / (math.pi * math.sqrt(1.0 - t * t))

    return SmoothCdf(value, HyperBox(-1.0, 1.0), density=density)


def frac_limit_smooth_cdf() -> SmoothCdf:
    """The limit CDF of the fractional parts of n/i, with its density."""
    return SmoothCdf(frac_limit_cdf, HyperBox(0.0, 1.0), density=frac_limit_density)


# ---------------------------------------------------------------------------
# Point kernels (chunked numpy)
# ---------------------------------------------------------------------------

def _sqrt_frac_chunk(start: int, stop: int) -> np.ndarray:
    """Fractional parts of sqrt(k) for k in [start, stop).

    The floor of the one floating square root is corrected to the exact
    integer square root before it is subtracted (valid to k ~ 2**52).
    """
    k = np.arange(start, stop, dtype=np.int64)
    root = np.sqrt(k.astype(np.float64))
    f = np.floor(root).astype(np.int64)
    f = np.where((f + 1) * (f + 1) <= k, f + 1, f)
    f = np.where(f * f > k, f - 1, f)
    return root - f


def _remainder_chunk(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(start, stop, dtype=np.int64)
    return i, n % i


def _reciprocal_frac_chunk(n: int, start: int, stop: int) -> np.ndarray:
    """{n/i} = (n mod i)/i for i in [start, stop), each rounded once."""
    i, r = _remainder_chunk(n, start, stop)
    return r / i


def _mean_sum(f: Callable, points: Callable, n: int, count: int, threads: int) -> float:
    """Correctly rounded sum of f over the points(n, 1, count + 1) of a
    stream, one fixed-width chunk points(n, a, b) at a time."""
    return map_reduce_fsum(
        lambda a, b: fsum_array(apply_to_array(f, points(n, a, b))), 1, count + 1, threads=threads
    )


def reciprocal_frac_map(n: int) -> Callable[[float], float]:
    """The map x -> {1/x} on the atoms {i/n}, in exact integer arithmetic.

    Recovers i = round(n*x) and returns (n mod i)/i.  Plain floating
    evaluation of {1/x} wraps just below integers for many i/n (for example
    1/(1/93) = 92.999...), which would misplace atoms across the CDF jump
    at 0; this map keeps the push-forward route consistent with the modular
    counting route.
    """
    n = int(n)

    def g(x: float) -> float:
        i = int(round(n * float(x)))
        if i < 1 or i > n:
            raise ValueError(f"{x!r} is not an atom i/n for n={n}")
        return (n % i) / i

    return g


def reciprocal_frac_boundary(t: float) -> Boundary:
    """Boundary structure of {x in (0,1] : {1/x} <= t}: the countable set of
    interval endpoints 1/(m+t) and 1/m, m = 1, 2, ..."""
    return Boundary.countable(
        f"countable union of the points 1/(m+t) and 1/m for m >= 1 at t={t!r}"
    )


# ---------------------------------------------------------------------------
# Problem table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """A point set with uniform weights and the limit law of its points.

    ``points(n, start, stop)`` returns the points with index in
    ``[start, stop)`` out of ``1..n``; ``limit()`` builds the limit CDF.
    """

    points: Callable[[int, int, int], np.ndarray]
    limit: Callable[[], SmoothCdf]
    description: str

    def family(self) -> MeasureFamily:
        return MeasureFamily.from_stream(self.points, self.description)


# sweep name -> problem; streams call the kernels through module globals, so
# rebinding a kernel on this module takes effect
PROBLEMS = {
    "canonical-uniform": Problem(
        lambda n, a, b: np.arange(a, b, dtype=np.float64) / n,
        uniform_cdf,
        "uniform weights on {i/n : 1 <= i <= n}",
    ),
    "example1": Problem(
        lambda n, a, b: _sqrt_frac_chunk(a, b),
        uniform_cdf,
        "uniform weights on the fractional parts of sqrt(k), k <= n",
    ),
    "example2": Problem(
        lambda n, a, b: np.sin(2.0 * math.pi * _sqrt_frac_chunk(a, b)),
        arcsin_cdf,
        "uniform weights on sin(2*pi*{sqrt k}), k <= n",
    ),
    "example3": Problem(
        lambda n, a, b: _reciprocal_frac_chunk(n, a, b),
        frac_limit_smooth_cdf,
        "uniform weights on {n/i} = (n mod i)/i, i <= n",
    ),
}


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def sqrt_frac_cdf(n: int, t: float) -> float:
    """Exact proportion of k <= n with {sqrt k} <= t."""
    n = _check_n(n)
    t = float(t)
    if t < 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    points = PROBLEMS["example1"].points
    count = map_reduce_int(
        lambda a, b: int(np.count_nonzero(points(n, a, b) <= t)), 1, n + 1
    )
    return count / n


def sequence_average(
    n: int, f: Callable, threads: int = 1, tol: float = 1e-10
) -> SolveResult:
    """Mean of f({sqrt k}) for k <= n, against the uniform-law integral."""
    n = _check_n(n)
    problem = PROBLEMS["example1"]
    empirical = _mean_sum(f, problem.points, n, n, threads) / n
    closed = integrate_smooth(f, problem.limit(), tol=tol).value
    return _result(empirical, closed, n, "mean of f({sqrt k}) vs uniform integral")


def interval_proportion_sin(
    n: int, lo: float, hi: float, threads: int = 1
) -> SolveResult:
    """Proportion of sin(2*pi*{sqrt k}) in [lo, hi], against the arcsine law."""
    n = _check_n(n)
    lo = float(lo)
    hi = float(hi)
    if not (-1.0 <= lo <= hi <= 1.0):
        raise ValueError("need -1 <= lo <= hi <= 1")

    problem = PROBLEMS["example2"]

    def kernel(a: int, b: int) -> int:
        s = problem.points(n, a, b)
        return int(np.count_nonzero((s >= lo) & (s <= hi)))

    empirical = map_reduce_int(kernel, 1, n + 1, threads=threads) / n
    phi = problem.limit().value
    closed = phi(hi) - phi(lo)
    return _result(empirical, closed, n, "proportion of sin(2*pi*{sqrt k}) in [lo, hi]")


def frac_n_over_i_cdf(
    n: int, t: Union[float, Fraction], threads: int = 1
) -> SolveResult:
    """Proportion of i <= n with {n/i} <= t, against the digamma closed form.

    The comparison {n/i} <= t is (n mod i) <= t*i: a single float multiply
    for float t, or exact integer arithmetic when t is a Fraction (or any
    rational), so jump points are classified without rounding.
    """
    n = _check_n(n)
    if isinstance(t, numbers.Rational) and not isinstance(t, float):
        num = int(t.numerator)
        den = int(t.denominator)
        # r < i <= n, so both products fit int64 below this bound; above it
        # they are formed as exact Python ints
        exact = object if max(abs(num), den) * n >= 2**63 else np.int64

        def kernel(a: int, b: int) -> int:
            i, r = _remainder_chunk(n, a, b)
            r, i = r.astype(exact, copy=False), i.astype(exact, copy=False)
            return int(np.count_nonzero(r * den <= num * i))

    else:
        tf = float(t)

        def kernel(a: int, b: int) -> int:
            i, r = _remainder_chunk(n, a, b)
            return int(np.count_nonzero(r <= tf * i))

    empirical = map_reduce_int(kernel, 1, n + 1, threads=threads) / n
    closed = frac_limit_cdf(float(t))
    return _result(empirical, closed, n, "proportion of {n/i} <= t vs limit CDF")


def frac_n_over_i_mean(
    n: int,
    f: Optional[Callable] = None,
    threads: int = 1,
    tol: float = 1e-9,
) -> SolveResult:
    """Mean of f({n/i}) for i <= n; f omitted means the identity.

    Each {n/i} is the exact remainder (n mod i)/i converted once to float.
    For the identity the closed form short-circuits to 1 - gamma; otherwise
    it is the quadrature of f against the limit CDF's density.
    """
    n = _check_n(n)
    identity = f is None
    fn = (lambda v: v) if identity else f
    problem = PROBLEMS["example3"]
    empirical = _mean_sum(fn, problem.points, n, n, threads) / n
    if identity:
        closed = 1.0 - EULER_GAMMA
    else:
        closed = integrate_smooth(fn, problem.limit(), tol=tol).value
    return _result(empirical, closed, n, "mean of f({n/i}) vs limit-CDF integral")


def dirichlet_weak(n: int, threads: int = 1) -> SolveResult:
    """Normalized divisor-type sum: (1/n) sum of floor(n/i) minus ln n.

    The floor sum is exact integer arithmetic; the limit is 2*gamma - 1.
    """
    n = _check_n(n)
    total = map_reduce_int(
        lambda a, b: int(np.sum(n // np.arange(a, b, dtype=np.int64))),
        1,
        n + 1,
        threads=threads,
    )
    empirical = total / n - math.log(n)
    closed = 2.0 * EULER_GAMMA - 1.0
    return _result(empirical, closed, n, "(1/n) sum floor(n/i) - ln n vs 2*gamma - 1")


# ---------------------------------------------------------------------------
# Polynomial sample families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolySpec:
    """A normalized polynomial sum problem.

    ``p_coeffs`` are the coefficients of P in descending powers with positive
    leading coefficient ``a`` and degree ``q``; the normalizer is
    (n / norm_b) ** (1 / norm_r).  ``f`` is the sampled callback.
    """

    p_coeffs: tuple
    q: int
    a: float
    norm_r: int
    norm_b: float
    f: Callable

    def __post_init__(self):
        coeffs = tuple(self.p_coeffs)
        object.__setattr__(self, "p_coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("P must have degree at least 1")
        if self.q != len(coeffs) - 1:
            raise ValueError("q must equal the degree of p_coeffs")
        if not (float(self.a) == float(coeffs[0]) and float(self.a) > 0):
            raise ValueError("a must be the positive leading coefficient of P")
        if self.norm_r < 1 or int(self.norm_r) != self.norm_r:
            raise ValueError("norm_r must be a positive integer")
        if not float(self.norm_b) > 0:
            raise ValueError("norm_b must be positive")

    @classmethod
    def make(cls, p_coeffs: Sequence, norm_r: int, norm_b: float, f: Callable) -> "PolySpec":
        coeffs = tuple(p_coeffs)
        return cls(
            p_coeffs=coeffs,
            q=len(coeffs) - 1,
            a=float(coeffs[0]),
            norm_r=int(norm_r),
            norm_b=float(norm_b),
            f=f,
        )


def _poly_eval(coeffs: Sequence, i):
    acc = 0
    for c in coeffs:
        acc = acc * i + c
    return acc


def _poly_count(spec: PolySpec, n: int) -> int:
    """Greatest i >= 1 with P(i) <= n, by local scan from the degree-q guess."""
    guess = max(1, math.ceil((n / spec.a) ** (1.0 / spec.q)))
    i = guess
    while i > 0 and _poly_eval(spec.p_coeffs, i) > n:
        i -= 1
    while _poly_eval(spec.p_coeffs, i + 1) <= n:
        i += 1
    if i < 1:
        raise ValueError("no index i >= 1 satisfies P(i) <= n")
    return i


def polynomial_family(
    spec: PolySpec, n: int, threads: int = 1, tol: float = 1e-9
) -> Union[SolveResult, DivergentResult]:
    """Normalized sums of f(P(i)/n) over the indices with P(i) <= n.

    The limit splits on q = deg P versus the normalizer exponent r: zero for
    q < r, divergent for q > r, and for q = r the integral of f against the
    root-q CDF scaled by (b/a)**(1/q).
    """
    n = _check_n(n, limit=math.inf)
    count = _poly_count(spec, n)
    g_norm = (n / spec.norm_b) ** (1.0 / spec.norm_r)
    coeffs = np.asarray(spec.p_coeffs, dtype=np.float64)

    def points(n: int, a: int, b: int) -> np.ndarray:
        return np.polyval(coeffs, np.arange(a, b, dtype=np.float64)) / n

    empirical = _mean_sum(spec.f, points, n, count, threads) / g_norm
    meta = (
        f"(n/b)^(-1/r) * sum f(P(i)/n), deg P = {spec.q}, r = {spec.norm_r}, "
        f"N(n) = {count}"
    )
    if spec.q > spec.norm_r:
        return DivergentResult(empirical=float(empirical), n=n, meta=meta)
    if spec.q < spec.norm_r:
        return _result(empirical, 0.0, n, meta)
    scale = (spec.norm_b / spec.a) ** (1.0 / spec.q)
    # the scaled integral must meet tol, so the unscaled one gets tol / scale
    integral = integrate_smooth(spec.f, root_cdf(spec.q), tol=tol / max(scale, 1.0)).value
    return _result(empirical, scale * integral, n, meta)


# Largest n an index solver accepts: the exactness limit of _sqrt_frac_chunk,
# checked before any chunk range over 1..n is built.
_MAX_INDEX = 2**52


def _check_n(n, limit: float = _MAX_INDEX) -> int:
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > limit:
        raise ValueError(f"n must be <= 2**52 for index solvers, got {n}")
    return n

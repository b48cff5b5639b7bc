"""End-to-end solvers for the classic fractional-part limit problems.

Each solver returns the empirical value at a finite index n, the closed-form
limit, and their absolute gap.  Index loops run over fixed chunks with
exact partial sums reduced by one correctly rounded sum, so results are
bit-identical for every thread count.  Fractional parts of rationals are
derived from integer remainders and rounded once.  Every count of points
<= t (the CDF solvers, the interval proportion, the sweep) is
``Problem.count``: it compares the rounded points with t and settles in exact
integer arithmetic every point that rounding could have moved across t, so
no point is misclassified.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .accum import (
    CHUNK,
    apply_to_array,
    exact_partials,
    map_reduce_fsum,
    map_reduce_int,
    workspace,
)
from .convergence import Boundary
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

@functools.cache
def _iota() -> np.ndarray:
    """0, 1, ..., CHUNK - 1 as a shared read-only int64 array."""
    iota = np.arange(CHUNK, dtype=np.int64)
    iota.setflags(write=False)
    return iota


def _indices(start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """start, ..., stop - 1 written into ``out`` (int64, or float64 below
    2**53, where every such integer is exact)."""
    m = stop - start
    iota = _iota()[:m] if m <= CHUNK else np.arange(m, dtype=np.int64)
    return np.add(iota, start, out=out)


def _sqrt_frac_chunk(start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Fractional parts of sqrt(k) for k in [start, stop), written into
    ``out`` when it is given, else into a fresh array.

    The floor of the one floating square root is corrected to the exact
    integer square root before it is subtracted (valid to k ~ 2**52, where
    k, f*f and (f+1)**2 are exact in float64).
    """
    m = stop - start
    out = np.empty(m) if out is None else out
    with workspace(m) as ws:
        k, f, t = (a[:m] for a in ws.f)
        mask = ws.mask[:m]
        _indices(start, stop, k)
        np.sqrt(k, out=out)
        np.floor(out, out=f)
        np.add(f, 1.0, out=t)
        np.multiply(t, t, out=t)
        f += np.less_equal(t, k, out=mask)
        np.multiply(f, f, out=t)
        f -= np.greater(t, k, out=mask)
        return np.subtract(out, f, out=out)


def _remainder_chunk(
    n: int, start: int, stop: int, out: Optional[tuple] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The indices i in [start, stop) and n mod i, as int64 arrays; written
    into the pair ``out`` when it is given."""
    if out is None:
        out = (np.empty(stop - start, dtype=np.int64), np.empty(stop - start, dtype=np.int64))
    i = _indices(start, stop, out[0])
    return i, np.remainder(n, i, out=out[1])


def _reciprocal_frac_chunk(
    n: int, start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """{n/i} = (n mod i)/i for i in [start, stop), each rounded once;
    written into ``out`` when it is given, else into a fresh array."""
    m = stop - start
    with workspace(m) as ws:
        pair = tuple(a[:m].view(np.int64) for a in ws.f[:2])
        i, r = _remainder_chunk(n, start, stop, out=pair)
        return np.divide(r, i, out=np.empty(m) if out is None else out)


def _uniform_chunk(n: int, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """i/n for i in [start, stop), into ``out`` or a fresh array."""
    out = _indices(start, stop, np.empty(stop - start) if out is None else out)
    return np.divide(out, n, out=out)


def _sin_2pi_sqrt_frac_chunk(
    start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """sin(2*pi*{sqrt k}) for k in [start, stop), into ``out`` or a fresh array."""
    x = _sqrt_frac_chunk(start, stop, out=out)
    np.multiply(x, 2.0 * math.pi, out=x)
    return np.sin(x, out=x)


def _mean_sum(f: Callable, points: Callable, n: int, count: int, threads: int) -> float:
    """Correctly rounded sum of f over the points(n, 1, count + 1) of a
    stream, one fixed-width chunk points(n, a, b, out=...) at a time, written
    into the thread's workspace; each chunk passes on its exact partials,
    which are rounded once, all together."""

    def kernel(a: int, b: int) -> list:
        with workspace() as ws:
            return exact_partials(apply_to_array(f, points(n, a, b, out=ws.f[0][: b - a])))

    return map_reduce_fsum(kernel, 1, count + 1, threads=threads)


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

    ``points(n, start, stop, out=None)`` returns the points with index in
    ``[start, stop)`` out of ``1..n``, written into ``out`` when it is given
    and into a fresh array otherwise; ``limit()`` builds the limit CDF.

    A problem whose float points are rounded values of exact points names
    its exactness rule: every rounded point with index below ``stop`` lies
    within ``band(stop)`` of its exact point x_i, and ``settle(n, i, T)``
    decides x_i <= T exactly for a Fraction T.  Without a rule the float
    points are the points.
    """

    points: Callable[[int, int, int], np.ndarray]
    limit: Callable[[], SmoothCdf]
    band: Optional[Callable[[int], float]] = None
    settle: Optional[Callable[[int, int, Fraction], bool]] = None

    def count(self, n: int, ts: Sequence, threads: int = 1) -> np.ndarray:
        """#{i in 1..n : x_i <= t} for each threshold t in ``ts``, as int64.

        The points are streamed one chunk at a time into the thread's
        workspace and compared with each threshold in turn.  With a settle
        rule, a point farther than the band from float(t) lies on the same
        side of t as x_i and is counted by the compare; a point inside the
        band is settled against T = Fraction(t) (of float(t) unless t is
        rational), built only when such a point occurs.  A NaN threshold or
        a non-finite point raises ValueError.
        """
        n = _check_n(n)
        ts = tuple(ts)
        tfs = tuple(float(t) for t in ts)
        if any(math.isnan(tf) for tf in tfs):
            raise ValueError("t must be a number, got nan")

        def kernel(a: int, b: int) -> np.ndarray:
            m = b - a
            counts = np.empty(len(ts), dtype=np.int64)
            with workspace() as ws:
                x = self.points(n, a, b, out=ws.f[0][:m])
                mask = ws.mask[:m]
                if not np.isfinite(x, out=mask).all():
                    raise ValueError("points must be finite")
                below = ws.f[1].view(np.bool_)[:m]
                w = self.band(b) if self.settle else 0.0
                for j, (t, tf) in enumerate(zip(ts, tfs)):
                    counts[j] = np.count_nonzero(np.less_equal(x, tf + w, out=mask))
                    if not self.settle:
                        continue
                    exact = np.count_nonzero(np.less(x, tf - w, out=below))
                    if exact < counts[j]:
                        # the band: x <= tf + w and not x < tf - w
                        mask &= np.logical_not(below, out=below)
                        T = Fraction(t if isinstance(t, numbers.Rational) else tf)
                        exact += sum(self.settle(n, int(i), T) for i in np.flatnonzero(mask) + a)
                    counts[j] = exact
            return counts

        return map_reduce_int(kernel, 1, n + 1, threads=threads)


# sweep name -> problem; streams call the kernels through module globals, so
# rebinding a kernel on this module takes effect
PROBLEMS = {
    # uniform weights on {i/n : 1 <= i <= n}
    "canonical-uniform": Problem(
        lambda n, a, b, out=None: _uniform_chunk(n, a, b, out=out), uniform_cdf
    ),
    # uniform weights on the fractional parts of sqrt(k), k <= n: the rounded
    # sqrt(k) less the exact isqrt(k) is within half the float spacing at
    # sqrt(k), and {sqrt k} <= T exactly when k <= (isqrt(k) + T)**2
    "example1": Problem(
        lambda n, a, b, out=None: _sqrt_frac_chunk(a, b, out=out),
        uniform_cdf,
        band=lambda stop: np.spacing(math.sqrt(stop)),
        settle=lambda n, k, T: k <= (math.isqrt(k) + T) ** 2,
    ),
    # uniform weights on sin(2*pi*{sqrt k}), k <= n
    "example2": Problem(
        lambda n, a, b, out=None: _sin_2pi_sqrt_frac_chunk(a, b, out=out), arcsin_cdf
    ),
    # uniform weights on {n/i} = (n mod i)/i, i <= n: each point is correctly
    # rounded and rounding is monotone, so only a point equal to float(T) can
    # be on the other side of T, where (n mod i) <= T*i decides
    "example3": Problem(
        lambda n, a, b, out=None: _reciprocal_frac_chunk(n, a, b, out=out),
        frac_limit_smooth_cdf,
        band=lambda stop: 0.0,
        settle=lambda n, i, T: n % i <= T * i,
    ),
}


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def sqrt_frac_cdf(n: int, t: Union[float, Fraction]) -> float:
    """Exact proportion of k <= n with {sqrt k} <= t, for float or rational t."""
    n = _check_n(n)
    if float(t) < 0.0:
        return 0.0
    if float(t) >= 1.0:
        return 1.0
    return int(PROBLEMS["example1"].count(n, (t,))[0]) / n


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
    # lo <= hi: the points in [lo, hi] are those <= hi less those < lo
    below, inside = problem.count(n, (math.nextafter(lo, -math.inf), hi), threads)
    empirical = int(inside - below) / n
    phi = problem.limit().value
    closed = phi(hi) - phi(lo)
    return _result(empirical, closed, n, "proportion of sin(2*pi*{sqrt k}) in [lo, hi]")


def frac_n_over_i_cdf(
    n: int, t: Union[float, Fraction], threads: int = 1
) -> SolveResult:
    """Exact proportion of i <= n with {n/i} <= t, for float or rational t,
    against the digamma closed form."""
    n = _check_n(n)
    count = int(PROBLEMS["example3"].count(n, (t,), threads)[0])
    closed = frac_limit_cdf(float(t))
    return _result(count / n, closed, n, "proportion of {n/i} <= t vs limit CDF")


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

    def kernel(a: int, b: int) -> int:
        with workspace(b - a) as ws:
            i = _indices(a, b, ws.f[0][: b - a].view(np.int64))
            return int(np.floor_divide(n, i, out=i).sum())

    total = map_reduce_int(kernel, 1, n + 1, threads=threads)
    empirical = total / n - math.log(n)
    closed = 2.0 * EULER_GAMMA - 1.0
    return _result(empirical, closed, n, "(1/n) sum floor(n/i) - ln n vs 2*gamma - 1")


# ---------------------------------------------------------------------------
# Polynomial sample families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolySpec:
    """A normalized polynomial sum problem.

    ``p_coeffs`` are the coefficients of P in descending powers; the degree
    ``q`` and the positive leading coefficient ``a`` follow from them.  The
    normalizer is (n / norm_b) ** (1 / norm_r).  ``f`` is the sampled callback.
    """

    p_coeffs: tuple
    norm_r: int
    norm_b: float
    f: Callable

    def __post_init__(self):
        coeffs = tuple(self.p_coeffs)
        object.__setattr__(self, "p_coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("P must have degree at least 1")
        if not float(coeffs[0]) > 0:
            raise ValueError("a must be the positive leading coefficient of P")
        if self.norm_r < 1 or int(self.norm_r) != self.norm_r:
            raise ValueError("norm_r must be a positive integer")
        if not float(self.norm_b) > 0:
            raise ValueError("norm_b must be positive")

    @property
    def q(self) -> int:
        return len(self.p_coeffs) - 1

    @property
    def a(self) -> float:
        return float(self.p_coeffs[0])


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

    def points(n: int, a: int, b: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        # np.polyval's Horner steps, in place
        m = b - a
        y = np.empty(m) if out is None else out
        with workspace(m) as ws:
            x = _indices(a, b, ws.f[0][:m])
            y.fill(0.0)
            for c in coeffs:
                np.multiply(y, x, out=y)
                np.add(y, c, out=y)
        return np.divide(y, n, out=y)

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


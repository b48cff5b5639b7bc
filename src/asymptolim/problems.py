"""End-to-end solvers for the classic fractional-part limit problems.

Each solver returns the empirical value at a finite index n, the closed-form
limit, and their absolute gap.  Index loops run over fixed chunks with
exact partial sums reduced by one correctly rounded sum, so results are
bit-identical for every thread count.  Fractional parts of rationals are
derived from exact float64 remainders and rounded once.  Every count of points
<= t (the CDF solvers, the interval proportion, the sweep) is
``Problem.counts``, one call of a count rule for the whole n-list of a sweep,
or the stream.  canonical-uniform's rule is a few float compares,
example1's a floor sum in O(log q) Python-int steps for a threshold T = p/q,
each threshold's constants built once for the whole n-list.
example3's points fall along O(sqrt n) blocks of indices, so its rule takes
each block's boundary with t in closed form, from a float guess or, where
an integer lies within the guess's error, in Python ints, in O(sqrt n) per
threshold.  example2's points rise along O(sqrt n) rows of k, so its rule
counts each row's points inside the level set of t, evaluating only those
that rounding could put on either side of t, also in O(sqrt n) per
threshold, and walks the rows once for every n of the list.  The stream,
chunk by chunk, is the oracle.
Wherever float points stand for exact ones, every point that rounding could
have moved across t is decided in exact integer arithmetic, so no point is
misclassified.  The divisor sum takes the hyperbola identity, O(sqrt n), and
through it example4's identity mean is H_n - D(n)/n, correctly rounded,
with no stream at all.  example1's mean of an f with an analytic part
(antiderivatives F of f and G of u f, bounds on the derivatives, and f's
Taylor coefficients at 1) takes the rows k = m*m + j by Euler-Maclaurin:
the complete rows as one series in t = 1/(m + 1), through harmonic and
Hurwitz zeta values, in O(1) at any n, the last row from F, G and a few
derivatives at its ends, within a bound proved in ``sequence_average``;
example4's mean of such an f sums each quotient block by Euler-Maclaurin,
its integral by a Gauss-Legendre rule, within a bound proved in
``frac_n_over_i_mean``; the polynomial family's sum of such an f sums each
monotone run of P by Euler-Maclaurin, within a bound proved in
``polynomial_family``; a plain callable streams.  Every such mean is one
call of ``_mean_sum``: the spans of indices that stream, then the
Euler-Maclaurin pieces (rows and the series, blocks or runs), lie end to
end in one range of fixed chunks, and the exact partials of all chunks are
rounded once.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .accum import (
    CHUNK,
    Workspace,
    apply_to_array,
    exact_partials,
    is_vector,
    map_math,
    map_reduce_fsum,
    map_reduce_int,
    workspace,
)
from .convergence import Boundary
from .measure import HyperBox
from .special import (
    BERNOULLI_2J,
    EULER_GAMMA,
    frac_limit_cdf,
    frac_limit_density,
    harmonic_exact,
    hurwitz_zeta,
    round_once,
)
from .stieltjes import SmoothCdf, integrate_smooth

__all__ = [
    "SolveResult",
    "DivergentResult",
    "PolySpec",
    "uniform_cdf",
    "root_cdf",
    "arcsin_cdf",
    "frac_limit_smooth_cdf",
    "CDFS",
    "resolve_cdf",
    "NamedFunction",
    "resolve_function",
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
# Each value callback takes a float, or a 1-D float64 array (``is_vector``),
# which costs one call: element by element it gives the bits of the scalar
# call, with the IEEE + - * / in numpy and each libm function (pow, asin)
# called through ``math`` once per element, since numpy's versions differ
# from libm in the last bit at some points.

def uniform_cdf() -> SmoothCdf:
    """CDF of the uniform law on [0, 1]."""

    def value(t):
        if isinstance(t, numbers.Real):
            return min(max(float(t), 0.0), 1.0)
        out = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    return SmoothCdf(value, HyperBox(0.0, 1.0), quantile=lambda u: u)


def root_cdf(q: int) -> SmoothCdf:
    """CDF x -> x**(1/q) on (0, 1], the limit law of normalized polynomial
    sample points of degree q."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")

    def value(x):
        if is_vector(x):
            out = np.where(x >= 1.0, 1.0, 0.0)
            inside = ~((x <= 0.0) | (x >= 1.0))
            x = x[inside]
            out[inside] = map_math(math.pow, x, 1.0 / q)
            return out
        x = float(x)
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return x ** (1.0 / q)

    return SmoothCdf(value, HyperBox(0.0, 1.0), quantile=lambda u: u**q)


def arcsin_cdf() -> SmoothCdf:
    """CDF of sin(U) for U uniform on a full period: arcsin(t)/pi + 1/2,
    with quantile sin(pi (u - 1/2))."""

    def value(t):
        if is_vector(t):
            t = np.minimum(np.maximum(t, -1.0), 1.0)
            return map_math(math.asin, t) / math.pi + 0.5
        return math.asin(min(max(float(t), -1.0), 1.0)) / math.pi + 0.5

    return SmoothCdf(
        value, HyperBox(-1.0, 1.0), quantile=lambda u: math.sin(math.pi * (u - 0.5))
    )


def frac_limit_smooth_cdf() -> SmoothCdf:
    """The limit CDF of the fractional parts of n/i, with its density."""
    return SmoothCdf(frac_limit_cdf, HyperBox(0.0, 1.0), density=frac_limit_density)


# name -> limit CDF; ``root:q`` is parsed by resolve_cdf
CDFS = {
    "uniform": lambda: uniform_cdf(),
    "sqrt": lambda: root_cdf(2),
    "frac-limit": lambda: frac_limit_smooth_cdf(),
    "arcsin": lambda: arcsin_cdf(),
}


def resolve_cdf(name: str) -> SmoothCdf:
    """A limit CDF by name: a key of ``CDFS``, or ``root:q``."""
    if name.startswith("root:"):
        try:
            return root_cdf(int(name[len("root:") :]))
        except ValueError as exc:
            raise ValueError(f"bad root spec {name!r}") from exc
    if name not in CDFS:
        raise ValueError(f"unknown cdf {name!r}")
    return CDFS[name]()


# ---------------------------------------------------------------------------
# Point kernels (chunked numpy)
# ---------------------------------------------------------------------------

@functools.cache
def _iota(dtype: np.dtype) -> np.ndarray:
    """0, 1, ..., CHUNK - 1 as a shared read-only array of ``dtype``."""
    iota = np.arange(CHUNK, dtype=dtype)
    iota.setflags(write=False)
    return iota


def _indices(start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """start, ..., stop - 1 written into ``out`` (int64, or float64 below
    2**53, where every such integer is exact), in one pass from an iota of
    the same dtype."""
    m = stop - start
    iota = _iota(out.dtype)[:m] if m <= CHUNK else np.arange(m, dtype=out.dtype)
    return np.add(iota, start, out=out)


def _sqrt_frac(k: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """Fractional parts of sqrt(k) for the float64 integers 1 <= k <= 2**52,
    into ``out``, with the floor in the second array of the workspace ``ws``
    (its first may hold k).

    floor(fl(sqrt k)) is isqrt(k), so the result is fl(sqrt k) - isqrt(k),
    an exact difference.  sqrt is correctly rounded and monotone, and
    sqrt(m*m) = m is exact, so it is enough that fl(sqrt(M*M - 1)) < M for
    M <= 2**26: sqrt(M*M - 1) < M - 1/(2M) <= M - 2**-27, and the float
    below M is at least M - 2**-27, so the root rounds below M.
    """
    f = ws.f[1][: k.size]
    np.sqrt(k, out=out)
    np.floor(out, out=f)
    return np.subtract(out, f, out=out)


def _sqrt_frac_chunk(start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Fractional parts of sqrt(k) for k in [start, stop), written into
    ``out`` when it is given, else into a fresh array."""
    m = stop - start
    with workspace(m) as ws:
        k = _indices(start, stop, ws.f[0][:m])
        return _sqrt_frac(k, np.empty(m) if out is None else out, ws)


def _remainder(n: int, i: np.ndarray, out: np.ndarray) -> np.ndarray:
    """n mod i, exactly, into ``out``, for 0 <= n <= 2**52 and the float64
    integers 1 <= i <= 2**52.

    floor(fl(n/i)) is Q = n // i: fl is monotone and Q is a float, so it is
    at least Q.  Where i divides n, n/i = Q.  Otherwise n/i <= Q + 1 - 1/i,
    and 1/i > (Q + 1) * 2**-53, since i * (Q + 1) < n + i <= 2**53, is more
    than half the spacing of the floats below Q + 1; so n/i rounds below
    Q + 1.  Then Q * i <= n and n - Q * i are exact.
    """
    np.divide(float(n), i, out=out)
    np.floor(out, out=out)
    np.multiply(out, i, out=out)
    return np.subtract(float(n), out, out=out)


def _remainder_chunk(
    n: int, start: int, stop: int, out: Optional[tuple] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The indices i in [start, stop) and n mod i, as float64 arrays of
    exact integers; written into the pair ``out`` when it is given."""
    if out is None:
        out = (np.empty(stop - start), np.empty(stop - start))
    i = _indices(start, stop, out[0])
    return i, _remainder(n, i, out[1])


def _reciprocal_frac_chunk(
    n: int, start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """{n/i} = (n mod i)/i for i in [start, stop), each rounded once;
    written into ``out`` when it is given, else into a fresh array."""
    m = stop - start
    out = np.empty(m) if out is None else out
    with workspace(m) as ws:
        i, r = _remainder_chunk(n, start, stop, out=(ws.f[0][:m], out))
        return np.divide(r, i, out=r)


def _reciprocal_frac_at(n: int, i: np.ndarray, out: np.ndarray) -> np.ndarray:
    """{n/i} for the int64 indices ``i``, each rounded once, into ``out``."""
    with workspace(i.size) as ws:
        fi = ws.f[0][: i.size]
        np.copyto(fi, i)
        return np.divide(_remainder(n, fi, out), fi, out=out)


def _uniform_chunk(n: int, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """i/n for i in [start, stop), into ``out`` or a fresh array."""
    out = _indices(start, stop, np.empty(stop - start) if out is None else out)
    return np.divide(out, n, out=out)


def _sin_2pi_sqrt_frac(k: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """sin(2*pi*{sqrt k}) for the float64 integers 1 <= k <= 2**52, into
    ``out``, with the workspace ``ws`` as for ``_sqrt_frac``: example2's
    points, for its stream and for the points its count rule evaluates."""
    x = _sqrt_frac(k, out, ws)
    np.multiply(x, 2.0 * math.pi, out=x)
    return np.sin(x, out=x)


def _sin_2pi_sqrt_frac_chunk(
    start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """sin(2*pi*{sqrt k}) for k in [start, stop), into ``out`` or a fresh array."""
    m = stop - start
    with workspace(m) as ws:
        k = _indices(start, stop, ws.f[0][:m])
        return _sin_2pi_sqrt_frac(k, np.empty(m) if out is None else out, ws)


def _mean_sum(f: Callable, points: Callable, n: int, spans: Sequence, threads: int,
              pieces: int = 0, em: Optional[Callable] = None, divisor: int = 1) -> float:
    """Correctly rounded sum of f over the points(n, lo, hi) of a stream for
    the (lo, hi) index ranges ``spans``, and of the partials ``em(first,
    stop)`` of the Euler-Maclaurin pieces first..stop - 1 of 0..pieces - 1;
    with a ``divisor``, the correctly rounded quotient of that sum by it.

    The spans' indices, then the pieces, lie end to end in one range of
    fixed chunks.  A chunk's points are written into the thread's
    workspace and go through f in one call; its exact partials, and its
    pieces', reach one ``map_reduce_fsum``, which rounds them once, all
    together, so neither the chunking nor the thread count changes a bit.
    """
    starts = list(accumulate((hi - lo for lo, hi in spans), initial=0))
    head = starts[-1]

    def kernel(a: int, b: int) -> list:
        partials = []
        if a < head:
            with workspace() as ws:
                x = ws.f[0][: min(b, head) - a]
                for (lo, _), s, e in zip(spans, starts, starts[1:]):
                    i, j = max(a, s), min(b, e)
                    if i < j:
                        points(n, lo + i - s, lo + j - s, out=x[i - a : j - a])
                partials = exact_partials(apply_to_array(f, x))
        if b > head:
            partials += em(max(a, head) - head, b - head)
        return partials

    return map_reduce_fsum(kernel, 0, head + pieces, threads=threads, divisor=divisor)


# ---------------------------------------------------------------------------
# example1's means by rows (Euler-Maclaurin)
# ---------------------------------------------------------------------------

# Rows from _FIRST_EM_ROW on, or later for an f with large high derivatives
# (_first_em_row), are summed by Euler-Maclaurin with _EM_TERMS Bernoulli
# terms; the rows below stream (see sequence_average).
_FIRST_EM_ROW = 32
_EM_TERMS = 3

# np.sin and np.cos on [0, 1] are within this relative error of sin and cos
# (a test checks it against mpmath; they are within 2**-53 there).
_TRIG_ERROR = 2.0**-51

_U = 2.0**-53


@dataclass(frozen=True)
class Analytic:
    """What example1's rows, example4's quotient blocks and the polynomial
    family's runs need of f on [0, 1] besides its values (the blocks and
    the runs take only ``d``); ``resolve_function``'s callbacks carry one.

    ``rows(U)`` takes a float64 array of U in [0, 1] and returns
    ``(F(U) - F(0), G(U) - G(0), d)``, where F' = f, G'(u) = u f(u) and
    ``d(i)`` is f^(i)(U) for 0 <= i < 2 * _EM_TERMS, each evaluated once
    per call.  ``bounds[k]`` bounds |f^(k)| on [0, 1] for
    k <= 2 * _EM_TERMS + 2.  ``errors`` holds the absolute errors
    (e_f, e_d, e_F, e_G) of the callback, of ``d``, and of the two
    differences, on [0, 1].  ``disc(r)`` bounds |f| on the complex disc
    |z| <= r (OverflowError where that bound is not a float).
    ``at_one(L)``, for example1's series of rows, returns
    ``((hi, lo), J, a, e)``: hi = fl(I) and lo = fl(I - hi) for
    I = F(1) - F(0), J = fl(G(1) - G(0)), each from a rational within
    2**-116 of the exact value, and floats a_j within e_j of f's Taylor
    coefficients f^(j)(1)/j! at 1, for 0 <= j <= L, where a list shorter
    than L + 1 leaves out a_j that are 0.
    """

    rows: Callable[[np.ndarray], tuple]
    bounds: tuple
    errors: tuple
    disc: Callable[[float], float]
    at_one: Callable[[int], tuple]


def _rounded(num: int, den: int) -> tuple:
    """hi = fl(x) and lo = fl(x - hi) for x = num/den, den > 0: x within
    u |lo| of hi + lo.  Python divides ints with one rounding."""
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


@functools.cache
def _trig_at_one(phase: int, L: int) -> tuple:
    """``at_one(L)`` of np.sin (phase 0) or np.cos (phase 1): f^(j)(1) is
    sin(1 + (j + phase) pi/2), from sin 1 and cos 1 as Fractions within
    2**-116, their Taylor series to the terms 1/31! and 1/30! (the first
    omitted terms, 1/33! and 1/32!, bound what is left out), and each a_j
    is rounded once from a Fraction.  The same for every call, so kept."""
    s = sum(Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(16))
    c = sum(Fraction((-1) ** k, math.factorial(2 * k)) for k in range(16))
    cycle = (s, c, -s, -c)
    a = tuple(float(cycle[(j + phase) % 4] / math.factorial(j)) for j in range(L + 1))
    I, J = (s, s + c - 1) if phase else (1 - c, s - c)
    return (_rounded(I.numerator, I.denominator), float(J), a,
            tuple(_U * abs(v) + 2.0**-116 for v in a))


def _trig_part(phase: int) -> Analytic:
    """The analytic part of np.sin (phase 0) or np.cos (phase 1).

    With s = sin U, c = cos U and 1 - cos U = 2 sin(U/2)**2, which has no
    cancellation: for sin, F(U) - F(0) = 1 - cos U and G(U) - G(0) =
    s - U c; for cos, s and U s - (1 - cos U).  np.sin and np.cos are within
    a relative e = _TRIG_ERROR, so the squared sine is within 2e + 2u of
    1 - cos U < 1 (u = 2**-53), and either G term, below 0.4, within
    2e + 3u.  |sin(x + iy)| and |cos(x + iy)| are at most cosh y.  Their
    values at 1 come from ``_trig_at_one``."""

    def rows(U: np.ndarray) -> tuple:
        s, c = np.sin(U), np.cos(U)
        h = np.sin(0.5 * U)
        h = 2.0 * (h * h)
        cycle = (s, c, -s, -c)
        if phase:
            dF, dG = s, U * s - h
        else:
            dF, dG = h, s - U * c
        return dF, dG, lambda i: cycle[(i + phase) % 4]

    e = _TRIG_ERROR
    return Analytic(rows, (1.0,) * (2 * _EM_TERMS + 3), (e, e, 2 * e + 2 * _U, 2 * e + 3 * _U),
                    math.cosh, functools.partial(_trig_at_one, phase))


def _poly_part(c: Sequence[float]) -> Optional[Analytic]:
    """The analytic part of the polynomial with the ascending coefficients
    ``c``, evaluated by Horner's rule, or None where a bound A_k is not
    below 2**900 (a coefficient is not finite, or so large that the rows'
    partials could overflow); those polynomials stream.

    |f^(k)| <= A_k = sum_{i>=k} |c_i| i!/(i-k)! on [0, 1], and |f| <=
    sum |c_i| r**i on |z| <= r.  Horner's rule of
    degree q is within gamma(2q) sum |a_i| of the value at |x| <= 1, for
    gamma(j) = j u / (1 - j u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 5.1); a rounded coefficient c_i / (i + 1) or c_i i!/(i-k)!
    adds one rounding."""
    q = len(c) - 1
    A = tuple(sum(abs(c[i]) * math.perm(i, k) for i in range(k, q + 1))
              for k in range(2 * _EM_TERMS + 3))
    if not max(A) < 2.0**900:
        return None

    def gamma(j: int) -> float:
        return j * _U / (1.0 - j * _U)

    # the coefficients, descending, of F, G and f^(k) for k < 2 * _EM_TERMS,
    # one row each, led by zeros: Horner's rule takes 0 * x + 0 = 0 from a
    # leading zero at x >= 0, so each row of one pass over the columns has
    # the bits of its own polynomial's _horner
    table = np.zeros((2 + 2 * _EM_TERMS, q + 3))
    table[0, 1:] = [c[i] / (i + 1) for i in range(q, -1, -1)] + [0.0]
    table[1] = [c[i] / (i + 2) for i in range(q, -1, -1)] + [0.0, 0.0]
    for k in range(min(q, 2 * _EM_TERMS - 1) + 1):
        table[2 + k, k + 2 :] = [c[i] * math.perm(i, k) for i in range(q, k - 1, -1)]
    columns = table.T[:, :, None]

    def rows(U: np.ndarray) -> tuple:
        out = _horner(columns, U, np.empty((len(table), U.size)))
        return out[0], out[1], lambda i: out[2 + i]

    def at_one(L: int) -> tuple:
        # a_j = sum_i c_i C(i, j), each product and the sum rounded once;
        # a_j = 0 for j > q is left out
        top = min(L, q) + 1
        a = [math.fsum(c[i] * math.comb(i, j) for i in range(j, q + 1)) for j in range(top)]
        e = [2 * _U * math.fsum(abs(c[i]) * math.comb(i, j) for i in range(j, q + 1))
             for j in range(top)]
        num, den = moment(2)
        return _rounded(*moment(1)), num / den, a, e

    def moment(shift: int) -> tuple:
        # sum_i c_i / (i + shift), exactly, as a numerator and a denominator
        ratios = [v.as_integer_ratio() for v in c]
        E = max(d for _, d in ratios)
        den = math.lcm(*range(shift, q + shift + 1))
        return sum(p * (E // d) * (den // (i + shift)) for i, (p, d) in enumerate(ratios)), E * den

    errors = (gamma(2 * q) * A[0], gamma(2 * q + 2) * max(A),
              gamma(2 * q + 3) * math.fsum(abs(c[i]) / (i + 1) for i in range(q + 1)),
              gamma(2 * q + 5) * math.fsum(abs(c[i]) / (i + 2) for i in range(q + 1)))
    return Analytic(rows, A, errors, lambda r: math.fsum(abs(v) * r**i for i, v in enumerate(c)),
                    at_one)


@dataclass(frozen=True)
class NamedFunction:
    """A callback and its derivative, as ``resolve_function`` names them;
    calling it calls ``fn``.  Where example1's mean of f has a route by
    rows, example4's one by quotient blocks and the polynomial family's one
    by P's monotone runs, ``analytic`` holds what they need (``Analytic``),
    built by ``make_analytic`` on first use, as nothing else needs it; where
    it is None all three stream."""

    fn: Callable
    derivative: Callable
    make_analytic: Callable[[], Optional[Analytic]] = lambda: None

    @functools.cached_property
    def analytic(self) -> Optional[Analytic]:
        return self.make_analytic()

    def __call__(self, t):
        return self.fn(t)


def _polynomial(c: Sequence[float]) -> Callable:
    """t -> ``np.polynomial.polynomial.polyval(t, c)``, bit for bit, by one
    Horner rule on the float64 coefficients, in a tuple, which a quadrature's
    scalar calls iterate faster than an array: ``_horner`` for a 1-D float64
    array, in one new array, ``_poly_eval`` otherwise."""
    descending = tuple(np.asarray(c, dtype=np.float64)[::-1])

    def p(t):
        if isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == np.float64:
            return _horner(descending, t, np.empty(t.shape))
        return _poly_eval(descending, t)

    return p


# name -> (callback, derivative, maker of the analytic part)
_FUNCTIONS = {
    "sin": (np.sin, np.cos, lambda: _trig_part(0)),
    "cos": (np.cos, lambda t: -np.sin(t), lambda: _trig_part(1)),
    "id": (lambda t: t, _polynomial((1.0,)), lambda: _poly_part((0.0, 1.0))),
    "const1": (_polynomial((1.0,)), _polynomial((0.0,)), lambda: _poly_part((1.0,))),
}


def resolve_function(name: str) -> NamedFunction:
    """Look up a callback by registry name.

    Known names: ``sin``, ``cos``, ``id``, ``const1`` and
    ``poly:c0,c1,...`` (ascending coefficients); ValueError for any other.
    """
    if name in _FUNCTIONS:
        return NamedFunction(*_FUNCTIONS[name])
    if name.startswith("poly:"):
        try:
            coeffs = [float(c) for c in name[len("poly:") :].split(",")]
        except ValueError as exc:
            raise ValueError(f"bad polynomial spec {name!r}") from exc
        dc = np.asarray(coeffs[1:]) * np.arange(1, len(coeffs))
        return NamedFunction(_polynomial(coeffs), _polynomial(dc if dc.size else (0.0,)),
                             functools.partial(_poly_part, coeffs))
    raise ValueError(f"unknown function {name!r}")


# Euler-Maclaurin terms of h(x) = f(u) for the rows' map and the blocks'.
# On each, d/dx = s w**(alpha + 1) d/du with w = u + c for a constant c:
# rows take w = m + u = sqrt(m*m + x), s = 1/2, alpha = -2; blocks take
# w = n/x = v + Q, s = -1/n, alpha = 1.

@functools.cache
def _em_table(alpha: int, p: int) -> dict:
    """{i: a_i}, integers held exactly in floats, from i = p down to 1, with
    h^(p)(x) = s**p sum_i a_i f^(i)(u) w**(alpha p + i): d/dx takes
    f^(i) w**j to s (f^(i+1) w**(j + alpha + 1) + j f^(i) w**(j + alpha)),
    so each a_i of table p - 1 adds a_i to entry i + 1 of table p and
    (alpha (p - 1) + i) a_i to entry i.  alpha = 1 gives the unsigned Lah
    numbers L(p, i)."""
    if p == 1:
        return {1: 1.0}
    out: dict = {}
    for i, a in _em_table(alpha, p - 1).items():
        out[i + 1] = out.get(i + 1, 0.0) + a
        out[i] = out.get(i, 0.0) + (alpha * (p - 1) + i) * a
    return out


def _em_ends(d: Callable, w, alpha: int, s: float):
    """sum_{k <= _EM_TERMS} B_2k/(2k)! h^(2k-1) at the points where
    f^(i)(u) = d(i), for the map (alpha, s) of ``_em_table``; the powers
    of w (of 1/w for alpha < 0) come by repeated products."""
    t = 1.0 / w if alpha < 0 else w
    powers = [1.0, t]
    for _ in range(4 * _EM_TERMS - 3):
        powers.append(powers[-1] * t)
    total = 0.0
    for k, (num, den) in enumerate(BERNOULLI_2J[:_EM_TERMS], start=1):
        p = 2 * k - 1
        h = sum(a * d(i) * powers[abs(alpha * p + i)] for i, a in _em_table(alpha, p).items())
        total = total + num / (den * math.factorial(2 * k)) * s**p * h
    return total


def _em_remainder(bounds: tuple, alpha: int, s: float, X: float) -> float:
    """A bound on the Euler-Maclaurin remainders R of runs of x together,
    for |f^(k)| <= bounds[k] = A_k, where the runs' w fill disjoint parts
    of [X, inf) for alpha < 0 (rows m >= m0: X = m0 - 1) or of (0, X] for
    alpha > 0 (blocks Q <= Q0: X = Q0 + 1).

    With p = 2K + 2, K = _EM_TERMS, |R| is at most 2|B_p|/p! times the
    integral of |h^(p)| over a run (DLMF 2.10.1).  As
    |dx| = dw / (|s| w**(alpha + 1)), that integral is at most
    |s|**(p-1) sum_i |a_i| A_i times the integral of w**(e-1) dw over the
    run's w, e = alpha (p - 1) + i; over all runs it is at most
    X**e / |e|."""
    p = 2 * _EM_TERMS + 2
    num, den = BERNOULLI_2J[_EM_TERMS]
    scale = abs(s) ** (p - 1)
    total = 0.0
    for i, a in _em_table(alpha, p).items():
        e = alpha * (p - 1) + i
        total += abs(a) * bounds[i] * scale * X**e / abs(e)
    return 2 * abs(num) / (den * math.factorial(p)) * total


def _first_em_row(bounds: tuple) -> int:
    """The least m0 >= _FIRST_EM_ROW with rho(m0) = ``_em_remainder`` at
    X = m0 - 1 at most u bounds[0], one rounding of |f|'s bound:
    _FIRST_EM_ROW for sin, cos and polynomials of low degree, later for f
    with large high derivatives.  rho falls with m0, so a doubling and a
    bisection find it."""
    def small(m0: int) -> bool:
        return _em_remainder(bounds, -2, 0.5, m0 - 1.0) <= _U * bounds[0]

    hi = _FIRST_EM_ROW
    while not small(hi):
        hi *= 2
    # small(hi) holds: _bisect returns hi when no row below it is small
    return _bisect(small, max(hi // 2 + 1, _FIRST_EM_ROW), hi - 1)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each with at most 26 significant bits (Veltkamp's
    split, for |x| < 2**995)."""
    big = x * 134217729.0
    hi = big - (big - x)
    return hi, x - hi


def _em_rows(part: Analytic, m: np.ndarray, N: np.ndarray, d0: Callable) -> np.ndarray:
    """Partials whose exact sum is within the bound of ``sequence_average``
    of the sum of f(sqrt(m*m + j) - m) over 0 <= j <= N, for the float
    arrays m >= _FIRST_EM_ROW and 0 <= N <= 2m, with the ``d`` of
    ``part.rows`` at 0 as ``d0``."""
    a = m * m + N
    s = np.sqrt(a)
    U = s - m
    # U + V = sqrt(a) - m: V = (a - s*s) / (2s), with s*s exact in two parts
    hi, lo = _split(s)
    p = s * s
    V = ((a - p) - (((hi * hi - p) + 2.0 * hi * lo) + lo * lo)) / (2.0 * s)
    dF, dG, d = part.rows(U)
    f, f1 = d(0), d(1)
    w = m + U
    small = V * (2.0 * w * f + 0.5 * f1 + V * (w * f1 + f))
    small += _em_ends(d, w, -2, 0.5) - _em_ends(d0, m, -2, 0.5)
    hi, lo = _split(dF)
    twom = 2.0 * m
    return np.concatenate(
        (twom * hi, twom * lo, 2.0 * dG, 0.5 * f, np.full(m.shape, 0.5 * d0(0)[0]), small)
    )


# ---------------------------------------------------------------------------
# example1's complete rows as one series in t = 1/(m + 1)
# ---------------------------------------------------------------------------

# The complete rows from the first Euler-Maclaurin row on, or from a later
# row where that tail needs it (_series_plan), are summed as one series in
# t = 1/(m + 1) of at most _SERIES_ORDER powers, whose tail is bounded on
# |t| <= _SERIES_RADIUS
_SERIES_ORDER = 16
_SERIES_RADIUS = 0.5

# hurwitz_zeta(k, x) is within this relative error of zeta(k, x) for
# 2 <= k <= _SERIES_ORDER and the integers 33 <= x <= 2**26 + 1 (a test
# checks it against mpmath at 120 digits; it is within 2.4 u there)
_ZETA_ERROR = 2.0**-50

# _series_matrix's float entries are within this of the exact rationals (a
# test checks each of them in Fractions; they are within 2**-54 there)
_SERIES_MATRIX_ERROR = 2.0**-52


def _series_matrix(L: int, one=1.0) -> np.ndarray:
    """The matrix C of the series of a complete row (see ``sequence_average``)
    to the power L, in the numbers of ``one`` (floats, or Fractions for a
    test): with t = 1/(m + 1), a row's Euler-Maclaurin value is
    2 (F(1) - F(0))/t + sum_{k<=L} c_k t**k + O(t**(L+1)), where c = C x for
    x = (F(1) - F(0), G(1) - G(0), f(0), f'(0), ..., f^(2K-1)(0), a_0, ...,
    a_L), a_j = f^(j)(1)/j!, K = _EM_TERMS.  Row k of C takes x's entries
    up to a_k alone, so the C of a smaller L is a leading block of it.

    With U = 1 + delta, delta = -(1 - sqrt(1 - t*t))/t, and
    F(U) - F(1) = sum_j a_j delta**(j+1)/(j + 1), G(U) - G(1) - (F(U) - F(1))
    = sum_j a_j delta**(j+2)/(j + 2), the row's 2m (F(U) - F(0)) +
    2 (G(U) - G(0)) + (f(0) + f(U))/2 less 2 (F(1) - F(0))/t is
    2 (G(1) - G(0)) - 2 (F(1) - F(0)) + f(0)/2 plus, for each a_j,
    2 delta**(j+1)/((j + 1) t) + 2 delta**(j+2)/(j + 2) + delta**j/2.  The
    Bernoulli terms at the row's end add sum_{1<=i<2K} j!/(j-i)!
    delta**(j-i) W_i for a_j, since w**(i-2p) = v**(2p-i) there with
    v = t/sqrt(1 - t*t); those at its start, where w = m = (1 - t)/t, add
    -W'_i for f^(i)(0), with y = t/(1 - t) for v.  W_i and W'_i sum
    B_2k/(2k)! 2**-p a_i v**(2p-i) and the same in y over the k <= K with
    p = 2k - 1 >= i, for the a_i of ``_em_table``.  The coefficients of
    delta, -C_(j-1)/2**(2j-1) at t**(2j-1) (Catalan numbers), of v,
    (2j)!/(j! j! 4**j) at t**(2j+1), and of y, 1, are dyadic, and so are
    their powers', all exact in floats, so those powers may come by matrix
    products, whose sums' order is free; the products with the rounded
    W_i go by elementwise passes in a fixed order, so C's bits are the
    same on every machine."""
    K = _EM_TERMS
    n = L + 2
    dtype = float if isinstance(one, float) else object

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # each row of a times the series b, to the power n - 1
        out = np.zeros(a.shape, dtype)
        for k in np.flatnonzero(b).tolist():
            out[..., k:] += a[..., : n - k] * b[k]
        return out

    def powers(coefficients: dict, top: int) -> np.ndarray:
        # the series' powers 0..top, by products with its Toeplitz matrix
        step = np.zeros((n, n), dtype)
        for k, v in coefficients.items():
            step[np.arange(n - k), np.arange(k, n)] = v
        out = [np.array([one] + [0 * one] * (n - 1), dtype)]
        for _ in range(top):
            out.append(out[-1] @ step)
        return np.array(out)

    delta, v = {}, {}
    e = g = one
    for j in range(1, n // 2 + 1):
        e = e * (2 * j - 3) / (2 * j)
        delta[2 * j - 1], v[2 * j - 1] = e, g
        g = g * (2 * j - 1) / (2 * j)
    P = powers(delta, L + 2)
    V = powers(v, 4 * K - 3)
    Y = powers({k: one for k in range(1, n)}, 4 * K - 3)
    W = np.zeros((2 * K, n), dtype)
    W0 = np.zeros((2 * K, n), dtype)
    for k, (num, den) in enumerate(BERNOULLI_2J[:K], start=1):
        p = 2 * k - 1
        beta = one * num / (den * math.factorial(2 * k)) / 2**p
        for i, a_i in _em_table(-2, p).items():
            W[i] += beta * int(a_i) * V[2 * p - i]
            W0[i] -= beta * int(a_i) * Y[2 * p - i]
    j = np.arange(L + 1)
    S = np.zeros((2 + 2 * K + L + 1, n), dtype)
    S[:3, 0] = (-2 * one, 2 * one, one / 2)
    S[3 : 2 + 2 * K] = W0[1:]
    a = S[2 + 2 * K :]
    a[:, :-1] = (2 * one / (j + 1))[:, None] * P[1 : L + 2, 1:]
    a += (2 * one / (j + 2))[:, None] * P[2 : L + 3] + P[: L + 1] / 2
    for i in range(1, 2 * K):
        perm = np.array([math.perm(m, i) for m in range(i, L + 1)])
        a[i:] += perm[:, None] * times(P[: L + 1 - i], W[i])
    return S[:, : L + 1].T


@functools.cache
def _series_rows() -> tuple:
    """The rows of ``_series_matrix(_SERIES_ORDER)`` as tuples of floats."""
    return tuple(map(tuple, _series_matrix(_SERIES_ORDER).tolist()))


@functools.cache
def _series_weights() -> tuple:
    """(rU, w0, w1, w2) such that B = disc(rU) w0 + disc(rU + 1) w1 +
    sum_i A_i w2[i] in ``_series_order``."""
    r = _SERIES_RADIUS
    s = math.sqrt(1.0 - r * r)
    rU = 1.0 + r / (1.0 + s)
    w1, w2 = 0.0, [0.0] * (2 * _EM_TERMS)
    for k, (num, den) in enumerate(BERNOULLI_2J[:_EM_TERMS], start=1):
        p = 2 * k - 1
        beta = abs(num) / (den * math.factorial(2 * k)) / 2**p
        for i, a in _em_table(-2, p).items():
            w1 += beta * abs(a) * math.factorial(i) * (r / s) ** (2 * p - i)
            w2[i] += beta * abs(a) * (r / (1.0 - r)) ** (2 * p - i)
    return rU, 2.0 / (1.0 + s) + 2.0 * rU + rU * rU + 1.0, w1, w2


def _series_order(part: Analytic, s0: int) -> Optional[int]:
    """The least L <= _SERIES_ORDER at which the series' tail T(L) over the
    rows m >= s0 is at most u A_0, one rounding of |f|'s bound, or None.

    The tail.  On |t| <= r = _SERIES_RADIUS, with s = sqrt(1 - r*r),
    |U| <= rU = 1 + r/(1 + s), |v| <= r/s and |y| <= r/(1 - r) (see
    ``_series_matrix``).  A row's value less 2 (F(1) - F(0))/t is
    2 (F(U) - F(1))/t - 2 (F(U) - F(0)) + 2 (G(U) - G(0)) +
    (f(0) + f(U))/2 and the Bernoulli terms, analytic on |t| < 1 for an
    entire f; there it is at most B = D (2/(1 + s) + 2 rU + rU**2 + 1) +
    sum_k |B_2k|/(2k)! 2**-p sum_i |a_i| (i! D1 (r/s)**(2p-i) +
    A_i (r/(1 - r))**(2p-i)), with D = disc(rU) and D1 = disc(rU + 1): the
    integrals of f and u f run along segments in |z| <= rU,
    |delta/t| = 1/|1 + sqrt(1 - t*t)| <= 1/(1 + s), and Cauchy's estimate
    on the circle of radius 1 bounds f^(i)(U) by i! D1.  So |c_k| <= B/r**k
    (Cauchy), and with sum_{m>=s0} t**k <= s0**(1-k)/(k - 1), the terms
    past t**L sum over the rows to at most T(L) = B s0 q**(L+1)/(L (1 - q)),
    q = 1/(r s0)."""
    A = part.bounds
    rU, w0, w1, w2 = _series_weights()
    try:
        B = part.disc(rU) * w0 + part.disc(rU + 1.0) * w1 + sum(map(operator.mul, A, w2))
    except OverflowError:
        return None
    q = 1.0 / (_SERIES_RADIUS * s0)
    tail = B * s0 * q * q / (1.0 - q)
    for L in range(1, _SERIES_ORDER + 1):
        if tail <= _U * A[0]:
            return L
        tail *= q * L / (L + 1)
    return None


def _series_plan(part: Analytic, first: int, M: int) -> Optional[tuple[int, int]]:
    """(s0, L): the series takes the rows s0 <= m < M to the power L
    (``_series_order``), from s0 = first, doubled while no L <=
    _SERIES_ORDER holds its tail; None where s0 reaches M."""
    s0 = first
    while s0 < M:
        L = _series_order(part, s0)
        if L is not None:
            return s0, L
        s0 *= 2
    return None


def _harmonic_gap(a: int, b: int) -> float:
    """H_b - H_a for 32 <= a <= b <= 2**26, within (1 + 3 H) 2**-52 of it
    (a test checks it against mpmath): ln(b/a) + 1/(2b) - 1/(2a) -
    sum_{j<=5} B_2j/(2j) (b**-2j - a**-2j), the small terms summed first.
    Its remainder, a difference of two of the same sign (DLMF 5.11(ii)),
    is at most |B_12|/(12 a**12) < 2**-64."""
    x, y = float(a), float(b)
    small = 0.5 / y - 0.5 / x
    for j, (num, den) in enumerate(BERNOULLI_2J[:5], start=1):
        small -= num / (2 * j * den) * (y ** (-2 * j) - x ** (-2 * j))
    return math.log(y / x) + small


@functools.lru_cache(maxsize=64)
def _zeta_row(x: int, L: int) -> tuple:
    """hurwitz_zeta(k, x) for k = 2..L, after two zeros for k = 0 and 1."""
    return (0.0, 0.0) + tuple(hurwitz_zeta(float(k), float(x)) for k in range(2, L + 1))


def _row_series(part: Analytic, d0: Callable, s0: int, L: int, M: int) -> list:
    """Partials whose exact sum is within the bound of ``sequence_average``
    of the Euler-Maclaurin values of the complete rows s0 <= m < M, as one
    series in t = 1/(m + 1) to the power L, for the ``d`` of ``part.rows``
    at 0 as ``d0``.  Over these t, sum 1/t = sum_{j=s0+1}^{M} j, an integer,
    times hi + lo = F(1) - F(0) in exact products (``_times``);
    sum 1 = M - s0; sum t = H_M - H_s0 (``_harmonic_gap``); and sum t**k =
    zeta(k, s0 + 1) - zeta(k, M + 1) (``hurwitz_zeta``), the latter left out
    from the least k from which sum |c_k| M**(1-k)/(k - 1), a bound on the
    rest, is at most u A_0."""
    (hi, lo), J, a, _ = part.at_one(L)
    x = [hi, J, *(float(d0(i)[0]) for i in range(2 * _EM_TERMS)), *a]
    c = [sum(map(operator.mul, row, x)) for row in _series_rows()[: L + 1]]
    partials = _times((M * (M + 1) - s0 * (s0 + 1)) // 2, [2.0 * hi, 2.0 * lo])
    partials += [c[0] * (M - s0), c[1] * _harmonic_gap(s0, M)]
    zeta = _zeta_row(s0 + 1, L)
    stop, rest = L + 1, 0.0
    while stop > 2:
        more = rest + abs(c[stop - 1]) * float(M) ** (2 - stop) / (stop - 2)
        if more > _U * part.bounds[0]:
            break
        stop, rest = stop - 1, more
    partials += [c[k] * (zeta[k] - hurwitz_zeta(float(k), M + 1.0)) for k in range(2, stop)]
    partials += [c[k] * zeta[k] for k in range(stop, L + 1)]
    return partials


def _row_sum(f: Callable, part: Optional[Analytic], n: int, threads: int) -> float:
    """sum of f({sqrt k}) over k <= n, rounded once, by rows (see
    ``sequence_average``): the k below m0*m0, for m0 = ``_first_em_row``,
    stream; the rows m0..s0-1 and the last row M = isqrt(n) are summed by
    ``_em_rows``, and the complete rows s0..M-1 of ``_series_plan`` by
    ``_row_series``; without a plan s0 = M, and without an analytic part
    m0 = M + 1, and every k streams."""
    M = math.isqrt(n)
    first = M + 1 if part is None else _first_em_row(part.bounds)
    plan = None if part is None else _series_plan(part, first, M)
    d0 = None if first > M else part.rows(np.zeros(1))[2]
    # the pieces: rows first..top-1, row M, then the series
    top = M if plan is None else plan[0]
    rows = max(0, top - first) + (M >= first)

    def em(a: int, b: int) -> list:
        stop = min(b, rows)
        partials = []
        if a < stop:
            m = _indices(first + a, first + stop, np.empty(stop - a))
            if stop == rows:
                m[-1] = M
            partials = exact_partials(_em_rows(part, m, np.minimum(2.0 * m, n - m * m), d0))
        if b > rows:
            partials += _row_series(part, d0, *plan, M)
        return partials

    return _mean_sum(f, PROBLEMS["example1"].points, n, [(1, min(n + 1, first * first))],
                     threads, rows + (plan is not None), em)


# ---------------------------------------------------------------------------
# example4's means by quotient blocks (Euler-Maclaurin)
# ---------------------------------------------------------------------------

# Each block's integral takes the Gauss-Legendre rule of this many nodes (see
# frac_n_over_i_mean for its error)
_GAUSS_NODES = 16

# Blocks of fewer points than about this stream: their nodes and ends would
# cost more than their points
_BLOCK_POINTS = 32


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the _GAUSS_NODES-point Gauss-Legendre rule on
    [-1, 1], each correctly rounded (a test checks them against mpmath):
    numpy's ``leggauss``, whose weights are off by up to 63 ulp, polished by
    Newton's method on the Legendre recurrence in 40-digit decimals."""
    N = _GAUSS_NODES

    def legendre(x: decimal.Decimal) -> tuple:
        # P_N(x) and P_N'(x)
        p0, p1 = decimal.Decimal(1), x
        for k in range(1, N):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, N * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    with decimal.localcontext() as context:
        context.prec = 40
        for x in map(decimal.Decimal, np.polynomial.legendre.leggauss(N)[0].tolist()):
            for _ in range(3):
                p, dp = legendre(x)
                x -= p / dp
            dp = legendre(x)[1]
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


def _last_block(bounds: tuple, n: int) -> int:
    """Q0: the largest Q <= isqrt(n // _BLOCK_POINTS) with rho(Q) =
    ``_em_remainder`` at X = Q + 1 at most u bounds[0], one rounding of
    |f|'s bound, or 0.  rho rises with Q, so a bisection finds it."""
    return _bisect(lambda Q: _em_remainder(bounds, 1, -1.0 / n, Q + 1.0) > _U * bounds[0],
                   1, math.isqrt(n // _BLOCK_POINTS)) - 1


def _times(n: int, partials: list) -> list:
    """Floats whose exact sum is n times the exact sum of ``partials``, for
    1 <= n <= 2**52: n's two halves of 26 bits times each partial's Veltkamp
    halves, products of at most 52 bits."""
    hi, lo = _split(np.array(partials))
    top, bottom = float(n >> 26 << 26), float(n & (2**26 - 1))
    return np.concatenate((top * hi, top * lo, bottom * hi, bottom * lo)).tolist()


def _em_blocks(f: Callable, part: Analytic, n: int, first: int, stop: int) -> list:
    """Partials whose exact sum is within the bound of ``frac_n_over_i_mean``
    of the sum of f({n/i}) over the blocks first <= Q < stop, the i with
    n//(Q+1) < i <= n//Q, for 1 <= first < stop <= isqrt(n); a batch of
    CHUNK // _GAUSS_NODES blocks at a time."""
    x, wx = (a[:, None] for a in _gauss_rule())
    partials = []
    for lo in range(first, stop, CHUNK // _GAUSS_NODES):
        hi = min(lo + CHUNK // _GAUSS_NODES, stop)
        q = _indices(lo, hi, np.empty(hi - lo, dtype=np.int64))
        # the points at the ends b = n//Q and a = n//(Q+1) + 1
        v = _reciprocal_frac_at(n, np.concatenate((n // q, n // (q + 1) + 1)), np.empty(2 * q.size))
        vb, va = v[: q.size], v[q.size :]
        half, mid = 0.5 * (va - vb), 0.5 * (va + vb)
        q = q.astype(float)
        nodes = mid + half * x
        y = nodes + q
        g = apply_to_array(f, nodes.ravel()).reshape(nodes.shape) / (y * y)
        _, _, d = part.rows(v)
        ends = 0.5 * d(0) + np.repeat((1.0, -1.0), q.size) * _em_ends(
            d, np.concatenate((vb + q, va + q)), 1, -1.0 / n)
        partials += _times(n, exact_partials(((half * wx) * g).ravel())) + exact_partials(ends)
    return partials


def _block_mean(f: Callable, part: Analytic, n: int, threads: int) -> float:
    """The mean of f({n/i}) over i <= n, rounded once, by quotient blocks (see
    ``frac_n_over_i_mean``): the i <= n // (Q0 + 1) stream, and the blocks
    Q = 1..Q0 are summed by ``_em_blocks``."""
    last = _last_block(part.bounds, n)
    return _mean_sum(f, PROBLEMS["example3"].points, n, [(1, n // (last + 1) + 1)], threads,
                     last, lambda a, b: _em_blocks(f, part, n, a + 1, b + 1), divisor=n)


def reciprocal_frac_map(n: int) -> Callable:
    """The map x -> {1/x} on the atoms {i/n}, in exact arithmetic.

    Recovers i = rint(n*x), for a float or an array, and returns (n mod i)/i
    rounded once.  Plain floating evaluation of {1/x} wraps just below
    integers for many i/n (for example 1/(1/93) = 92.999...), which would
    misplace atoms across the CDF jump at 0; this map keeps the push-forward
    route consistent with the modular counting route.  As for the index
    solvers, n must be in 1..2**52, the domain of the exact float remainders;
    anything else raises ValueError.
    """
    n = _check_n(n)

    def g(x):
        i = np.rint(n * np.asarray(x, dtype=float))
        if not np.all((i >= 1) & (i <= n)):
            raise ValueError(f"{x!r} is not an atom i/n for n={n}")
        y = _reciprocal_frac_at(n, i.astype(np.int64).ravel(), np.empty(i.size))
        return float(y[0]) if i.ndim == 0 else y.reshape(i.shape)

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
    within ``band(stop)`` of its exact point x_i (a zero band by default),
    and ``settle(n, i, T)`` decides x_i <= T exactly for a Fraction T.
    Without a settle rule the float points are the points.

    ``counts`` takes a count rule, or the stream.  A problem that counts
    faster than its stream names its rule: ``count_rule(problem, ns, ts,
    threads)``, one call for a whole sweep, returns the int64 counts at the
    indices ``ns`` and the thresholds ``ts`` in the form of ``counts``, as
    an array of shape ``(len(ns), len(ts))``, and gives the streamed counts.
    Every problem in ``PROBLEMS`` names one; without one the n points of
    each n are streamed, and ``dataclasses.replace(problem,
    count_rule=None)``, the oracle of a rule, streams.
    """

    points: Callable[[int, int, int], np.ndarray]
    limit: Callable[[], SmoothCdf]
    band: Callable[[int], float] = lambda stop: 0.0
    settle: Optional[Callable[[int, int, Fraction], bool]] = None
    count_rule: Optional[Callable[[Problem, tuple, tuple, int], np.ndarray]] = None

    def counts(self, ns: Sequence, ts: Sequence, threads: int = 1) -> np.ndarray:
        """#{i in 1..n : x_i <= t} for each index n in ``ns`` (a row) and
        threshold t in ``ts`` (a column), as int64, by one call of the
        problem's count rule, or else by ``_stream`` over 1..n for each n.
        Each t takes one exact form: an integer (a numpy one too) becomes an
        int, another rational stays as it is, any other real becomes its
        float.  An n that is not an index (``_check_n``) or a NaN threshold
        raises ValueError before either runs."""
        ns = tuple(_check_n(n) for n in ns)
        ts = tuple(int(t) if isinstance(t, numbers.Integral) else
                   t if isinstance(t, numbers.Rational) else float(t) for t in ts)
        if any(isinstance(t, float) and math.isnan(t) for t in ts):
            raise ValueError("t must be a number, got nan")
        if not ns:
            return np.zeros((0, len(ts)), dtype=np.int64)
        if self.count_rule:
            return self.count_rule(self, ns, ts, threads)
        return np.array([self._stream(n, ts, 1, n + 1, threads) for n in ns], dtype=np.int64)

    def count(self, n: int, ts: Sequence, threads: int = 1) -> np.ndarray:
        """The counts of ``counts`` at the one index n."""
        return self.counts((n,), ts, threads)[0]

    def _stream(self, n: int, ts: tuple, lo: int, hi: int, threads: int) -> np.ndarray:
        """#{i in [lo, hi) : x_i <= t} for each t in ``ts``, as int64, for
        lo < hi.  The points are computed ``CHUNK // T`` at a time, for the
        T thresholds, into the thread's workspace and decided against every
        threshold at once, in one (threshold x point) compare: without a
        settle rule, x <= float(t).  With one, a point below tf - w is <= t
        and one above tf + w is not, for the band w = ``band(stop)`` around
        tf = float(t); a point in between is settled against T = Fraction(t),
        built only when such a point occurs.
        A non-finite point raises ValueError."""
        T = len(ts)
        if not T:
            return np.zeros(0, dtype=np.int64)
        tf = np.array([float(t) for t in ts])[:, None]

        def chunk(a: int, b: int) -> np.ndarray:
            m = b - a
            with workspace() as ws:
                x = self.points(n, a, b, out=ws.f[0][:m])
                if not np.isfinite(x, out=ws.mask[:m]).all():
                    raise ValueError("points must be finite")
                w = self.band(b)
                # the points and the band's ends as arrays of one shape:
                # numpy buffers a compare that broadcasts at these sizes
                X, E = (f[: T * m].reshape(T, m) for f in ws.f[1:])
                np.copyto(X, x)
                np.copyto(E, tf + w)
                le = np.less_equal(X, E, out=ws.mask[: T * m].reshape(T, m))
                tally = np.fromiter(map(np.count_nonzero, le), np.int64, T)
                if not self.settle:
                    return tally
                if w:
                    np.copyto(E, tf - w)
                below = np.less(X, E, out=le)
                if np.count_nonzero(below) == tally.sum():
                    return tally
                below = np.fromiter(map(np.count_nonzero, below), np.int64, T)
                # the band's points, one threshold at a time, in X's memory
                inside, above = ws.f[1].view(np.bool_)[:m], ws.f[1].view(np.bool_)[m : 2 * m]
                for j in np.flatnonzero(below < tally).tolist():
                    tj = float(tf[j, 0])
                    np.less_equal(x, tj + w, out=inside)
                    band = np.logical_and(inside, np.greater_equal(x, tj - w, out=above), out=inside)
                    T_j = Fraction(ts[j])
                    tally[j] -= sum(not self.settle(n, a + i, T_j) for i in np.flatnonzero(band).tolist())
            return tally

        return map_reduce_int(chunk, lo, hi, threads=threads, chunk=max(1, CHUNK // T))


def _floor_sum(N: int, m: int, a: int, b: int) -> int:
    """sum_{i<N} floor((a*i + b)/m) for the integers N, a, b >= 0 and m >= 1,
    in O(log m) steps of Python ints (Graham, Knuth and Patashnik, Concrete
    Mathematics, 3.5; the AtCoder Library's ``floor_sum``).

    The whole parts of a/m and b/m add up in closed form.  What is left, with
    a, b < m, counts the lattice points under the line y = (a*x + b)/m for
    0 <= x < N, and read with the axes swapped that count is the floor sum
    with m and a exchanged, as in Euclid's algorithm.
    """
    total = 0
    while True:
        if a >= m:
            total += N * (N - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += N * (b // m)
            b %= m
        top = a * N + b
        if top < m:
            return total
        N, b = divmod(top, m)
        m, a = a, m


def _sqrt_frac_count(problem: Problem, ns: tuple, ts: tuple, threads: int) -> np.ndarray:
    """example1's count rule: #{1 <= k <= n : {sqrt k} <= T}, exactly, for
    each n in ``ns`` and t in ``ts``, as int64, for T = Fraction(t).

    With m = isqrt(k) and j = k - m*m, {sqrt k} = sqrt(k) - m <= T for T >= 0
    exactly when j <= 2mT + T*T (the ``settle`` rule).  Block m holds the k
    from m*m to m*m + 2m; for 0 <= T < 1, 2mT + T*T < 2m + 1, so
    floor(2mT + T*T) + 1 of them are <= T.  With T = p/q and M = isqrt(n),
    the blocks 1..M-1 are whole and block M ends at n, so the count is

        sum_{m=1}^{M-1} (floor((2pq*m + p*p) / (q*q)) + 1)
            + min(n - M*M, floor((2pq*M + p*p) / (q*q))) + 1,

    where the sum of floors is ``_floor_sum(M - 1, q*q, 2pq, 2pq + p*p)``.
    T < 0 holds no point and T >= 1 all n, so t may be clipped to [-1, 1]
    first, which keeps an infinite one from Fraction.
    """
    counts = np.empty((len(ns), len(ts)), dtype=np.int64)
    for j, t in enumerate(ts):
        T = Fraction(min(max(t, -1), 1))
        if not 0 <= T < 1:
            counts[:, j] = [0 if T < 0 else n for n in ns]
            continue
        p, q = T.numerator, T.denominator
        a, qq, pp = 2 * p * q, q * q, p * p
        for i, n in enumerate(ns):
            M = math.isqrt(n)
            counts[i, j] = _floor_sum(M - 1, qq, a, a + pp) + M + min(n - M * M, (a * M + pp) // qq)
    return counts


# A block's boundary ceil(y) is taken from the float guess y where no integer
# lies within y * _BOUNDARY_MARGIN of it (see _reciprocal_frac_count)
_BOUNDARY_MARGIN = 2.0**-50


def _reciprocal_frac_count(problem: Problem, ns: tuple, ts: tuple, threads: int) -> np.ndarray:
    """example3's count rule: #{1 <= i <= n : {n/i} <= T} for each n in
    ``ns`` and t in ``ts``, as int64, for T = Fraction(t), in O(sqrt n) per
    threshold.  The stream decides the same exact points: each {n/i} is
    correctly rounded and rounding is monotone, so a point below float(t)
    is below T, one above it is above T, and one equal to it is settled
    against T.

    Every point is in [0, 1), so T < 0 counts none and T >= 1 all n.  For
    0 <= T < 1, indices up to s = isqrt(n) are streamed.  Above s the
    quotient Q = n//i takes the values 1..n//(s+1): block Q holds the i in
    (n//(Q+1), n//Q], and these blocks cover s < i <= n, as n//(Q+1) >= s
    for every such Q.  (With n = (s+1)q + r, 0 <= r <= s and Q <= q, that
    needs s <= q + r: q >= s - 1 as n >= s*s, and q = s - 1 forces r >= 1.)
    On block Q, {n/i} = n/i - Q falls, and is <= T exactly for
    i >= n/(Q+T), so the block holds n//Q + 1 - ceil(n/(Q+T)) points <= T;
    n/(Q+1) < n/(Q+T) <= n/Q puts ceil(n/(Q+T)) in the block or just past it.

    The boundary.  With tau = fl(T), the guess is y = fl(n / fl(Q + tau)).
    tau is within T 2**-53 of T (within 2**-1075 where it is subnormal), so
    Q + tau is within (Q + T) 2**-53 of Q + T, and each of the two roundings
    adds a relative error of at most 2**-53: y is within about 3 y 2**-53 <
    y 2**-51 of x = n/(Q+T).  The float ends y - y * 2**-50 and
    y + y * 2**-50 (``_BOUNDARY_MARGIN``; y * 2**-50 is exact) move by at
    most half an ulp of y, y 2**-53, when rounded, so they still enclose
    both x and y.  Where no integer lies between them, that is where
    floor(y + y * 2**-50) < y - y * 2**-50, no integer lies between x and y
    either, and ceil(x) = ceil(y) = floor(y + y * 2**-50) + 1: no point is
    evaluated.  Elsewhere, at a tie such as t = 1/2 at n = 720720 or a y
    within y 2**-50 of an integer, the boundary is ceil(n d / (Q d + p)) for
    T = p/d, in Python ints.

    The T thresholds in [0, 1) go together: blocks go ``CHUNK // T`` at a
    time through ``map_reduce_int``, each chunk as (threshold x block)
    arrays in the thread's workspaces, so memory is O(CHUNK) at any n.
    """
    counts = np.zeros((len(ns), len(ts)), dtype=np.int64)
    counts[:, [t >= 1 for t in ts]] = np.array(ns, dtype=np.int64)[:, None]
    cols = [j for j, t in enumerate(ts) if 0 <= t < 1]
    if not cols:
        return counts
    inside = tuple(ts[j] for j in cols)
    tau = np.array([float(t) for t in inside])[:, None]
    ratios = [Fraction(t).as_integer_ratio() for t in inside]
    width = max(1, CHUNK // len(cols))

    for row, n in enumerate(ns):
        s = math.isqrt(n)

        def chunk(a: int, b: int) -> np.ndarray:
            R = b - a
            size = R * len(cols)
            # block numbers, as ints and floats, and their last indices n//Q;
            # the guesses y, y * margin and floor(y + y * margin), then the
            # boundaries less one
            with workspace(R) as wb, workspace(size) as wc:
                q = _indices(a, b, wb.f[0][:R].view(np.int64))
                tops = int(np.floor_divide(n, q, out=wb.f[1][:R].view(np.int64)).sum())
                y, d, top = (f[:size].reshape(-1, R) for f in wc.f)
                np.add(_indices(a, b, wb.f[2][:R]), tau, out=y)
                np.divide(n, y, out=y)
                np.multiply(y, _BOUNDARY_MARGIN, out=d)
                np.floor(np.add(y, d, out=top), out=top)
                near = np.greater_equal(top, np.subtract(y, d, out=d), out=wc.mask[:size].reshape(-1, R))
                c = d.view(np.int64)
                np.copyto(c, top, casting="unsafe")
                if near.any():
                    for j, r in zip(*np.nonzero(near)):
                        p, den = ratios[j]
                        c[j, r] = -(-n * den // ((a + int(r)) * den + p)) - 1
                return tops - c.sum(axis=1)

        blocks = map_reduce_int(chunk, 1, n // (s + 1) + 1, threads=threads, chunk=width)
        counts[row, cols] = problem._stream(n, inside, 1, s + 1, threads) + blocks
    return counts


# The stated bounds of example2's count rule, each checked against mpmath by
# a test: np.sin is within _SIN_ERROR of sin at the stream's arguments in
# [0, 2*pi), and np.arcsin(L) / fl(2*pi) within a quarter of _ALPHA_SLACK of
# asin(L) / (2*pi) for -1 <= L <= 1.
_SIN_ERROR = 2.0**-40
_ALPHA_SLACK = 2.0**-40

# np.sin is within _SIN_FLOOR_ERROR of sin at the arguments within 2**-19 of
# 3*pi/2 (a test checks it against mpmath), so a point equal to -1.0 has its
# u within _FLOOR_WINDOW plus the point's error of 3/4 (see _sin_count)
_SIN_FLOOR_ERROR = 2.0**-50
_FLOOR_WINDOW = 2.0**-24.5 / (2.0 * math.pi) * (1.0 + 2.0**-20)


def _row_edge(twom, c, top: int, bound, out: np.ndarray, down: bool) -> np.ndarray:
    """For rows m <= ``top`` (``twom`` = 2m) and ends c, into ``out``: with
    ``down``, floor(g(c) + 1 - slack) within [0, bound], below which every
    j has u_j <= c; else ceil(g(c) + slack), at most ``bound``, from which
    on every j has u_j >= c.  g(c) = c (2m + c) is computed in floats and
    the slack is 2**-49 (top + 1) (see ``_sin_count``)."""
    slack = 2.0**-49 * (top + 1)
    g = np.multiply(np.add(twom, c, out=out), c, out=out)
    if down:
        np.floor(np.add(g, 1.0 - slack, out=g), out=g)
        return np.maximum(np.minimum(g, bound, out=g), 0.0, out=g)
    return np.minimum(np.ceil(np.add(g, slack, out=g), out=g), bound, out=g)


def _sin_count(problem: Problem, ns: tuple, ts: tuple, threads: int, first_row: int = 1) -> np.ndarray:
    """example2's count rule: #{k <= n : s_k <= float(t)} for the stream's
    points s_k = np.sin(fl(fl(sqrt k) - m) * fl(2*pi)), m = isqrt(k), for
    each n in ``ns`` and t in ``ts``, as int64; over the k >= first_row**2
    alone when ``first_row``, at most isqrt(n) for every n, is given.  It
    counts by rows and evaluates only the points that rounding could put on
    either side of t.

    Row m holds k = m*m + j for 0 <= j <= J = min(2m, n - m*m).  The exact
    point u_j = sqrt(m*m + j) - m rises with j, and for c >= 0, u_j <= c
    exactly when j <= g(c) = 2mc + c*c.

    The error bound.  fl(sqrt k) is within (m + 1) 2**-53 of sqrt k and its
    floor is m (``_sqrt_frac``), so x = fl(sqrt k) - m, in [0, 1), is u_j
    within as much.  fl(2*pi) and the product each add a relative error of
    at most 2**-53, so fl(x * fl(2*pi)) is within 2*pi (m + 4) 2**-53 of
    2*pi*u_j, and for m >= 1 that is at most (m + 2) 2**-49 - 2**-50.  sin is
    1-Lipschitz and np.sin is within _SIN_ERROR of sin, so s_k is within
    E_m = 2**-49 (m + 2) + _SIN_ERROR of sin(2*pi*u_j), with 2**-50 to
    spare, which covers the rounding of t - E_m and t + E_m.

    The level sets.  For -1 <= L <= 1 and a = asin(L) / (2*pi), in
    [-1/4, 1/4], {u in [0, 1) : sin(2*pi*u) <= L} is
    A(L) = ([0, a] u [1/2 - a, 1 + a]) n [0, 1).  A point with u_j in
    A(t - E_m) has s_k <= t and is counted unevaluated; one outside
    A(t + E_m) has s_k > t and is left out.  A level outside [-1, 1] is
    clipped into it, which keeps A(t + E_m) a superset; the one point of
    A(-1) goes with the slack below.  Only the j in between are evaluated,
    by the stream's kernel, and compared with float(t).

    The rounding.  The ends of A(t - E_m) move in by _ALPHA_SLACK and those
    of A(t + E_m) out by as much, which covers the error of np.arcsin and
    of the float sums that form the ends c.  Then g(c) = c (2m + c) is
    computed with two roundings, within |g| 2**-52 (1 + 2**-52) of the
    exact value; for |c| < 1.3, that and the rounding of g + 1 - slack or
    g + slack stay below the slack 2**-49 (m + 1), so every j below
    floor(g + 1 - slack) has u_j <= c and every j from ceil(g + slack) on
    has u_j >= c (``_row_edge``).  The slack scales with g, which reaches
    2**28 at n = 2**52.  A chunk of rows takes E_m and the slack of its
    last row, the largest.

    So along a row j falls, in order, into [0, e1] (in), the gap W1,
    [s2, e2] (out), W2, [s3, e3] (in), W3 and [s4, J] (out): the j of
    [0, a], (b, 1/2 - b), [1/2 - a, 1 + a] and (1 + b, 1), for the a of
    t - E_m and the b of t + E_m, with their ends moved and rounded
    inwards; an interval is empty where its ends cross.  Each gap starts
    after the last end before it, so the gaps do not overlap where an
    interval is empty, near u = 1/4 and 3/4.  Typically no row has a gap
    point; a tie such as t = 0 has one in each row.

    The levels outside [-1, 1).  np.sin of a finite float lies in [-1, 1]
    (a test checks it at the stream's arguments), so every s_k is at most
    a t >= 1 and above a t < -1: these thresholds count all the points and
    none, with no row visited.  t = -1 goes by rows, as an s_k can equal
    -1.0.

    The level -1.  Only the points equal to -1.0 count there.  np.sin is
    within _SIN_FLOOR_ERROR = 2**-50 of sin at the arguments x within 2**-19
    of 3*pi/2, and at the others in [0, 2*pi) 1 + sin x is at least
    2 sin(2**-20)**2 > _SIN_ERROR; so np.sin(x) = -1.0 only where
    1 + sin x = 2 sin((x - 3*pi/2)/2)**2 <= 2**-50, within 2**-24.5
    (1 + 2**-50) of 3*pi/2.  The argument is within 2*pi (m + 4) 2**-53 of
    2*pi*u_j, so a point equal to -1.0 has |u_j - 3/4| below
    C_m = _FLOOR_WINDOW + (m + 4) 2**-53, and C_m - 1/4 stands for the b of
    t + E_m, much nearer -1/4: the gaps W2 and W3 then hold only the j with
    u_j within C_m (and the slack) of 3/4, those within about 1.4e-8 m of
    g(3/4), in place of about 2m sqrt(2 E_m)/pi.

    One pass for the whole n-list.  Row m is the same whole row, j from 0
    to 2m, for every n with M = isqrt(n) > m, so the rows first_row..max M
    are walked once and each row's count is kept per threshold; n takes the
    sum of the rows below its M, a prefix sum, and its last row M cut at
    J = n - M*M, counted as one more row of the same chunk.  The rows go
    ``CHUNK // T - len(ns)`` at a time, for the T thresholds in [-1, 1),
    through ``map_reduce_int``, each chunk, with the last rows in it, as
    (threshold x row) arrays in the thread's workspaces, and the gap points
    one offset from the gap's start at a time, for all the chunk's gaps at
    once, so memory is O(CHUNK) at any n.
    """
    tf = np.array([float(t) for t in ts])
    counts = np.zeros((len(ns), tf.size), dtype=np.int64)
    counts[:, tf >= 1.0] = np.array([[n - first_row * first_row + 1] for n in ns])
    rows = (tf >= -1.0) & (tf < 1.0)
    tf = tf[rows]
    floor = tf == -1.0
    T = tf.size
    if not T:
        return counts
    # each n's last row M
    top = [math.isqrt(n) for n in ns]

    def chunk(a: int, b: int) -> np.ndarray:
        R = b - a
        # the rows a..b-1, whole, then the last rows in [a, b), cut at J
        cut = [i for i, M in enumerate(top) if a <= M < b]
        W = R + len(cut)
        # E_m of the last row, m = b - 1
        E = 2.0**-49 * (b + 1) + _SIN_ERROR
        lo, hi = (np.arcsin(np.clip(tf[:, None] + d, -1.0, 1.0)) / (2.0 * math.pi) for d in (-E, E))
        # at t = -1 a point equal to -1.0 lies within C_m of u = 3/4
        hi[floor] = np.minimum(hi[floor], _FLOOR_WINDOW + 2.0**-53 * (b + 3) - 0.25)
        s = _ALPHA_SLACK
        with workspace(W) as wr, workspace(W * T) as wc, workspace(W * T) as wt:
            m = wr.f[0][:W]
            _indices(a, b, m[:R])
            m[R:] = [top[i] for i in cut]
            msq = np.multiply(m, m, out=wr.f[2][:W])
            twom = np.multiply(m, 2.0, out=m)
            # J + 1 points in each row: 2m + 1 in a whole one
            J1 = wr.f[1][:W]
            np.add(twom[:R], 1.0, out=J1[:R])
            J1[R:] = [ns[i] - top[i] * top[i] + 1 for i in cut]
            A, B, C = (f[: W * T].reshape(T, W) for f in wc.f)
            gap = wc.mask[: W * T].reshape(T, W)
            tally = wt.f[0][: W * T].reshape(T, W)

            def evaluate(first: np.ndarray, stop: np.ndarray) -> None:
                # the gap points first <= j < stop, one offset j - first at
                # a time: k = m*m + j for each cell with j < stop left
                left = np.subtract(stop, first, out=C)
                k = np.add(first, msq, out=first)
                while np.greater(left, 0.0, out=gap).any():
                    count = np.count_nonzero(gap)
                    with workspace(count) as wk, workspace(W * T) as wy:
                        x = np.compress(gap.ravel(), k.ravel(), out=wk.f[0][:count])
                        y = wy.f[0][: W * T].reshape(T, W)
                        np.place(y, gap, _sin_2pi_sqrt_frac(x, wk.f[2][:count], wk))
                        le = np.less_equal(y, tf[:, None], out=wy.mask[: W * T].reshape(T, W))
                        np.add(tally, 1.0, out=tally, where=np.logical_and(le, gap, out=le))
                    k += 1.0
                    left -= 1.0

            def end(c: np.ndarray, out: np.ndarray) -> np.ndarray:
                return _row_edge(twom, c, b - 1, J1, out, True)

            def start(c: np.ndarray, out: np.ndarray) -> np.ndarray:
                return _row_edge(twom, c, b - 1, J1, out, False)

            # along each row: in, W1, out, W2, in, W3, out
            np.copyto(tally, end(lo - s, A))  # in: j < A
            evaluate(A, start(hi + s, B))  # W1 = [A, B); out from B
            np.maximum(end(0.5 - hi - s, A), B, out=A)  # out ends before A
            evaluate(A, start(0.5 - lo + s, B))  # W2 = [A, B); in from B
            end(1.0 + lo - s, A)  # in: B <= j < A
            tally += np.maximum(np.subtract(A, B, out=C), 0.0, out=C)
            evaluate(np.maximum(A, B, out=A), start(1.0 + hi + s, B))  # W3; out from B
            # each n takes the k whole rows of the chunk below its last row,
            # summed between the distinct k > 0, and that last row cut
            ks = [min(max(M - a, 0), R) for M in top]
            ends = sorted(set(ks) - {0})
            out = np.zeros((len(ks), T))
            if ends:
                whole = np.add.reduceat(tally[:, : ends[-1]], [0] + ends[:-1], axis=1).cumsum(axis=1)
                at = {k: j for j, k in enumerate(ends)}
                for i, k in enumerate(ks):
                    if k:
                        out[i] = whole[:, at[k]]
            for i, last_row in zip(cut, tally[:, R:].T):
                out[i] += last_row
        return out.astype(np.int64)

    # a chunk's rows and the last rows in it fill at most CHUNK cells
    width = max(1, CHUNK // T - len(ns))
    counts[:, rows] = map_reduce_int(chunk, first_row, max(top) + 1, threads=threads, chunk=width)
    return counts


def _uniform_count(problem: Problem, ns: tuple, ts: tuple, threads: int) -> np.ndarray:
    """canonical-uniform's count rule: #{1 <= i <= n : fl(i/n) <= float(t)}
    for each n in ``ns`` and t in ``ts``, as int64.  fl(i/n) rises with i,
    so the count is floor(n*t') for the t' up to which values round to at
    most t, and n*(t' - t) <= n*ulp(t)/2 <= t/2; fl(n*tau), for tau =
    float(t) clipped to [0, 1], is within t/2 of n*t, so its floor is
    within one of the count, and one compare steps it there."""
    counts = np.empty((len(ns), len(ts)), dtype=np.int64)
    for j, t in enumerate(ts):
        tf = float(t)
        tau = min(max(tf, 0.0), 1.0)
        for i, n in enumerate(ns):
            c = math.floor(tau * n)
            while c < n and (c + 1) / n <= tf:
                c += 1
            while c > 0 and c / n > tf:
                c -= 1
            counts[i, j] = c
    return counts


# sweep name -> problem; streams call the kernels through module globals, so
# rebinding a kernel on this module takes effect
PROBLEMS = {
    # uniform weights on {i/n : 1 <= i <= n}, counted on these float points
    "canonical-uniform": Problem(
        lambda n, a, b, out=None: _uniform_chunk(n, a, b, out=out),
        uniform_cdf,
        count_rule=_uniform_count,
    ),
    # uniform weights on the fractional parts of sqrt(k), k <= n, counted by
    # a floor sum; on the stream, the rounded sqrt(k) less the exact isqrt(k)
    # is within half the float spacing at sqrt(k), and {sqrt k} <= T exactly
    # when k <= (isqrt(k) + T)**2
    "example1": Problem(
        lambda n, a, b, out=None: _sqrt_frac_chunk(a, b, out=out),
        uniform_cdf,
        band=lambda stop: np.spacing(math.sqrt(stop)),
        settle=lambda n, k, T: k <= (math.isqrt(k) + T) ** 2,
        count_rule=_sqrt_frac_count,
    ),
    # uniform weights on sin(2*pi*{sqrt k}), k <= n; counted on these float
    # points by rows, evaluating only those that rounding could move across t
    "example2": Problem(
        lambda n, a, b, out=None: _sin_2pi_sqrt_frac_chunk(a, b, out=out),
        arcsin_cdf,
        count_rule=_sin_count,
    ),
    # uniform weights on {n/i} = (n mod i)/i, i <= n: each point is correctly
    # rounded and rounding is monotone, so only a point equal to float(T) can
    # be on the other side of T, where (n mod i) <= T*i decides
    "example3": Problem(
        lambda n, a, b, out=None: _reciprocal_frac_chunk(n, a, b, out=out),
        frac_limit_smooth_cdf,
        settle=lambda n, i, T: n % i <= T * i,
        count_rule=_reciprocal_frac_count,
    ),
}


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def sqrt_frac_cdf(n: int, t: Union[float, Fraction]) -> float:
    """Exact proportion of k <= n with {sqrt k} <= t, for float or rational t."""
    n = _check_n(n)
    return int(PROBLEMS["example1"].count(n, (t,))[0]) / n


def sequence_average(
    n: int, f: Callable, threads: int = 1, tol: float = 1e-10
) -> SolveResult:
    """Mean of f({sqrt k}) for k <= n, against the uniform-law integral.

    A plain callable streams: the sum of f over the rounded points, rounded
    once, over n.  A callable with an ``analytic`` part (``Analytic``: an f
    from ``resolve_function``) is summed by rows: the
    complete rows as one series, in O(1), the last row by Euler-Maclaurin;
    the sum is rounded once, then divided by n.

    The rows.  Row m holds k = m*m + j for 0 <= j <= N, with N = 2m, or
    n - M*M in the last row M = isqrt(n); its points are u_j =
    sqrt(m*m + j) - m.  Rows below m0 go through the stream's kernel, where
    m0 (``_first_em_row``) is the least row from _FIRST_EM_ROW = 32 on at
    which the remainder bound rho below (``_em_remainder``) is at most
    u A_0: 32 for sin, cos, id, const1 and polynomials of low degree, later
    for f with large high derivatives.  Each other row's sum is taken by
    Euler-Maclaurin (DLMF 2.10.1) for h(x) = f(sqrt(m*m + x) - m), with
    K = _EM_TERMS:

        sum_{j=0}^{N} h(j) = I + (f(0) + f(U))/2
            + sum_{k=1}^{K} B_2k/(2k)! (h^(2k-1)(N) - h^(2k-1)(0)) + R,

    where U = sqrt(m*m + N) - m <= 1 and, with x = (m + u)**2 - m*m,
    I = 2m (F(U) - F(0)) + 2 (G(U) - G(0)).  h^(p) is 2**-p times a sum
    of a_i f^(i)(u) w**(i-2p), w = m + u, for the integers a_i of
    ``_em_table`` with alpha = -2 (d/dx = (1/(2w)) d/du), and
    |R| <= 2|B_2K+2|/(2K+2)! times the integral of |h^(2K+2)| over [0, N].
    The complete rows s0 <= m < M go as one series (``_row_series``), and
    the rows m0..s0-1 and the last row M one by one (``_em_rows``); s0 is
    m0 for the named f (``_series_plan``).

    The rows one by one (``_em_rows``).  m*m + N < 2**53 is exact, so
    s = fl(sqrt(m*m + N)) and U0 = s - m are, the difference by Sterbenz's
    lemma; V = (m*m + N - s*s)/(2s), with s*s in two exact parts (Dekker),
    puts U0 + V within 3u*u(m + 1) of U, for u = 2**-53.  The partials of a
    row are 2m (F(U0) - F(0)) as two exact products (Veltkamp's halves of
    26 bits), 2 (G(U0) - G(0)), f(0)/2, f(U0)/2, and a small one: the Taylor
    step of I + f(U)/2 from U0 by V, to second order, and the Bernoulli
    terms at U0 (``_em_ends``).

    The series.  For a complete row, t = 1/(m + 1) gives m = 1/t - 1,
    U = 1 - (1 - sqrt(1 - t*t))/t, and the ends w = sqrt(1 - t*t)/t and
    w = (1 - t)/t, so the row's value less R is analytic in t:
    c_{-1}/t + sum_{k=0}^{L} c_k t**k + a tail, with c_{-1} =
    2 (F(1) - F(0)) and c = C x (``_series_matrix``, built once) for
    x = (F(1) - F(0), G(1) - G(0), f^(i)(0) for i < 2K, and f's Taylor
    coefficients a_j at 1 from ``Analytic.at_one``).  Over the t of the
    rows s0..M-1, sum 1/t = sum_{j=s0+1}^{M} j is an integer, sum 1 =
    M - s0, sum t = H_M - H_s0 (``_harmonic_gap``) and sum t**k =
    zeta(k, s0 + 1) - zeta(k, M + 1) (``hurwitz_zeta``, DLMF 25.11); the
    zeta(k, s0 + 1) are kept, and the zeta(k, M + 1) are left out from the
    first k from which D = sum_k |c_k| M**(1-k)/(k - 1), a bound on the
    rest, is at most u A_0.  L is the least order at which T, a Cauchy
    majorant of the tail from ``Analytic.disc`` on |t| <= 1/2
    (``_series_order``), is at most u A_0: 14 for sin, cos and the
    polynomials of low degree from s0 = 32.  So the series costs a few
    hundred float operations, the kept zeta values and a few hurwitz_zeta
    calls, and the mean the same at any n.  The streamed points' partials,
    the rows' and the series' go through one ``_mean_sum``, so no thread
    count changes a bit.

    The bound.  Take e_f, e_d, e_F, e_G and A_k of the analytic part,
    A = max A_k, and m <= M <= 2**26, so that |V| <= u (m + 1) and
    2u (m + 1)**2 < 1.01.
    - A streamed point fl(sqrt k) - m is within u m0 of u_k, so each of the
      min(n, m0*m0 - 1) streamed values is within e_f + u m0 A_1 of f(u_k).
    - A row by ``_em_rows``: its first four partials are within
      2m e_F + 2 e_G + e_d of theirs at U0.  The small partial is off by at
      most 2 e_d (its f(U0) and f'(U0), times at most 2(m + 1)|V| and |V|)
      plus 16 u A: its nine roundings on a value below 1.01 A, the error of
      V (6u*u(m + 1)**2 A), the Taylor terms left out, and the Bernoulli
      terms (below A/(12m) each, with their shift from U to U0) stay below
      that.
    - Summed over m >= m0, R is at most rho = 2|B_p|/p! 2**(1-p) times
      sum_i |a_i| A_i (m0 - 1)**(i+2-2p) / (2p-2-i), for p = 2K + 2 and
      the a_i of h^(p) (``_em_remainder`` with X = m0 - 1): the rows' w
      lie in [m0, inf).  m0 makes rho at most u A_0.
    - The series.  x's entries are within e_x: u|v|/2 + 2**-116 for each
      v of hi and J (``at_one``), e_d for the f^(i)(0), e_j for a_j.  C's
      entries are within 2**-52 of the exact rationals
      (_SERIES_MATRIX_ERROR), and each c_k is a sum of at most 25 rounded
      products, left to right, so it is within ce_k = sum_j |C_kj|
      (e_x_j + gamma(25)|x_j|) + 2**-52 (|x_j| + e_x_j) of the exact
      coefficient.  hi + lo is within u|lo| + 2**-116 of F(1) - F(0), and
      S1 = sum_{j=s0+1}^{M} j times 2 hi and 2 lo is exact (``_times``).
      H = H_M - H_s0 is within e_H = (1 + 3H) 2**-52, and each zeta value
      within _ZETA_ERROR = 2**-50 relative.  So the series is within
      E_t = T + D + 2 S1 (u|lo| + 2**-116) + (M - s0)(ce_0 + u|c_0|/2)
      + (ce_1 + u|c_1|/2) H + |c_1| e_H + sum_{k>=2} ((ce_k + u|c_k|)
      zeta(k, s0 + 1) + 2**-50 |c_k| (zeta(k, s0 + 1) + zeta(k, M + 1)))
      of the rows' values less R; T and D are at most u A_0 each.
    - Rounding the sum, then dividing by n, add 2**-52 (1 + 2**-52)|mean|.
    So the mean is within 2**-52 (1 + 2**-52)|mean| + (E_s + E_r + E_t)/n
    of the exact mean of f(u_k), with E_s = min(n, m0*m0 - 1)(e_f +
    u m0 A_1) and E_r = rho + sum_m (2m e_F + 2 e_G + 3 e_d + 16 u A) over
    the rows of ``_em_rows``.  For the named f only the last row goes
    one by one, so at large n the bound is the final rounding, about 1 ulp
    of the mean, and a little more; the all-rows route, kept as the
    tests' oracle, summed 2m e_F over every row, 22 ulp for sin at large n.
    It is not rounded through ``round_once``: the partials' errors fix the
    bound's width, and no number of digits would narrow an enclosure that
    straddles a rounding boundary.
    """
    n = _check_n(n)
    empirical = _row_sum(f, getattr(f, "analytic", None), n, threads) / n
    closed = integrate_smooth(f, PROBLEMS["example1"].limit(), tol=tol).value
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


def _divisor_sum(n: int, threads: int = 1) -> int:
    """D(n) = sum of floor(n/i) over i <= n, exactly, in O(sqrt n), by the
    hyperbola identity D(n) = 2 sum_{i<=s} floor(n/i) - s*s, s = isqrt(n)."""
    s = math.isqrt(n)

    def kernel(a: int, b: int) -> int:
        with workspace(b - a) as ws:
            i = _indices(a, b, ws.f[0][: b - a].view(np.int64))
            return int(np.floor_divide(n, i, out=i).sum())

    return 2 * map_reduce_int(kernel, 1, s + 1, threads=threads) - s * s


def frac_n_over_i_mean(
    n: int,
    f: Optional[Callable] = None,
    threads: int = 1,
    tol: float = 1e-9,
) -> SolveResult:
    """Mean of f({n/i}) for i <= n; f omitted means the identity.

    With f, the closed form is the quadrature of f against the limit CDF's
    density.  A plain callable streams: each {n/i} is the exact remainder
    (n mod i)/i converted once to float, and the sum of f over them is
    rounded once, then divided by n.  A callable with an ``analytic`` part
    (``Analytic``: an f from ``resolve_function``) is summed by
    quotient blocks, streaming about n**(8/15) points, and the exact sum of
    the partials is divided by n and rounded once.

    The blocks.  Block Q holds the i with n//i = Q, from a = n//(Q+1) + 1
    to b = n//Q; there {n/i} = v = n/i - Q, so f({n/i}) = h(i) for
    h(x) = f(n/x - Q), with w = n/x = v + Q.  The i <= H = n//(Q0 + 1)
    stream through the stream's kernel; each block Q <= Q0 is summed by
    Euler-Maclaurin (DLMF 2.10.1) with K = _EM_TERMS:

        sum_{i=a}^{b} h(i) = n int_{v_b}^{v_a} f(v) (v + Q)**-2 dv
            + (f(v_a) + f(v_b))/2
            + sum_{k=1}^{K} B_2k/(2k)! (h^(2k-1)(b) - h^(2k-1)(a)) + R_Q,

    where v_a and v_b are the points at a and b, h^(p) is
    (-1/n)**p sum_i L(p, i) f^(i)(v) w**(p+i), for the unsigned Lah numbers
    L(p, i) of ``_em_table`` with alpha = 1 (d/dx = -(w*w/n) d/dv), and
    |R_Q| is at most 2|B_2K+2|/(2K+2)! times the integral of |h^(2K+2)|
    over [a, b].  Q0 (``_last_block``) is the largest
    Q <= isqrt(n // _BLOCK_POINTS) at which rho(Q) below
    (``_em_remainder``) is at most u A_0, for u = 2**-53, or 0: at n = 1e7,
    459 for sin and cos (21,739 points stream) and 559, the cap, for id,
    const1 and polynomials of low degree.  So every block holds about 32
    points or more, and (Q + 1)**2 <= n.

    The blocks in floats (``_em_blocks``).  The points at the ends are the
    exact remainders rounded once (``_reciprocal_frac_at``).  The integral is
    the Gauss-Legendre rule of N = _GAUSS_NODES nodes, correctly rounded
    (``_gauss_rule``), on J = [mid - half, mid + half], the rounded halves
    of the sum and the difference of the ends; its terms
    half w_j f(v_j)/(v_j + Q)**2 are summed exactly and multiplied by n
    exactly (``_times``).  Each end adds f/2 and its Bernoulli terms
    (``_em_ends``).  The head's partials and the blocks' go through one
    ``_mean_sum``, so no thread count changes a bit.

    The bound.  Take e_f, e_d and A_k of the analytic part, A = max A_k, and
    M, a bound on |f| over the complex disc |z - 1/2| <= 17/16: cosh(17/16)
    for sin and cos, sum |c_i| (25/16)**i for a polynomial.
    - A streamed point is within u/2 of {n/i} < 1, so each of the H
      streamed values is within e_f + u A_1/2 of f({n/i}).
    - Summed over Q <= Q0, R_Q is at most rho(Q0) =
      2|B_2K+2|/(2K+2)! sum_i L(p, i) A_i n**(1-p) (Q0 + 1)**(p+i-1)/(p+i-1)
      for p = 2K + 2 (``_em_remainder`` with X = Q0 + 1): the blocks' w
      lie in [1, Q0 + 1].
    - The rule.  The ends are within u/2 of v_a and v_b, and mid >= half
      and mid + half < 1, so J lies in [0, 1), with its ends within 5u/4 of
      v_b and v_a: the integral moves by at most (5/2) u n A_0/Q**2.  On J
      the exact rule is within half (64/15) M_Q / ((r*r - 1) r**(2N)) of
      the integral, for r = 4 (Trefethen, Approximation Theory and
      Approximation Practice, Theorem 19.3): that Bernstein ellipse maps
      into the disc above, where |f(z)/(z + Q)**2| <= M_Q =
      M/(Q - 9/16)**2.  The computed nodes are within u of the exact ones,
      and g = f/(v + Q)**2 takes three roundings after f, so each computed
      term is within half w_j (1.001 e_f + 4.01 u A_0 + u A_1)/Q**2 of its
      exact one before its two products, which add 1.51 u |g|; the weights
      add up to 2, and 2 half <= 1.  So n times the computed rule is within
      n (1.01 e_f + 8.1 u A_0 + 1.01 u A_1)/Q**2 +
      (32/225) n M 16**-N/(Q - 9/16)**2 of n times the integral.
    - Each end's partial is within e_d + 5 u A of its exact value: f/2 is
      within (e_d + u A_1/2)/2; the Bernoulli terms are at most
      0.12 A (Q + 1)**2/n <= 0.12 A, as the |B_2k|/(2k)! L(2k - 1, i) add
      up to less than 0.12, and their derivatives' errors (e_d + u A/2) and
      about 26 roundings (powers of w up to w**10) stay below
      0.13 e_d + 4 u A.
    - Rounding the exact sum over n adds 2**-53 (1 + 2**-52) |mean|.
    So the mean is within 2**-53 (1 + 2**-52) |mean| + E/n of the exact
    mean of f({n/i}), with E = H (e_f + u A_1/2) + rho(Q0) +
    sum_{Q=1}^{Q0} (n (1.01 e_f + 8.1 u A_0 + 1.01 u A_1)/Q**2 +
    (32/225) n M 16**-N/(Q - 9/16)**2 + 2 e_d + 10 u A): at large n about
    44 ulp of the mean for sin, 23 for cos, 37 for id and 168 for
    poly:0.5,-1.25,2 (whose A_0 is 7.6 times its mean), most of it
    worst-case roundings of the rule's terms; measured against mpmath the
    error is below 1.5 ulp.

    Without f, the closed form short-circuits to 1 - gamma and nothing
    streams.  Since (n mod i)/i = n/i - floor(n/i), the points sum to
    n H_n - D(n), where D(n) is the divisor sum, exact in O(sqrt n); so the
    mean is H_n - D(n)/n, and it is returned correctly rounded.  The stream,
    which rounds each point and then their sum, is within 1 ulp of it.

    H_n is special.harmonic_exact, and special.round_once rounds the mean
    as it rounds H_n; a mean undecided at 50 digits of ln n (within about
    1e-48 of a rounding boundary; none is known) raises ArithmeticError.
    Enough digits always decide it, as the mean is never a midpoint between
    floats: for n >= 4 take Bertrand's prime p with n/2 < p < n.  The point
    (n mod p)/p = (n - p)/p has p-adic valuation -1 and no other point has
    a factor p in its denominator; as p does not divide n, the mean's
    reduced denominator keeps the odd factor p.  For n <= 3 H_n is exact.
    """
    n = _check_n(n)
    meta = "mean of f({n/i}) vs limit-CDF integral"
    if f is None:
        divisor_mean = Fraction(_divisor_sum(n, threads), n)

        def mean(digits: int) -> tuple[Fraction, Fraction]:
            harmonic, bound = harmonic_exact(n, digits)
            return harmonic - divisor_mean, bound

        return _result(round_once(mean, f"the mean at n={n}"), 1.0 - EULER_GAMMA, n, meta)
    problem = PROBLEMS["example3"]
    part = getattr(f, "analytic", None)
    if part is None:
        empirical = _mean_sum(f, problem.points, n, [(1, n + 1)], threads) / n
    else:
        empirical = _block_mean(f, part, n, threads)
    closed = integrate_smooth(f, problem.limit(), tol=tol).value
    return _result(empirical, closed, n, meta)


def dirichlet_weak(n: int, threads: int = 1) -> SolveResult:
    """Normalized divisor-type sum: (1/n) sum of floor(n/i) minus ln n.

    The floor sum is exact integer arithmetic (see _divisor_sum), in
    O(sqrt n); the limit is 2*gamma - 1.
    """
    n = _check_n(n)
    empirical = _divisor_sum(n, threads) / n - math.log(n)
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


def _horner(coeffs: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.polyval(coeffs, x)`` bit for bit, computed in ``out`` (not ``x``)."""
    out.fill(0.0)
    for c in coeffs:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _poly_eval(coeffs: Sequence, i):
    acc = 0
    for c in coeffs:
        acc = acc * i + c
    return acc


def _bisect(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """The first integer i in [lo, hi] with pred(i), or hi + 1; pred is false,
    then true, along [lo, hi]."""
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _derivative(p: list) -> list:
    """The coefficients, descending, of P' for those of P."""
    q = len(p) - 1
    return [c * (q - j) for j, c in enumerate(p[:-1])]


def _monotone_runs(p: list, lo: int, hi: int) -> list:
    """Integer ranges (a, b), in order, that cover lo..hi, on each of which
    the polynomial with the integer coefficients p (descending) is monotone
    in real x.

    P' is monotone on each of its own runs, so it changes sign there once at
    most: where P'(a) and P'(b) are not of opposite signs P is monotone on
    [a, b]; otherwise the run splits at the first integer x at which P' has
    left the sign of P'(a), into [a, x - 1] and [x, b], and the extremum of
    P between x - 1 and x falls between the two."""
    if len(p) <= 2:
        return [(lo, hi)]
    d = _derivative(p)
    out = []
    for a, b in _monotone_runs(d, lo, hi):
        da = _poly_eval(d, a)
        if da * _poly_eval(d, b) >= 0:
            out.append((a, b))
        else:
            x = _bisect(lambda i: (_poly_eval(d, i) > 0) != (da > 0), a + 1, b)
            out += [(a, x - 1), (x, b)]
    return out


def _exact_poly(spec: PolySpec, n: int) -> tuple[list, int]:
    """P's coefficients (descending) and n, scaled by the common denominator
    of the coefficients' exact rationals into integers."""
    coeffs = [Fraction(c) for c in spec.p_coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs], n * scale


def _taylor(p: list, x: int, h: int = 1) -> list:
    """The coefficients, ascending, of P(x + h t) for the integer
    coefficients p of P (descending) and the integers x and h: Horner's
    shift, exact in Python ints."""
    c = list(p)
    for i in range(len(c) - 1, 0, -1):
        for j in range(1, i + 1):
            c[j] += x * c[j - 1]
    return [v * h**k for k, v in enumerate(reversed(c))]


def _poly_count(spec: PolySpec, n: int) -> int:
    """Greatest i >= 1 with P(i) <= n, decided on the exact rationals of the
    coefficients.

    Scaled by their common denominator, P and n are integers.  Every i at or
    above the Cauchy bound on the roots of P - n has P(i) > n.  Below it P is
    monotone on the runs of ``_monotone_runs``, which are searched by
    bisection from the last one back, in O(q**2 log N) exact evaluations.
    """
    p, limit = _exact_poly(spec, n)
    top = 2 + max(abs(c) for c in p[1:-1] + [p[-1] - limit]) // p[0]
    for a, b in reversed(_monotone_runs(p, 1, top)):
        if _poly_eval(p, b) <= limit:
            return b
        if _poly_eval(p, a) <= limit:
            return _bisect(lambda i: _poly_eval(p, i) > limit, a, b) - 1
    raise ValueError("no index i >= 1 satisfies P(i) <= n")


# The Bernstein ellipses tried for a run's rule bound: rho = 2, 4, ..., 2**10
_ELLIPSES = tuple(2.0**k for k in range(1, 11))


def _poly_chunk(coeffs: np.ndarray, n: int, a: int, b: int, out=None) -> np.ndarray:
    """The stream's points P(i)/n for i in [a, b): ``_horner`` on the float
    coefficients (descending), then one division; into ``out`` or a fresh
    array."""
    m = b - a
    y = np.empty(m) if out is None else out
    with workspace(m) as ws:
        _horner(coeffs, _indices(a, b, ws.f[0][:m]), y)
    return np.divide(y, n, out=y)


def _compose(a: Sequence, g: np.ndarray) -> np.ndarray:
    """The Taylor coefficients, to the degree of the series g (ascending,
    g[0] = 0), of sum_{i>=1} a[i] g(t)**i: Taylor mode (Griewank and
    Walther, Evaluating Derivatives, 2nd ed., ch. 13)."""
    m = g.size
    total = np.zeros(m)
    power = np.zeros(m)
    power[0] = 1.0
    for i in range(1, m):
        power = np.convolve(power, g)[:m]
        total += a[i] * power
    return total


def _rule_bound(part: Analytic, G: np.ndarray, half: float) -> float:
    """A bound on the error of the Gauss-Legendre rule of _GAUSS_NODES nodes
    on the integral of f(g(x)) over a run of half-width ``half``, for
    g(mid + half t) = sum_k G[k] t**k: the least over ``_ELLIPSES`` of
    half (64/15) M / ((rho**2 - 1) rho**(2N)) (Trefethen, Approximation
    Theory and Approximation Practice, Theorem 19.3), with M = disc(r):
    the ellipse's t have |t| <= R = (rho + 1/rho)/2, so its g lie in
    |z| <= r = sum_k |G[k]| R**k."""
    best = math.inf
    for rho in _ELLIPSES:
        R = 0.5 * (rho + 1.0 / rho)
        try:
            M = part.disc(math.fsum(abs(c) * R**k for k, c in enumerate(G)))
        except OverflowError:
            break
        best = min(best, half * (64 / 15) * M / ((rho * rho - 1.0) * rho ** (2 * _GAUSS_NODES)))
    return best


def _shift(p: list, limit: int, a: int, b: int) -> np.ndarray:
    """The coefficients, ascending, of g(mid + half t) = P(mid + half t)/n
    on [a, b], each rounded once.  2 mid and 2 half are integers, and
    P(y/2) 2**q has the integer coefficients p_j 2**j (descending), so
    ``_taylor`` shifts them exactly."""
    q = len(p) - 1
    p2 = [c * 2**j for j, c in enumerate(p)]
    return np.array([v / (2**q * limit) for v in _taylor(p2, a + b, b - a)])


def _run_remainder(A: tuple, G: np.ndarray, half: float) -> float:
    """The Euler-Maclaurin remainder bound of a run of half-width ``half``
    whose g(mid + half t) has the coefficients G (see
    ``polynomial_family``): 2|B_p| (b - a) [t**p] sum_i A_i Ghat(t)**i / i!
    for p = 2K + 2, with Ghat_k = half**-k sum_{j>=k} C(j, k) |G_j|."""
    K = _EM_TERMS
    q = G.size - 1
    majorant = np.zeros(2 * K + 3)
    for k in range(1, min(q, 2 * K + 2) + 1):
        majorant[k] = math.fsum(math.comb(j, k) * abs(G[j]) for j in range(k, q + 1)) / half**k
    terms = _compose([A[i] / math.factorial(i) for i in range(2 * K + 3)], majorant)
    num, den = BERNOULLI_2J[K]
    return 2 * abs(num) / den * (2 * half) * terms[-1]


def _em_runs(p: list, limit: int, part: Analytic, count: int) -> list:
    """The runs (a, b, G) of 1..count that ``polynomial_family`` sums by
    Euler-Maclaurin, in order, with the ``_shift`` G of each."""
    A = part.bounds
    tol = _U * A[0]
    out = []
    for a, b in _monotone_runs(p, 1, count):
        def P(i: int) -> int:
            return _poly_eval(p, i)

        # the part of the run where 0 <= P <= n
        if P(a) <= P(b):
            a, b = _bisect(lambda i: P(i) >= 0, a, b), _bisect(lambda i: P(i) > limit, a, b) - 1
        else:
            a, b = _bisect(lambda i: P(i) <= limit, a, b), _bisect(lambda i: P(i) < 0, a, b) - 1
        if b - a < _BLOCK_POINTS:
            continue
        G = _shift(p, limit, a, b)
        half = 0.5 * (b - a)
        if _run_remainder(A, G, half) <= tol and _rule_bound(part, G, half) <= tol:
            out.append((a, b, G))
    return out


def _em_run(f: Callable, part: Analytic, p: list, limit: int, a: int, b: int,
            G: np.ndarray) -> list:
    """Partials whose exact sum is within the bound of ``polynomial_family``
    of the sum of f(P(i)/n) over a <= i <= b, a run of ``_em_runs`` with its
    ``_shift`` coefficients G."""
    K = _EM_TERMS
    x, w = _gauss_rule()
    y = np.clip(_horner(G[::-1], x, np.empty(x.size)), 0.0, 1.0)
    partials = exact_partials((0.5 * (b - a) * w) * apply_to_array(f, y))
    # the ends: g's Taylor coefficients, exact shifts of P over n, rounded once
    ends = [[c / limit for c in _taylor(p, end)[: 2 * K]] for end in (a, b)]
    _, _, d = part.rows(np.array([c[0] for c in ends]))
    for j, (c, sign) in enumerate(zip(ends, (-1.0, 1.0))):
        jet = np.zeros(2 * K)
        jet[1 : len(c)] = c[1:]
        h = _compose([d(i)[j] / math.factorial(i) for i in range(2 * K)], jet)
        partials.append(0.5 * d(0)[j])
        partials.append(sign * math.fsum(num / (den * 2 * k) * h[2 * k - 1]
                                         for k, (num, den) in enumerate(BERNOULLI_2J[:K], 1)))
    return partials


def _poly_sum(spec: PolySpec, n: int, count: int, threads: int) -> float:
    """The sum of f(P(i)/n) over i <= count, rounded once (see
    ``polynomial_family``): the runs of ``_em_runs`` by ``_em_run``, the
    indices between them through ``_poly_chunk``."""
    f, part = spec.f, getattr(spec.f, "analytic", None)
    p, limit = _exact_poly(spec, n)
    runs = [] if part is None else _em_runs(p, limit, part, count)
    ends = [1, *(end for a, b, _ in runs for end in (a, b + 1)), count + 1]
    coeffs = np.asarray(spec.p_coeffs, dtype=np.float64)
    return _mean_sum(f, functools.partial(_poly_chunk, coeffs), n,
                     list(zip(ends[::2], ends[1::2])), threads, len(runs),
                     lambda a, b: [x for run in runs[a:b] for x in _em_run(f, part, p, limit, *run)])


def polynomial_family(
    spec: PolySpec, n: int, threads: int = 1, tol: float = 1e-9
) -> Union[SolveResult, DivergentResult]:
    """Normalized sums of f(P(i)/n) over the indices with P(i) <= n.

    The limit splits on q = deg P versus the normalizer exponent r: zero for
    q < r, divergent for q > r, and for q = r the integral of f against the
    root-q CDF scaled by (b/a)**(1/q).  The sum runs over i = 1..N(n), the
    greatest i with P(i) <= n (``_poly_count``); it is rounded once, then
    divided by (n/b)**(1/r).  A plain callable streams: the points are
    P(i)/n by Horner's rule on the float coefficients, then one division.
    A callable with an ``analytic`` part (an f from ``resolve_function``)
    is summed by Euler-Maclaurin over P's monotone runs.

    The runs.  ``_monotone_runs`` cuts 1..N(n) into integer ranges on each
    of which P is monotone in real x, and each is cut down to its [a, b]
    where 0 <= P <= n, decided in exact rationals; so g(x) = P(x)/n lies in
    [0, 1] on the real [a, b], where the bounds of ``Analytic`` hold.  With
    h = f o g and K = _EM_TERMS (DLMF 2.10.1),

        sum_{i=a}^{b} h(i) = int_a^b h + (h(a) + h(b))/2
            + sum_{k=1}^{K} B_2k/(2k) (h_{2k-1}(b) - h_{2k-1}(a)) + R,

    with h_p = h^(p)/p!, h's Taylor coefficients, and |R| at most 2|B_p|/p!
    times the integral of |h^(p)| over [a, b], p = 2K + 2.  The i outside
    the runs (where P < 0 or P > n, as below a P's dip or past a cubic's
    local maximum above n), and the runs of fewer than _BLOCK_POINTS + 1
    points or whose bounds E_R and T below exceed u A_0 (u = 2**-53; small
    N(n)), stream through ``_poly_chunk`` as above.  The streamed points'
    partials and the runs' go through one ``_mean_sum``, so no thread
    count changes a bit.

    The jets (Griewank and Walther, Evaluating Derivatives, 2nd ed.,
    ch. 13).  g(x + t) = sum_k G_k t**k with G_k = P^(k)(x)/(k! n), exact
    shifts of P (``_taylor``) over n; then h's Taylor coefficients are
    those of sum_i f^(i)(g(x))/i! (g(x + t) - G_0)**i (``_compose``).
    The remainder: with mid and half the centre and half-width of [a, b],
    and G_k here the coefficients of g(mid + half s), every x in [a, b] has
    |P^(k)(x)|/(k! n) <= Ghat_k = half**-k sum_{j>=k} C(j, k) |G_j|, so,
    coefficient by coefficient, h's series at x is majorized by
    sum_i A_i Ghat(t)**i / i!, and |h^(p)| <= p! [t**p] of that; so
    |R| <= E_R = 2|B_p| (b - a) [t**p] sum_i A_i Ghat(t)**i / i!
    (``_run_remainder``).  The integral: the Gauss-Legendre rule of
    N = _GAUSS_NODES nodes, correctly rounded (``_gauss_rule``), on the
    coefficients G of g(mid + half t) (``_shift``), exact shifts rounded
    once.  The exact rule is within half (64/15) M / ((rho**2 - 1)
    rho**(2N)) of the integral, where M = disc(sum_k |G_k| R**k),
    R = (rho + 1/rho)/2, bounds f o g on the Bernstein ellipse rho
    (Trefethen, Approximation Theory and Approximation Practice,
    Theorem 19.3); T is its least value over rho = 2, 4, ..., 2**10
    (``_rule_bound``).  For the benchmark's P and every P of the golden
    argv, each run with E_R <= u A_0 has T <= u A_0 as well.

    The bound.  Take e_f, e_d and A_k of the analytic part, A = max A_k,
    gamma(j) = j u / (1 - j u), and |P| the polynomial of P's coefficients'
    absolute values.
    - A streamed point inside [0, 1] is within gamma(2q)|P|(i)/n + u of
      g(i) (Horner's rule, Higham, Accuracy and Stability of Numerical
      Algorithms, 5.1, and the division), so its value is within
      e_f + A_1 (gamma(2q)|P|(i)/n + u) of h(i).  A point outside [0, 1]
      is the stream's own, bit for bit.
    - The rule with coefficients G.  The computed coefficients
      are within u/2 of G_k relative, the nodes within u/2 of t_j, and
      Horner's rule in t adds gamma(2q), so each computed g, clipped into
      [0, 1] (which only brings it nearer), is within
      eps = (gamma(2q) + u) sum_k |G_k| + (u/2) sum_k k |G_k| of g at the
      exact node, and its f within e_f + A_1 eps of h there.  The weight
      half w_j (two roundings) and the product (one) add 1.52 u A_0 half
      w_j, and the weights sum to 2: the run's terms, summed exactly,
      are within (b - a) (1.01 (e_f + A_1 eps) + 1.52 u A_0) of the exact
      rule.
    - Each end's h/2: g there, rounded once, is within u/2, so
      d(0)/2 is within (e_d + A_1 u/2)/2.
    - Each end's Bernoulli terms are within (e_d + 60 u A) H, for
      H = sum_k |B_2k|/(2k) [t**(2k-1)] sum_i Ghat(t)**i / i!: their
      derivatives are within e_d + A u of f^(i), and the rounded series
      products and sums add a relative 55 u of the same majorant.
    So a run adds E_run = E_R + T + (b - a) (1.52 u A_0 +
    1.01 (e_f + A_1 eps)) + e_d + A_1 u/2 + 2 (e_d + 60 u A) H, and the sum, rounded once, is within
    u |sum| + E_s + sum E_run of the exact sum of f(P(i)/n), with E_s the
    streamed points' errors.  For the benchmark's P = 1.3x**2 + 0.7x + 0.2
    at n = 1e12 (N(n) = 877,057), one run takes every index,
    and the bound is about 19 ulp of the sum for sin, 10 for cos, 16 for id
    and 85 for poly:0.5,-1.25,2, most of it the stated error of np.sin and
    worst-case roundings, as the stream's own bound is; measured, the route
    is within 2 ulp of the stream.
    """
    n = _check_n(n, limit=math.inf)
    count = _poly_count(spec, n)
    if count > _MAX_INDEX:
        raise ValueError(f"N(n) = {count} indices, but index solvers need N(n) <= 2**52")
    # a normal n / b has a normal r-th root, so g_norm is neither 0 nor inf
    ratio = n / spec.norm_b
    if not 2.0**-1022 <= ratio < math.inf:
        raise ValueError(f"n / b = {ratio!r} must be a finite normal float")
    g_norm = ratio ** (1.0 / spec.norm_r)
    empirical = _poly_sum(spec, n, count, threads) / g_norm
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


# Largest n an index solver accepts: the exactness limit of _sqrt_frac and
# _remainder, checked before any chunk range over 1..n is built.
_MAX_INDEX = 2**52


def _check_n(n, limit: float = _MAX_INDEX) -> int:
    """n as an int, for an integral n (an int, or an integral float such as
    1e6) from 1 to ``limit``; ValueError for anything else, a fractional or
    non-finite n too."""
    try:
        k = int(n)
    except (OverflowError, ValueError):
        raise ValueError(f"n must be a finite integer, got {n!r}") from None
    if k != n:
        raise ValueError(f"n must be an integer, got {n!r}")
    n = k
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > limit:
        raise ValueError(f"n must be <= 2**52 for index solvers, got {n}")
    return n


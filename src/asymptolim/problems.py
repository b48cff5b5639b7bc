"""End-to-end solvers for the classic fractional-part limit problems.

Each solver returns the empirical value at a finite index n, the closed-form
limit, and their absolute gap.  Index loops run over fixed chunks with
exact partial sums reduced by one correctly rounded sum, so results are
bit-identical for every thread count.  Fractional parts of rationals are
derived from exact float64 remainders and rounded once.  Every count of points
<= t (the CDF solvers, the interval proportion, the sweep) is
``Problem.count``: a count rule, or the stream.  canonical-uniform's rule is
a few float compares, example1's a floor sum in O(log q) Python-int steps
for a threshold T = p/q.  example3's points fall along O(sqrt n) blocks of
indices, so its rule decides only the points next to each block's boundary
with t, in O(sqrt n) per threshold.  example2's points rise along O(sqrt n)
rows of k, so its rule counts each row's points inside the level set of t,
evaluating only those that rounding could put on either side of t, also
in O(sqrt n) per threshold.  The stream, chunk by chunk, is the oracle.
Wherever float points stand for exact ones, every point that rounding could
have moved across t is decided in exact integer arithmetic, so no point is
misclassified.  The divisor sum takes the hyperbola identity, O(sqrt n), and
through it example4's identity mean is H_n - D(n)/n, correctly rounded,
with no stream at all.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .accum import (
    CHUNK,
    Workspace,
    apply_to_array,
    chunk_ranges,
    exact_partials,
    map_reduce_fsum,
    map_reduce_int,
    workspace,
)
from .convergence import Boundary
from .measure import HyperBox
from .special import (
    BERNOULLI_2J,
    EULER_GAMMA,
    EULER_GAMMA_50,
    frac_limit_cdf,
    frac_limit_density,
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

    return SmoothCdf(value, HyperBox(0.0, 1.0), quantile=lambda u: u)


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

    return SmoothCdf(value, HyperBox(0.0, 1.0), quantile=lambda u: u**q)


def arcsin_cdf() -> SmoothCdf:
    """CDF of sin(U) for U uniform on a full period: arcsin(t)/pi + 1/2,
    with quantile sin(pi (u - 1/2))."""
    return SmoothCdf(
        lambda t: math.asin(min(max(float(t), -1.0), 1.0)) / math.pi + 0.5,
        HyperBox(-1.0, 1.0),
        quantile=lambda u: math.sin(math.pi * (u - 0.5)),
    )


def frac_limit_smooth_cdf() -> SmoothCdf:
    """The limit CDF of the fractional parts of n/i, with its density."""
    return SmoothCdf(frac_limit_cdf, HyperBox(0.0, 1.0), density=frac_limit_density)


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


def _mean_sum(f: Callable, points: Callable, n: int, count: int, threads: int) -> float:
    """Correctly rounded sum of f over the points(n, 1, count + 1) of a
    stream, one fixed-width chunk points(n, a, b, out=...) at a time, written
    into the thread's workspace; each chunk passes on its exact partials,
    which are rounded once, all together."""

    def kernel(a: int, b: int) -> list:
        with workspace() as ws:
            return exact_partials(apply_to_array(f, points(n, a, b, out=ws.f[0][: b - a])))

    return map_reduce_fsum(kernel, 1, count + 1, threads=threads)


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
    within ``band(stop)`` of its exact point x_i, and ``settle(n, i, T)``
    decides x_i <= T exactly for a Fraction T.  Without a rule the float
    points are the points.

    ``count`` takes a count rule, or the stream.  A problem that counts
    faster than its stream names its rule: ``count_rule(problem, n, ts,
    threads)`` returns the int64 counts at the thresholds ``ts``, none of
    them NaN, and gives the streamed counts.  Every problem in ``PROBLEMS``
    names one; without one all n points are streamed, and
    ``dataclasses.replace(problem, count_rule=None)``, the oracle of a
    rule, streams.
    """

    points: Callable[[int, int, int], np.ndarray]
    limit: Callable[[], SmoothCdf]
    band: Optional[Callable[[int], float]] = None
    settle: Optional[Callable[[int, int, Fraction], bool]] = None
    count_rule: Optional[Callable[[Problem, int, tuple, int], np.ndarray]] = None

    def count(self, n: int, ts: Sequence, threads: int = 1) -> np.ndarray:
        """#{i in 1..n : x_i <= t} for each threshold t in ``ts``, as int64,
        by the problem's count rule, or else by ``_stream`` over 1..n.  A NaN
        threshold raises ValueError before either runs."""
        n = _check_n(n)
        ts = tuple(ts)
        if any(math.isnan(float(t)) for t in ts):
            raise ValueError("t must be a number, got nan")
        if self.count_rule:
            return self.count_rule(self, n, ts, threads)
        return self._stream(n, ts, 1, n + 1, threads)

    def _stream(self, n: int, ts: tuple, lo: int, hi: int, threads: int) -> np.ndarray:
        """#{i in [lo, hi) : x_i <= t} for each t in ``ts``, as int64, for
        lo < hi: the points are computed one chunk at a time into the
        thread's workspace and decided by ``_at_most``, each threshold in
        turn.  A non-finite point raises ValueError."""
        tfs = tuple(float(t) for t in ts)

        def chunk(a: int, b: int) -> np.ndarray:
            m = b - a
            tally = np.empty(len(ts), dtype=np.int64)
            with workspace() as ws:
                x = self.points(n, a, b, out=ws.f[0][:m])
                mask = ws.mask[:m]
                if not np.isfinite(x, out=mask).all():
                    raise ValueError("points must be finite")
                scratch = ws.f[1].view(np.bool_)[:m]
                w = self.band(b) if self.settle else 0.0
                for j, (t, tf) in enumerate(zip(ts, tfs)):
                    le = self._at_most(n, x, a, t, tf, w, mask, scratch)
                    tally[j] = np.count_nonzero(le)
            return tally

        return map_reduce_int(chunk, lo, hi, threads=threads)

    def _at_most(self, n, x, index, t, tf, w, out, scratch) -> np.ndarray:
        """Whether x_i <= t for the rounded point x[j] of each index index[j],
        or index + j for an int ``index``: into the bool array ``out``, or
        with a settle rule into ``scratch``, which is returned.  Without a
        settle rule this is the compare x <= tf.  With one, a point below
        tf - w is <= t and one above tf + w is not, for the band w around
        tf; a point in between is settled against T = Fraction(t) (of tf
        unless t is rational), built only when such a point occurs."""
        np.less_equal(x, tf + w, out=out)
        if not self.settle:
            return out
        below = np.less(x, tf - w, out=scratch)
        band = np.flatnonzero(np.not_equal(out, below, out=out))
        if band.size:
            ks = band + index if isinstance(index, int) else index[band]
            T = Fraction(t if isinstance(t, numbers.Rational) else tf)
            for j, k in zip(band.tolist(), ks.tolist()):
                below[j] = self.settle(n, k, T)
        return below


def _per_threshold(count: Callable[[int, object], int]) -> Callable:
    """The count rule that calls ``count(n, t)`` once per threshold."""
    return lambda problem, n, ts, threads: np.array([count(n, t) for t in ts], dtype=np.int64)


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


def _sqrt_frac_count(n: int, t) -> int:
    """#{1 <= k <= n : {sqrt k} <= T}, exactly, for T = Fraction(t), of
    float(t) unless t is rational.

    With m = isqrt(k) and j = k - m*m, {sqrt k} = sqrt(k) - m <= T for T >= 0
    exactly when j <= 2mT + T*T (the ``settle`` rule).  Block m holds the k
    from m*m to m*m + 2m; for 0 <= T < 1, 2mT + T*T < 2m + 1, so
    floor(2mT + T*T) + 1 of them are <= T.  With T = p/q and M = isqrt(n),
    the blocks 1..M-1 are whole and block M ends at n, so the count is

        sum_{m=1}^{M-1} (floor((2pq*m + p*p) / (q*q)) + 1)
            + min(n - M*M, floor((2pq*M + p*p) / (q*q))) + 1,

    where the sum of floors is ``_floor_sum(M - 1, q*q, 2pq, 2pq + p*p)``.
    T < 0 holds no point and T >= 1 all n, so a float t may be clipped to
    [-1, 1] first, which keeps an infinite one from Fraction.
    """
    T = Fraction(t if isinstance(t, numbers.Rational) else min(max(float(t), -1.0), 1.0))
    if not 0 <= T < 1:
        return 0 if T < 0 else n
    p, q = T.numerator, T.denominator
    M = math.isqrt(n)
    a, qq = 2 * p * q, q * q
    return _floor_sum(M - 1, qq, a, a + p * p) + M + min(n - M * M, (a * M + p * p) // qq)


def _first(flips: Callable, lo: np.ndarray, stop: np.ndarray, c: np.ndarray) -> None:
    """Step each guess c, in place, to the first index of its block
    [lo, stop) at which ``flips`` holds, or to stop; ``flips(i)`` is false,
    then true, along each block, no block is empty, and lo <= c <= stop.  A
    guess within one index of its answer takes one step at most.  The first
    test each way takes every block, at the index to test clipped into it,
    in a workspace; later tests take the blocks that stepped."""
    with workspace(c.size) as ws:
        i, inside = ws.f[0][: c.size].view(np.int64), ws.mask[: c.size]
        # back while the index before it flips
        le = flips(np.maximum(np.subtract(c, 1, out=i), lo, out=i))
        sel = np.flatnonzero(np.logical_and(le, np.greater(c, lo, out=inside), out=inside))
        while sel.size:
            c[sel] -= 1
            sel = sel[c[sel] > lo[sel]]
            sel = sel[flips(c[sel] - 1)]
        # on while it does not flip
        le = flips(np.minimum(np.subtract(stop, 1, out=i), c, out=i))
        np.logical_not(le, out=le)
        sel = np.flatnonzero(np.logical_and(le, np.less(c, stop, out=inside), out=inside))
        while sel.size:
            c[sel] += 1
            sel = sel[c[sel] < stop[sel]]
            sel = sel[np.logical_not(flips(c[sel]))]


def _reciprocal_frac_count(problem: Problem, n: int, ts: tuple, threads: int) -> np.ndarray:
    """example3's count rule: #{1 <= i <= n : {n/i} <= t} for each t in
    ``ts``, as int64, in O(sqrt n) per threshold.

    Indices up to s = isqrt(n) are streamed.  Above s the quotient Q = n//i
    takes at most s values: on block Q, i in (max(n//(Q+1), s), n//Q],
    {n/i} = n/i - Q falls, and is <= T exactly for i >= y = n/(Q+T), so the
    points <= t fill a suffix of the block.  The guess
    ceil(fl(n / fl(Q + tau))), for tau = float(t) clipped to [0, 1], takes
    two roundings of relative error at most 2**-53 each, and for a rational
    T the rounding of tau = fl(T), which moves Q + T by at most T * 2**-53;
    for n <= 2**52, y <= 2**52/(Q+T), so the guess is within one index of
    ceil(y).  (Where Q + tau rounds to Q, tau <= 2**-53 and the division by
    Q is exact for Q = 1, so the bound still holds.)  ``_first`` then
    settles each boundary on the points next to the guess, decided as the
    stream decides them: each {n/i} is correctly rounded, so the band is 0.
    """
    s = math.isqrt(n)

    def chunk(a: int, b: int) -> np.ndarray:
        m = b - a
        tally = np.empty(len(ts), dtype=np.int64)
        # block numbers and bounds, and guesses and the points tested, in
        # the thread's workspaces
        with workspace(m) as ws, workspace(m) as wb:
            q, lo, stop = (f[:m].view(np.int64) for f in wb.f)
            _indices(a, b, q)
            np.floor_divide(n, np.add(q, 1, out=lo), out=lo)
            np.add(np.maximum(lo, s, out=lo), 1, out=lo)
            np.add(np.floor_divide(n, q, out=stop), 1, out=stop)
            c, x = ws.f[0][:m].view(np.int64), ws.f[1]
            for j, t in enumerate(ts):
                tf = float(t)

                def flips(i: np.ndarray) -> np.ndarray:
                    # whether the point is <= t, that is in the suffix
                    k = i.size
                    y = _reciprocal_frac_at(n, i, x[:k])
                    return problem._at_most(n, y, i, t, tf, 0.0, ws.mask[:k], ws.f[2].view(np.bool_)[:k])

                guess = np.add(q, min(max(tf, 0.0), 1.0), out=x[:m])
                np.ceil(np.divide(n, guess, out=guess), out=guess)
                np.copyto(c, guess, casting="unsafe")
                _first(flips, lo, stop, np.clip(c, lo, stop, out=c))
                tally[j] = np.subtract(stop, c, out=c).sum()
        return tally

    blocks = map_reduce_int(chunk, 1, n // (s + 1) + 1, threads=threads)
    return problem._stream(n, ts, 1, s + 1, threads) + blocks


# The stated bounds of example2's count rule, each checked against mpmath by
# a test: np.sin is within _SIN_ERROR of sin at the stream's arguments in
# [0, 2*pi), and np.arcsin(L) / fl(2*pi) within a quarter of _ALPHA_SLACK of
# asin(L) / (2*pi) for -1 <= L <= 1.
_SIN_ERROR = 2.0**-40
_ALPHA_SLACK = 2.0**-40


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


def _sin_count(problem: Problem, n: int, ts: tuple, threads: int, first_row: int = 1) -> np.ndarray:
    """example2's count rule: #{k <= n : s_k <= float(t)} for the stream's
    points s_k = np.sin(fl(fl(sqrt k) - m) * fl(2*pi)), m = isqrt(k), for
    each t in ``ts``, as int64; over the k >= first_row**2 alone when
    ``first_row``, at most isqrt(n), is given.  It counts by rows and evaluates only the points
    that rounding could put on either side of t.

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

    Rows go ``CHUNK // len(ts)`` at a time through ``map_reduce_int``, each
    chunk as (threshold x row) arrays in the thread's workspaces, and the
    gap points one offset from the gap's start at a time, for all the
    chunk's gaps at once, so memory is O(CHUNK) at any n.
    """
    tf = np.array([float(t) for t in ts])
    T = tf.size
    if not T:
        return np.zeros(0, dtype=np.int64)

    def chunk(a: int, b: int) -> np.ndarray:
        R = b - a
        tally = np.zeros(T)
        # E_m of the last row, m = b - 1
        E = 2.0**-49 * (b + 1) + _SIN_ERROR
        lo, hi = (np.arcsin(np.clip(tf[:, None] + d, -1.0, 1.0)) / (2.0 * math.pi) for d in (-E, E))
        s = _ALPHA_SLACK
        with workspace(R) as wr, workspace(R * T) as wc:
            m = _indices(a, b, wr.f[0][:R])
            msq = np.multiply(m, m, out=wr.f[2][:R])
            J1 = np.subtract(float(n), msq, out=wr.f[1][:R])
            twom = np.multiply(m, 2.0, out=m)
            np.add(np.minimum(J1, twom, out=J1), 1.0, out=J1)
            A, B, C = (f[: R * T].reshape(T, R) for f in wc.f)
            gap = wc.mask[: R * T].reshape(T, R)

            def evaluate(first: np.ndarray, stop: np.ndarray) -> None:
                # the gap points first <= j < stop, one offset j - first at
                # a time: k = m*m + j for each cell with j < stop left
                left = np.subtract(stop, first, out=C)
                k = np.add(first, msq, out=first)
                while np.greater(left, 0.0, out=gap).any():
                    count = np.count_nonzero(gap)
                    with workspace(count) as wk, workspace(R * T) as wy:
                        x = np.compress(gap.ravel(), k.ravel(), out=wk.f[0][:count])
                        y = wy.f[0][: R * T].reshape(T, R)
                        np.place(y, gap, _sin_2pi_sqrt_frac(x, wk.f[2][:count], wk))
                        le = np.less_equal(y, tf[:, None], out=wy.mask[: R * T].reshape(T, R))
                        np.add(tally, np.logical_and(le, gap, out=le).sum(axis=1), out=tally)
                    k += 1.0
                    left -= 1.0

            def end(c: np.ndarray, out: np.ndarray) -> np.ndarray:
                return _row_edge(twom, c, b - 1, J1, out, True)

            def start(c: np.ndarray, out: np.ndarray) -> np.ndarray:
                return _row_edge(twom, c, b - 1, J1, out, False)

            # along each row: in, W1, out, W2, in, W3, out
            tally += end(lo - s, A).sum(axis=1)  # in: j < A
            evaluate(A, start(hi + s, B))  # W1 = [A, B); out from B
            np.maximum(end(0.5 - hi - s, A), B, out=A)  # out ends before A
            evaluate(A, start(0.5 - lo + s, B))  # W2 = [A, B); in from B
            end(1.0 + lo - s, A)  # in: B <= j < A
            tally += np.maximum(np.subtract(A, B, out=C), 0.0, out=C).sum(axis=1)
            evaluate(np.maximum(A, B, out=A), start(1.0 + hi + s, B))  # W3; out from B
        return tally.astype(np.int64)

    width = max(1, CHUNK // T)
    return map_reduce_int(chunk, first_row, math.isqrt(n) + 1, threads=threads, chunk=width)


def _uniform_count(n: int, t) -> int:
    """#{1 <= i <= n : fl(i/n) <= float(t)}.  fl(i/n) rises with i, so the
    count is floor(n*t') for the t' up to which values round to at most
    t, and n*(t' - t) <= n*ulp(t)/2 <= t/2; fl(n*tau), for tau = float(t)
    clipped to [0, 1], is within t/2 of n*t, so its floor is within one of
    the count, and one compare steps it there."""
    tf = float(t)
    c = math.floor(min(max(tf, 0.0), 1.0) * n)
    while c < n and (c + 1) / n <= tf:
        c += 1
    while c > 0 and c / n > tf:
        c -= 1
    return c


# sweep name -> problem; streams call the kernels through module globals, so
# rebinding a kernel on this module takes effect
PROBLEMS = {
    # uniform weights on {i/n : 1 <= i <= n}, counted on these float points
    "canonical-uniform": Problem(
        lambda n, a, b, out=None: _uniform_chunk(n, a, b, out=out),
        uniform_cdf,
        count_rule=_per_threshold(_uniform_count),
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
        count_rule=_per_threshold(_sqrt_frac_count),
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
        band=lambda stop: 0.0,
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


def _divisor_sum(n: int, threads: int = 1) -> int:
    """D(n) = sum of floor(n/i) over i <= n, exactly, in O(sqrt n), by the
    hyperbola identity D(n) = 2 sum_{i<=s} floor(n/i) - s*s, s = isqrt(n)."""
    s = math.isqrt(n)

    def kernel(a: int, b: int) -> int:
        with workspace(b - a) as ws:
            i = _indices(a, b, ws.f[0][: b - a].view(np.int64))
            return int(np.floor_divide(n, i, out=i).sum())

    return 2 * map_reduce_int(kernel, 1, s + 1, threads=threads) - s * s


# Largest n whose harmonic number is summed exactly (about 1 ms); above it
# the Euler-Maclaurin remainder, at most |B18| / (18 n**18), is below 2e-54.
_HARMONIC_EXACT_MAX = 1 << 10

# Significant digits of ln n in the first evaluation of H_n, and the most the
# rounding test raises them to: a few digits past 50, the error left would be
# that of gamma's 50-digit literal, which more digits of ln n cannot reduce.
_MEAN_DIGITS = 30
_MEAN_MAX_DIGITS = 50


def _harmonic(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """H_n = 1 + 1/2 + ... + 1/n as a rational, and a bound on its error.

    Up to _HARMONIC_EXACT_MAX the sum is exact, over lcm(1..n), and the bound
    is 0.  Above it, H_n = psi(n) + 1/n + gamma is the Euler-Maclaurin
    expansion ln n + gamma + 1/(2n) - sum_{j=1..8} B_2j / (2j n**2j), whose
    remainder is at most the first omitted term, |B18| / (18 n**18), since
    psi's expansion at a real positive argument encloses it (DLMF 5.11(ii)).
    ln n is decimal's correctly rounded logarithm to ``digits`` significant
    digits, off by at most half a unit in its last digit; gamma is the
    50-digit literal, off by at most 5e-51.  The rest is exact, and the bound
    is the sum of the three.
    """
    if n <= _HARMONIC_EXACT_MAX:
        lcm = math.lcm(*range(1, n + 1))
        return Fraction(sum(lcm // i for i in range(1, n + 1)), lcm), Fraction(0)
    log = Decimal(n).ln(Context(prec=digits))
    value = Fraction(log) + Fraction(EULER_GAMMA_50) + Fraction(1, 2 * n)
    for j, (p, q) in enumerate(BERNOULLI_2J[:-1], start=1):
        value -= Fraction(p, 2 * j * q * n ** (2 * j))
    p, q = BERNOULLI_2J[-1]
    remainder = Fraction(abs(p), 18 * q * n**18)
    half_ulp = Fraction(10) ** (log.adjusted() + 1 - digits) / 2
    return value, remainder + half_ulp + Fraction(1, 2 * 10**50)


def _identity_mean(n: int, divisor_sum: int, digits: int = _MEAN_DIGITS) -> float:
    """H_n - D(n)/n, for D(n) = ``divisor_sum``, rounded once to a float;
    ``digits`` starts the rounding test (see frac_n_over_i_mean)."""
    while True:
        harmonic, bound = _harmonic(n, digits)
        mean = harmonic - Fraction(divisor_sum, n)
        # Fraction -> float divides Python ints, which rounds correctly
        lo, hi = float(mean - bound), float(mean + bound)
        if lo == hi:
            return lo
        if digits >= _MEAN_MAX_DIGITS:
            raise ArithmeticError(
                f"the mean at n={n} is within {float(bound):.1e} of a rounding boundary"
            )
        digits = min(2 * digits, _MEAN_MAX_DIGITS)


def frac_n_over_i_mean(
    n: int,
    f: Optional[Callable] = None,
    threads: int = 1,
    tol: float = 1e-9,
) -> SolveResult:
    """Mean of f({n/i}) for i <= n; f omitted means the identity.

    With f, the points stream: each {n/i} is the exact remainder
    (n mod i)/i converted once to float, and the closed form is the
    quadrature of f against the limit CDF's density.

    Without f, the closed form short-circuits to 1 - gamma and nothing
    streams.  Since (n mod i)/i = n/i - floor(n/i), the points sum to
    n H_n - D(n), where D(n) is the divisor sum, exact in O(sqrt n); so the
    mean is H_n - D(n)/n, and it is returned correctly rounded.  The stream,
    which rounds each point and then their sum, is within 1 ulp of it.

    H_n is exact up to n = 1024.  Above it, H_n is the Euler-Maclaurin
    expansion through B16, whose remainder is at most the first omitted
    term |B18| / (18 n**18), with ln n to 30 significant digits and gamma
    from its 50-digit literal.  The rounding follows Ziv: when the two ends
    of the error interval round to different floats, ln n is recomputed at
    50 digits, the most the literal supports; a mean still undecided then
    (within about 1e-48 of a rounding boundary; none is known) raises
    ArithmeticError rather than risk a wrong last bit.

    The test is decided once the error is below the mean's distance to the
    nearest midpoint between floats, and for n >= 4 that distance is not 0.
    Midpoints are dyadic rationals, and the mean is not one: by Bertrand's
    postulate there is a prime p with n/2 < p < n.  p is the only multiple
    of p up to n, so every point (n mod i)/i with i != p has no factor p in
    its denominator, while (n mod p)/p = (n - p)/p with 0 < n - p < p has
    p-adic valuation -1.  So has their sum, and as p does not divide n, so
    has the mean: its reduced denominator has the odd factor p.  For n <= 3
    H_n is exact.
    """
    n = _check_n(n)
    meta = "mean of f({n/i}) vs limit-CDF integral"
    if f is None:
        return _result(_identity_mean(n, _divisor_sum(n, threads)), 1.0 - EULER_GAMMA, n, meta)
    problem = PROBLEMS["example3"]
    empirical = _mean_sum(f, problem.points, n, n, threads) / n
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


def _difference(p: list) -> list:
    """The coefficients, descending, of P(x + 1) - P(x) for those of P."""
    a = p[::-1]
    q = len(a) - 1
    return [sum(a[j] * math.comb(j, k) for j in range(k + 1, q + 1)) for k in range(q - 1, -1, -1)]


def _monotone_runs(p: list, lo: int, hi: int) -> list:
    """Integers lo = c_0 < c_1 < ... < c_m = hi such that the polynomial with
    the coefficients p (descending) is monotone on each [c_j, c_j+1]."""
    if len(p) <= 2 or hi - lo < 2:
        return [lo, hi]
    d = _difference(p)
    cuts = _monotone_runs(d, lo, hi - 1)
    out = [lo]
    for a, b in zip(cuts, cuts[1:]):
        # d is monotone on [a, b], so its sign changes once there at most
        up = _poly_eval(d, a) >= 0
        x = _bisect(lambda i: (_poly_eval(d, i) >= 0) != up, a, b)
        if x <= b:
            out.append(x)
    return out + [hi]


def _poly_count(spec: PolySpec, n: int) -> int:
    """Greatest i >= 1 with P(i) <= n, decided on the exact rationals of the
    coefficients.

    Scaled by their common denominator, P and n are integers.  Every i at or
    above the Cauchy bound on the roots of P - n has P(i) > n.  Below it P is
    monotone on runs cut where its forward difference P(i+1) - P(i), of one
    degree less, changes sign, found the same way; the runs are searched by
    bisection from the last one back, in O(q**2 log N) exact evaluations.
    """
    coeffs = [Fraction(c) for c in spec.p_coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    p = [int(c * scale) for c in coeffs]
    limit = n * scale
    top = 2 + max(abs(c) for c in p[1:-1] + [p[-1] - limit]) // p[0]
    runs = _monotone_runs(p, 1, top)
    for a, b in zip(runs[-2::-1], runs[::-1]):
        if _poly_eval(p, b) <= limit:
            return b
        if _poly_eval(p, a) <= limit:
            return _bisect(lambda i: _poly_eval(p, i) > limit, a, b) - 1
    raise ValueError("no index i >= 1 satisfies P(i) <= n")


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
    if count > _MAX_INDEX:
        raise ValueError(f"N(n) = {count} indices, but index solvers need N(n) <= 2**52")
    g_norm = (n / spec.norm_b) ** (1.0 / spec.norm_r)
    coeffs = np.asarray(spec.p_coeffs, dtype=np.float64)

    def points(n: int, a: int, b: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        m = b - a
        y = np.empty(m) if out is None else out
        with workspace(m) as ws:
            _horner(coeffs, _indices(a, b, ws.f[0][:m]), y)
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


# Largest n an index solver accepts: the exactness limit of _sqrt_frac and
# _remainder, checked before any chunk range over 1..n is built.
_MAX_INDEX = 2**52


def _check_n(n, limit: float = _MAX_INDEX) -> int:
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > limit:
        raise ValueError(f"n must be <= 2**52 for index solvers, got {n}")
    return n


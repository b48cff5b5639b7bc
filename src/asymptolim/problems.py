"""End-to-end solvers for the classic fractional-part limit problems.

Each solver returns the empirical value at a finite index n, the closed-form
limit, and their absolute gap.  Index loops run over fixed chunks with
exact partial sums reduced by one correctly rounded sum, so results are
bit-identical for every thread count.  Fractional parts of rationals are
derived from exact float64 remainders and rounded once.  Every count of points
<= t (the CDF solvers, the interval proportion, the sweep) is
``Problem.count``: it compares the rounded points with t and decides exactly
every point that rounding could have moved across t (in bulk where an error
bound proves its side, else in exact integer arithmetic), so no point is
misclassified.  Where the points are monotone along O(sqrt n)
blocks of indices (canonical-uniform, example1, example3), ``count`` decides
only the points next to each block's boundary with t, in O(sqrt n) per
threshold, and gets the streamed count; the divisor sum takes the hyperbola
identity, O(sqrt n) as well.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .accum import (
    CHUNK,
    Workspace,
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


def _sqrt_frac_at(k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fractional parts of sqrt(k) for the int64 indices ``k``, into ``out``."""
    with workspace(k.size) as ws:
        kf = ws.f[0][: k.size]
        np.copyto(kf, k)
        return _sqrt_frac(kf, out, ws)


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


def _uniform_at(n: int, i: np.ndarray, out: np.ndarray) -> np.ndarray:
    """i/n for the int64 indices ``i``, into ``out``."""
    np.copyto(out, i)
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

class Blocks(NamedTuple):
    """A problem's indices 1..n at one n, cut into a head 1..``head``, which
    is streamed, and blocks numbered 1..``size``, along each of which the
    points are monotone.

    ``bounds(j)`` gives the first and the last index of the blocks with the
    int64 numbers ``j``; ``at(i, out)`` writes the rounded points with the
    int64 indices ``i`` into ``out``.  Along a block the points rise
    (``rising``), so those <= t fill a prefix of it, or fall, so they fill a
    suffix.  ``guess(j, tau)`` proposes, for a threshold t clipped to tau in
    [0, 1], the index that ends the prefix (its last index plus one) or
    starts the suffix, in each block; the proposal is within one index of
    the exact one and is then settled by the points next to it.
    """

    head: int
    size: int
    bounds: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    guess: Callable[[np.ndarray, float], np.ndarray]
    at: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rising: bool


def _first(flips: Callable, lo: np.ndarray, stop: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Step each guess c to the first index of its block [lo, stop) at which
    ``flips`` holds, or to stop; ``flips(i)`` is false, then true, along each
    block.  A guess within one index of its answer takes one step at most."""
    sel = np.flatnonzero(c > lo)
    while sel.size:  # back while the index before it flips
        sel = sel[flips(c[sel] - 1)]
        c[sel] -= 1
        sel = sel[c[sel] > lo[sel]]
    sel = np.flatnonzero(c < stop)
    while sel.size:  # on while it does not flip
        sel = sel[np.logical_not(flips(c[sel]))]
        c[sel] += 1
        sel = sel[c[sel] < stop[sel]]
    return c


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
    points are the points.  ``decide(index, t, tf)`` may decide the band
    points of the int64 indices in bulk first: it returns whether x_i <= t
    and whether that is certain; only the uncertain ones are settled.

    A problem whose points are monotone on O(sqrt n) blocks of indices names
    them: ``blocks(n)`` returns its ``Blocks`` at n, and ``count`` then
    counts each block from the settled boundary of its points <= t, in
    O(sqrt n) per threshold, instead of streaming all n points.  Both routes
    give the same counts; ``dataclasses.replace(problem, blocks=None)``
    streams.
    """

    points: Callable[[int, int, int], np.ndarray]
    limit: Callable[[], SmoothCdf]
    band: Optional[Callable[[int], float]] = None
    settle: Optional[Callable[[int, int, Fraction], bool]] = None
    decide: Optional[Callable[[np.ndarray, object, float], tuple]] = None
    blocks: Optional[Callable[[int], Blocks]] = None

    def count(self, n: int, ts: Sequence, threads: int = 1) -> np.ndarray:
        """#{i in 1..n : x_i <= t} for each threshold t in ``ts``, as int64.

        Streamed points are computed one chunk at a time into the thread's
        workspace and compared with each threshold in turn; with blocks, only
        the head is streamed, and each block is counted from its boundary
        index, found by the points next to the guessed one.  Every point is
        decided as ``_at_most`` does: with a settle rule, a point farther than
        the band from float(t) lies on the same side of t as x_i and is
        decided by the compare; a point inside the band is decided in bulk
        where the problem can, else settled against T = Fraction(t) (of
        float(t) unless t is rational), built only when such a point occurs.
        A NaN threshold or a non-finite streamed point raises ValueError.
        """
        n = _check_n(n)
        ts = tuple(ts)
        tfs = tuple(float(t) for t in ts)
        if any(math.isnan(tf) for tf in tfs):
            raise ValueError("t must be a number, got nan")
        counts = np.zeros(len(ts), dtype=np.int64)
        blocks = self.blocks(n) if self.blocks else None
        head = n if blocks is None else blocks.head

        def stream(a: int, b: int) -> np.ndarray:
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

        def block(a: int, b: int) -> np.ndarray:
            m = b - a
            tally = np.empty(len(ts), dtype=np.int64)
            w = self.band(n + 1) if self.settle else 0.0
            with workspace(m) as ws:
                num = _indices(a, b, ws.f[0][:m].view(np.int64))
                lo, hi = blocks.bounds(num)
                stop = hi + 1
                for j, (t, tf) in enumerate(zip(ts, tfs)):

                    def flips(i: np.ndarray) -> np.ndarray:
                        # the first point past the prefix <= t, or in the suffix
                        k = i.size
                        x = blocks.at(i, ws.f[1][:k])
                        le = self._at_most(n, x, i, t, tf, w, ws.mask[:k], ws.f[2].view(np.bool_)[:k])
                        return np.logical_not(le, out=le) if blocks.rising else le

                    guess = blocks.guess(num, min(max(tf, 0.0), 1.0))
                    c = _first(flips, lo, stop, np.clip(guess, lo, stop, out=guess))
                    tally[j] = (c - lo).sum() if blocks.rising else (stop - c).sum()
            return tally

        counts += map_reduce_int(stream, 1, head + 1, threads=threads)
        if blocks is not None:
            counts += map_reduce_int(block, 1, blocks.size + 1, threads=threads)
        return counts

    def _at_most(self, n, x, index, t, tf, w, out, scratch) -> np.ndarray:
        """Whether x_i <= t for the rounded point x[j] of each index index[j],
        or index + j for an int ``index``: into the bool array ``out``, or
        with a settle rule into ``scratch``, which is returned.  A point
        below tf - w is <= t, one above tf + w is not, and one in between
        is decided in bulk or settled."""
        np.less_equal(x, tf + w, out=out)
        if not self.settle:
            return out
        below = np.less(x, tf - w, out=scratch)
        band = np.flatnonzero(np.not_equal(out, below, out=out))
        ks = band + index if isinstance(index, int) else index[band]
        if band.size and self.decide:
            le, sure = self.decide(ks, t, tf)
            below[band] = le
            unsure = np.logical_not(sure, out=sure)
            band, ks = band[unsure], ks[unsure]
        if band.size:
            T = Fraction(t if isinstance(t, numbers.Rational) else tf)
            for j, k in zip(band.tolist(), ks.tolist()):
                below[j] = self.settle(n, k, T)
        return below


def _sqrt_frac_decide(k: np.ndarray, t, tf: float) -> tuple[np.ndarray, np.ndarray]:
    """Whether {sqrt k} <= t for the int64 indices k <= 2**52, and where that
    is certain.

    With m = isqrt(k) = floor(fl(sqrt k)) (see ``_sqrt_frac``) and
    j = k - m*m, {sqrt k} <= T for T >= 0 exactly when j <= D = T(2m + T).
    For tau = fl(T) clipped to 1 (T >= 1 holds every point),
    d = fl(fl(2m + tau) * tau) is within 2**-50 d of D, the rounding of a
    rational T to tau included, unless it underflows, where D < 1.  So
    j <= d - 2**-48 d is certain, as is j > d + 2**-48 d, and j = 0, as
    D >= 0; an integer j is uncertain only when D is near an integer.
    """
    if t < 0:
        return np.zeros(k.size, dtype=bool), np.ones(k.size, dtype=bool)
    tau = min(tf, 1.0)
    with workspace(k.size) as ws:
        j, m, d = (a[: k.size] for a in ws.f)
        np.copyto(j, k)
        np.sqrt(j, out=m)
        np.floor(m, out=m)
        j -= np.multiply(m, m, out=d)
        np.multiply(m, 2.0, out=d)
        d += tau
        d *= tau
        # the slack d * 2**-48 is taken twice, as d + slack and d - slack
        gt = np.greater(j, np.add(d, np.multiply(d, 2**-48, out=m), out=m))
        np.subtract(d, np.multiply(d, 2**-48, out=m), out=d)
        le = np.less_equal(j, np.maximum(d, 0.0, out=d))
        return le, np.logical_or(le, gt, out=gt)


def _sqrt_frac_blocks(n: int) -> Blocks:
    """Block m = 1..isqrt(n) holds k = m*m .. m*m + 2m (clipped to n), where
    {sqrt k} = sqrt(k) - m rises, and is <= T in [0, 1) exactly for
    k <= m*m + floor(2mT + T*T).  The offset 2mT + T*T is below 2m + 1 <=
    2**27 + 1; its three roundings in float64, and tau = fl(T) for a rational
    T, move it by less than 2**-23, so its floor is within one of the exact
    floor."""
    # block numbers are cast to float64 once, not through ufunc buffers
    return Blocks(
        head=0,
        size=math.isqrt(n),
        bounds=lambda m: (m * m, np.minimum(m * m + 2 * m, n)),
        guess=lambda m, tau: (
            m * m + 1 + np.floor(2.0 * tau * m.astype(np.float64) + tau * tau).astype(np.int64)
        ),
        at=_sqrt_frac_at,
        rising=True,
    )


def _reciprocal_frac_blocks(n: int) -> Blocks:
    """Indices up to s = isqrt(n) are streamed.  Above s the quotient Q = n//i
    takes at most s values: on block Q, i in (n//(Q+1), n//Q], {n/i} = n/i - Q
    falls, and is <= T exactly for i >= y = n/(Q+T).  The guess
    ceil(fl(n / fl(Q + tau))) takes two roundings of relative error at most
    2**-53 each, and for a rational T the rounding of tau = fl(T), which
    moves Q + T by at most T * 2**-53; for n <= 2**52, y <= 2**52/(Q+T), so
    the guess is within one index of ceil(y).  (Where Q + tau rounds to Q,
    tau <= 2**-53 and the division by Q is exact for Q = 1, so the bound
    still holds.)"""
    s = math.isqrt(n)
    return Blocks(
        head=s,
        size=n // (s + 1),
        bounds=lambda q: (np.maximum(n // (q + 1), s) + 1, n // q),
        guess=lambda q, tau: np.ceil(n / (q.astype(np.float64) + tau)).astype(np.int64),
        at=functools.partial(_reciprocal_frac_at, n),
        rising=False,
    )


def _uniform_blocks(n: int) -> Blocks:
    """One block, 1..n: fl(i/n) rises with i, so the points <= t are a
    prefix.  Its end is floor(n*t') + 1 for the t' up to which values round
    to at most t, and n*(t' - t) <= n*ulp(t)/2 <= t/2; fl(n*tau) is within
    t/2 of n*t, so floor(fl(n*tau)) + 1 is within one of the end."""
    return Blocks(
        head=0,
        size=1,
        bounds=lambda j: (j, j * n),
        guess=lambda j, tau: np.full_like(j, math.floor(tau * n) + 1),
        at=functools.partial(_uniform_at, n),
        rising=True,
    )


# sweep name -> problem; streams call the kernels through module globals, so
# rebinding a kernel on this module takes effect
PROBLEMS = {
    # uniform weights on {i/n : 1 <= i <= n}
    "canonical-uniform": Problem(
        lambda n, a, b, out=None: _uniform_chunk(n, a, b, out=out),
        uniform_cdf,
        blocks=_uniform_blocks,
    ),
    # uniform weights on the fractional parts of sqrt(k), k <= n: the rounded
    # sqrt(k) less the exact isqrt(k) is within half the float spacing at
    # sqrt(k), and {sqrt k} <= T exactly when k <= (isqrt(k) + T)**2
    "example1": Problem(
        lambda n, a, b, out=None: _sqrt_frac_chunk(a, b, out=out),
        uniform_cdf,
        band=lambda stop: np.spacing(math.sqrt(stop)),
        settle=lambda n, k, T: k <= (math.isqrt(k) + T) ** 2,
        decide=_sqrt_frac_decide,
        blocks=_sqrt_frac_blocks,
    ),
    # uniform weights on sin(2*pi*{sqrt k}), k <= n; counted on these float
    # points, so streamed
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
        blocks=_reciprocal_frac_blocks,
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

    The floor sum is exact integer arithmetic, by the hyperbola identity
    sum_{i<=n} floor(n/i) = 2 sum_{i<=s} floor(n/i) - s*s with s = isqrt(n),
    in O(sqrt n); the limit is 2*gamma - 1.
    """
    n = _check_n(n)
    s = math.isqrt(n)

    def kernel(a: int, b: int) -> int:
        with workspace(b - a) as ws:
            i = _indices(a, b, ws.f[0][: b - a].view(np.int64))
            return int(np.floor_divide(n, i, out=i).sum())

    total = 2 * map_reduce_int(kernel, 1, s + 1, threads=threads) - s * s
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


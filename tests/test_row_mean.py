"""example1's mean of a named f by rows (Euler-Maclaurin) against its oracles.

The exact mean of f({sqrt k}) comes from mpmath: the first rows point by
point, the others by Euler-Maclaurin to more terms than the solver takes,
and past a hundred rows by Euler-Maclaurin once more over the row index,
whose row sums are analytic in m.  The solver, which sums the complete
rows as one series, must lie within the bound that ``sequence_average``
proves, and within 2 ulp of the stream, which is the oracle of the route
and still serves every plain callable (test_row_series.py holds the
all-rows oracle).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import problems, sequence_average
from asymptolim.accum import CHUNK
from asymptolim.cli import resolve_function
from asymptolim.problems import (_EM_TERMS, _FIRST_EM_ROW, _SERIES_MATRIX_ERROR, _TRIG_ERROR,
                                 _ZETA_ERROR, _em_remainder, _em_table, _first_em_row,
                                 _harmonic_gap, _poly_part, _series_plan, _series_rows,
                                 _zeta_row)
from asymptolim.special import BERNOULLI_2J, hurwitz_zeta

NAMES = ("sin", "cos", "id", "const1", "poly:0.5,-1.25,2")
U = 2.0**-53
M0 = _FIRST_EM_ROW


def named(name):
    return resolve_function(name)


def stream(name, n, threads=1):
    """The streamed mean: the plain callback, without its analytic part."""
    return sequence_average(n, named(name).fn, threads=threads).empirical


def ulps(a, b):
    return abs(a - b) / math.ulp(b)


# ---------------------------------------------------------------------------
# the bound stated in sequence_average's docstring
# ---------------------------------------------------------------------------

def rho(A, m0):
    """The rows' remainder bound from row m0 on."""
    return _em_remainder(A, -2, 0.5, m0 - 1.0)


def gamma(j):
    return j * U / (1 - j * U)


def series_error(part, s0, L, M):
    """E_t: the series' error over the rows s0 <= m < M."""
    (hi, lo), J, a, e = part.at_one(L)
    d0 = part.rows(np.zeros(1))[2]
    x = np.array([hi, J, *(d0(i)[0] for i in range(2 * _EM_TERMS)), *a])
    ex = np.array([U * abs(hi) / 2 + 2.0**-116, U * abs(J) / 2 + 2.0**-116,
                   *[part.errors[1]] * (2 * _EM_TERMS), *e])
    C = np.array(_series_rows())[: L + 1, : x.size]
    c = C @ x
    ce = np.abs(C) @ (ex + gamma(x.size) * np.abs(x))
    ce += _SERIES_MATRIX_ERROR * np.sum(np.abs(x) + ex)
    S1 = (M * (M + 1) - s0 * (s0 + 1)) // 2
    H = _harmonic_gap(s0, M)
    za = _zeta_row(s0 + 1, L)
    bound = 2 * U * part.bounds[0] + 2 * S1 * (U * abs(lo) + 2.0**-116)
    bound += (M - s0) * (ce[0] + U * abs(c[0]) / 2) + (ce[1] + U * abs(c[1]) / 2) * H
    bound += abs(c[1]) * (1 + 3 * H) * 2.0**-52
    for k in range(2, L + 1):
        zb = hurwitz_zeta(float(k), M + 1.0)
        bound += (ce[k] + U * abs(c[k])) * za[k] + _ZETA_ERROR * abs(c[k]) * (za[k] + zb)
    return bound


def stated_bound(name, n, mean):
    part = named(name).analytic
    e_f, e_d, e_F, e_G = part.errors
    A = part.bounds
    m0 = _first_em_row(A)
    M = math.isqrt(n)
    bound = min(n, m0 * m0 - 1) * (e_f + U * m0 * A[1])
    if M >= m0:
        plan = _series_plan(part, m0, M)
        # the rows m0..s0-1 and M one by one, then the series
        s0 = M if plan is None else plan[0]
        bound += rho(A, m0) + (s0 * (s0 - 1) - m0 * (m0 - 1) + 2 * M) * e_F
        bound += (s0 - m0 + 1) * (2 * e_G + 3 * e_d + 16 * U * max(A))
        if plan is not None:
            bound += series_error(part, *plan, M)
    return 2.0**-52 * (1 + 2.0**-52) * abs(mean) + bound / n


# ---------------------------------------------------------------------------
# the mpmath oracle
# ---------------------------------------------------------------------------

def mp_derivatives(mpmath, name):
    """(i, u) -> f^(i)(u) in mpmath, written apart from the solver's."""
    if name in ("sin", "cos"):
        shift = 0 if name == "sin" else 1
        return lambda i, u: mpmath.sin(u + (i + shift) * mpmath.pi / 2)
    c = {"id": [0, 1], "const1": [1]}.get(name)
    if c is None:
        c = [mpmath.mpf(v) for v in name[len("poly:"):].split(",")]
    return lambda i, u: mpmath.fsum(
        c[j] * math.perm(j, i) * u ** (j - i) for j in range(i, len(c)))


class Oracle:
    FIRST_ROW = 40      # rows below it are summed point by point
    TERMS = 4           # Bernoulli terms in a row
    OUTER_TERMS = 3     # Bernoulli terms over the row index

    def __init__(self, mpmath, name, direct_rows=100):
        self.mp = mpmath
        self.d = mp_derivatives(mpmath, name)
        self.nodes = mpmath.gauss_quadrature(16, "legendre")
        # rows below it are summed one by one
        self.direct_rows = direct_rows

    def gauss(self, g, a, b):
        mid, half = (a + b) / 2, (b - a) / 2
        return half * self.mp.fsum(w * g(mid + half * x) for x, w in zip(*self.nodes))

    def h(self, p, u, w):
        # the p-th derivative of h(x) = f(sqrt(m*m + x) - m), w = m + u
        return self.mp.mpf(0.5) ** p * self.mp.fsum(
            a * self.d(i, u) * w ** (i - 2 * p) for i, a in _em_table(-2, p).items())

    def row(self, m, N):
        """sum_{j=0}^{N} f(sqrt(m*m + j) - m), analytic in a real m."""
        mp = self.mp
        w = mp.sqrt(m * m + N)
        top = w - m
        total = self.gauss(lambda u: 2 * (m + u) * self.d(0, u), 0, top)
        total += (self.d(0, 0) + self.d(0, top)) / 2
        for k, (num, den) in enumerate(BERNOULLI_2J[: self.TERMS], start=1):
            p = 2 * k - 1
            total += mp.mpf(num) / (den * math.factorial(2 * k)) * (
                self.h(p, top, w) - self.h(p, 0, m))
        return total

    def full_rows(self, a, b):
        """sum of the full rows a <= m <= b, by Euler-Maclaurin over m."""
        mp = self.mp
        rows = lambda m: self.row(m, 2 * m)
        total, lo = (rows(mp.mpf(a)) + rows(mp.mpf(b))) / 2, mp.mpf(a)
        while lo < b:
            hi = min(4 * lo, mp.mpf(b))
            total += self.gauss(rows, lo, hi)
            lo = hi
        for k, (num, den) in enumerate(BERNOULLI_2J[: self.OUTER_TERMS], start=1):
            total += mp.mpf(num) / (den * math.factorial(2 * k)) * (
                mp.diff(rows, b, 2 * k - 1) - mp.diff(rows, a, 2 * k - 1))
        return total

    def mean(self, n):
        mp = self.mp
        M = math.isqrt(n)
        head = min(n + 1, min(M + 1, self.FIRST_ROW) ** 2)
        total = mp.fsum(self.d(0, mp.sqrt(k) - math.isqrt(k)) for k in range(1, head))
        direct = min(M, self.direct_rows)
        total += mp.fsum(self.row(mp.mpf(m), 2 * m) for m in range(self.FIRST_ROW, direct))
        if direct < M:
            total += self.full_rows(direct, M - 1)
        if M >= self.FIRST_ROW:
            total += self.row(mp.mpf(M), n - M * M)
        return total / n


@pytest.fixture(scope="module")
def mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def test_the_oracle_sums_points_one_by_one(mpmath):
    # rows from 45 on take the Euler-Maclaurin sum over the row index; the
    # bounds it checks are above 1e-16
    for name in ("sin", "poly:0.5,-1.25,2"):
        oracle = Oracle(mpmath, name, direct_rows=45)
        for n in (2000, 60**2 + 7):
            direct = mpmath.fsum(oracle.d(0, mpmath.sqrt(k) - math.isqrt(k))
                                 for k in range(1, n + 1)) / n
            assert abs(oracle.mean(n) - direct) < 1e-19


def test_em_table_gives_both_closed_forms():
    # alpha = 1: the unsigned Lah numbers; alpha = -2: the rows' integers,
    # each table from i = p down to 1, the order in which the terms are summed
    f = math.factorial
    for p in range(1, 2 * _EM_TERMS + 3):
        assert list(_em_table(1, p)) == list(_em_table(-2, p)) == list(range(p, 0, -1))
        assert _em_table(1, p) == {i: math.comb(p - 1, i - 1) * f(p) // f(i)
                                   for i in range(1, p + 1)}
        assert _em_table(-2, p) == {
            i: Fraction((-1) ** (p - i) * f(2 * p - i - 1), f(i - 1) * f(p - i) * 2 ** (p - i))
            for i in range(1, p + 1)}


def test_table_gives_the_derivatives_of_h(mpmath):
    for name in ("cos", "poly:0.5,-1.25,2"):
        oracle = Oracle(mpmath, name)
        for m, x in ((3, 0), (5, 2.5), (40, 80)):
            def h(t, m=m):
                return oracle.d(0, mpmath.sqrt(m * m + t) - m)
            w = mpmath.sqrt(m * m + x)
            for p in range(1, 2 * _EM_TERMS + 3):
                assert abs(oracle.h(p, w - m, w) - mpmath.diff(h, x, p)) < 1e-20


def test_trig_error_is_as_stated(mpmath):
    x = np.concatenate((np.linspace(0.0, 1.0, 4001)[1:],
                        np.random.default_rng(7).random(4000),
                        np.geomspace(1e-300, 1e-3, 200)))
    for np_f, mp_f in ((np.sin, mpmath.sin), (np.cos, mpmath.cos)):
        got = np_f(x)
        for xv, gv in zip(x.tolist(), got.tolist()):
            exact = mp_f(xv)
            assert abs(gv - exact) <= _TRIG_ERROR * abs(exact), (np_f, xv)


# 80 (f, n) pairs: streamed, row 32 alone, the series from 33**2 on, and
# up to 2**52 - 1
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 7, M0 * M0 - 1, M0 * M0 + 1, 33**2 - 1, 33**2, 33**2 + 1,
                               1500, 12345, 10**6, 10**9 + 7, 2**40, 10**15 + 37, 2**52 - 1])
def test_within_the_stated_bound_of_the_exact_mean(mpmath, name, n):
    got = sequence_average(n, named(name)).empirical
    exact = Oracle(mpmath, name).mean(n)
    assert abs(got - exact) <= stated_bound(name, n, got)


def alternating(c, q):
    """poly:c,-2c,3c,... of degree q, whose high derivatives are large."""
    return "poly:" + ",".join(repr((-1) ** i * (i + 1) * c) for i in range(q + 1))


def test_first_row_brackets_the_remainder():
    # the named f start at row 32; the polynomials of degree 8 and more
    # start later, after two or three doublings from 32
    for name in NAMES:
        assert _first_em_row(named(name).analytic.bounds) == M0
    polys = {(0.37, 10): 141, **{(c, q): m0 for c in (3.1, 40.0)
                                 for q, m0 in ((4, M0), (8, 79), (11, 175))}}
    for (c, q), first in polys.items():
        A = named(alternating(c, q)).analytic.bounds
        m0 = _first_em_row(A)
        assert m0 == first and rho(A, m0) <= U * A[0], (c, q)
        assert m0 == M0 or U * A[0] < rho(A, m0 - 1), (c, q)


def test_first_row_holds_the_remainder_below_one_rounding(mpmath):
    # a polynomial with large high derivatives starts later (141), which
    # keeps its mean near the exact one: from row 32 it was 3.0 ulp off at
    # n = 25000, and 6.6 ulp at n = 5000
    name = alternating(0.37, 10)
    oracle = Oracle(mpmath, name)
    for n in (25000, 40000, 10**6 + 3):
        got = sequence_average(n, named(name)).empirical
        assert abs(got - oracle.mean(n)) <= 1.5 * math.ulp(got), n


def test_stated_bound_is_a_few_ulp_at_large_n():
    # the bound is worst case; at n = 1e7 and beyond the final rounding
    # dominates it, below 2 ulp of the mean plus a small part
    for name in NAMES:
        for n in (10**7, 2**52 - 1):
            mean = sequence_average(n, named(name)).empirical
            assert stated_bound(name, n, mean) < 2.5 * math.ulp(mean), (name, n)


# ---------------------------------------------------------------------------
# the stream, threads and the routes taken
# ---------------------------------------------------------------------------

STREAM_NS = [1, 2, 3, 7, 100, M0 * M0 - 1, M0 * M0, M0 * M0 + 1, 1100, 1500, 2025, 4097,
             12345, 65536, CHUNK - 1, CHUNK + 1, 10**6 + 3, 10**7]


@pytest.mark.parametrize("name", NAMES)
def test_within_2_ulp_of_the_stream(name):
    f = named(name)
    for n in STREAM_NS:
        got, streamed = sequence_average(n, f).empirical, stream(name, n)
        assert ulps(got, streamed) <= 2, n
        if n < M0 * M0:
            assert got.hex() == streamed.hex(), n


def test_const1_sums_each_row_to_its_count():
    for n in (M0 * M0, 12345, 10**7, 2**40 + 3):
        assert sequence_average(n, named("const1")).empirical == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_threads_give_the_same_bits(name):
    # the series after one row and after many; test_row_series.py has a
    # head long enough for several chunks
    for n in (33**2 + 1, 10**7, 2**36 + 7, 2**52 - 1):
        bits = {sequence_average(n, named(name), threads=t).empirical.hex() for t in (1, 2)}
        assert len(bits) == 1, n


def test_a_plain_callable_streams_and_a_named_one_streams_its_head(monkeypatch):
    calls = []
    kernel = problems._sqrt_frac_chunk

    def counted(start, stop, out=None):
        calls.append(stop - start)
        return kernel(start, stop, out=out)

    monkeypatch.setattr(problems, "_sqrt_frac_chunk", counted)
    n = 2 * CHUNK + 5
    sequence_average(n, np.sin)
    assert len(calls) == 3 and sum(calls) == n
    calls.clear()
    sequence_average(n, named("sin"))
    # the k below m0*m0 stream through the stream's kernel, in one chunk
    assert calls == [M0 * M0 - 1] == [1023]


def test_huge_polynomials_stream():
    # their partials could overflow; the stream reports the overflow
    assert _poly_part((1e308, 1e308)) is None
    assert _poly_part((float("nan"),)) is None
    assert _poly_part((0.5, -1.25, 2.0)) is not None
    assert named("poly:1e308,1e308").analytic is None

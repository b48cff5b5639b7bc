"""example1's complete rows summed as one series in t = 1/(m + 1).

The series' matrix against its exact rationals, a row's series against the
row's Euler-Maclaurin value in mpmath, the harmonic and Hurwitz zeta values
it takes against mpmath, and the solver against the all-rows route, the
route it replaced, kept here as an oracle: every row m0..isqrt(n) by
``_em_rows``.  test_row_mean.py checks the solver against the exact mean
within the bound of ``sequence_average``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from test_row_mean import NAMES, Oracle, mp_derivatives, named, ulps

from asymptolim import problems, sequence_average
from asymptolim.accum import CHUNK, exact_partials
from asymptolim.problems import (_EM_TERMS, _SERIES_MATRIX_ERROR, _SERIES_ORDER, _ZETA_ERROR,
                                 _em_rows, _first_em_row, _harmonic_gap, _indices, _mean_sum,
                                 _series_matrix, _series_order, _series_plan, _series_rows,
                                 _series_weights)
from asymptolim.special import hurwitz_zeta


def all_rows(f, n, threads=1):
    """The mean by rows alone: the k below m0*m0 stream, and every row
    m0..isqrt(n) is summed by ``_em_rows``."""
    part = f.analytic
    first = _first_em_row(part.bounds)
    d0 = part.rows(np.zeros(1))[2]

    def em(a, b):
        m = _indices(first + a, first + b, np.empty(b - a))
        return exact_partials(_em_rows(part, m, np.minimum(2.0 * m, n - m * m), d0))

    return _mean_sum(f, problems.PROBLEMS["example1"].points, n,
                     [(1, min(n + 1, first * first))], threads,
                     max(0, math.isqrt(n) + 1 - first), em) / n


def test_matrix_is_within_its_stated_error_of_the_exact_one():
    exact = _series_matrix(_SERIES_ORDER, Fraction(1))
    rows = _series_rows()
    assert len(rows) == _SERIES_ORDER + 1 == len(exact)
    for got, want in zip(rows, exact):
        assert len(got) == len(want) == 2 + 2 * _EM_TERMS + _SERIES_ORDER + 1
        for g, w in zip(got, want):
            assert abs(Fraction(g) - w) <= _SERIES_MATRIX_ERROR


def test_a_smaller_order_is_a_leading_block():
    big, small = _series_matrix(12, Fraction(1)), _series_matrix(7, Fraction(1))
    width = 2 + 2 * _EM_TERMS
    assert (big[:8, : width + 8] == small).all()
    # row k takes a_j for j <= k alone
    assert all(big[k, width + j] == 0 for k in range(13) for j in range(k + 1, 13))


@pytest.fixture(scope="module")
def mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


@pytest.mark.parametrize("name", NAMES)
def test_series_gives_a_complete_rows_value(mpmath, name):
    # 2 (F(1) - F(0))/t + sum c_k t**k, with the exact matrix and f's exact
    # values, against the row's Euler-Maclaurin value with K terms: the
    # terms past t**16 are below 1e-20 from row 32 on
    mp = mpmath
    d = mp_derivatives(mp, name)
    K = _EM_TERMS
    dF = mp.quad(lambda u: d(0, u), [0, 1])
    dG = mp.quad(lambda u: u * d(0, u), [0, 1])
    x = [dF, dG, *(d(i, 0) for i in range(2 * K)),
         *(d(j, 1) / math.factorial(j) for j in range(_SERIES_ORDER + 1))]
    C = _series_matrix(_SERIES_ORDER, Fraction(1))
    exact = [[Fraction(v) for v in row] for row in C]
    c = [mp.fsum(mp.mpf(v.numerator) / v.denominator * xv for v, xv in zip(row, x))
         for row in exact]
    oracle = Oracle(mp, name)
    oracle.TERMS = K
    for m in (32, 33, 100, 1000, 10**6):
        t = mp.mpf(1) / (m + 1)
        series = 2 * dF / t + mp.fsum(ck * t**k for k, ck in enumerate(c))
        row = oracle.row(mp.mpf(m), 2 * m)
        assert abs(series - row) < 1e-20, m


def test_zeta_values_are_within_their_stated_error(mpmath):
    # the x the series takes: s0 + 1 >= 33 and M + 1 <= 2**26 + 1
    rng = np.random.default_rng(5)
    xs = {33, 34, 65, 142, 257, 1000, 3163, 10**5, 2**26, 2**26 + 1}
    xs |= {int(v) for v in np.exp(rng.uniform(math.log(33), math.log(2**26 + 1), 30))}
    with mpmath.workdps(120):
        for k in range(2, _SERIES_ORDER + 1):
            for x in sorted(xs):
                exact = mpmath.zeta(k, x)
                assert abs(hurwitz_zeta(float(k), float(x)) - exact) <= _ZETA_ERROR * exact, (k, x)


def test_harmonic_gap_is_within_its_stated_error(mpmath):
    rng = np.random.default_rng(6)
    pairs = [(a, b) for a in (32, 33, 100, 141, 1324, 2**20) for b in (a, a + 1, 2 * a, 2**26)]
    pairs += [tuple(sorted(int(v) for v in p))
              for p in np.exp(rng.uniform(math.log(32), math.log(2**26), (100, 2)))]
    for a, b in pairs:
        exact = mpmath.harmonic(b) - mpmath.harmonic(a)
        assert abs(_harmonic_gap(a, b) - exact) <= (1 + 3 * exact) * 2.0**-52, (a, b)


def alternating(c, q):
    return "poly:" + ",".join(repr((-1) ** i * (i + 1) * c) for i in range(q + 1))


# n either side of 33**2, where the series starts, and of the chunk edge,
# random n to 1e9 and a prime
ROWS_NS = [33**2 - 1, 33**2, 33**2 + 1, 33**2 + 66, 34**2, 5000, CHUNK - 1, CHUNK + 1,
           10**6 + 3, 10**7, 10**9 + 7, 10**9]
ROWS_NS += [int(v) for v in np.exp(np.random.default_rng(7).uniform(math.log(1100), 20.7, 12))]


@pytest.mark.parametrize("name", NAMES + ("poly:0.3,-0.2,0.7", alternating(0.37, 10)))
def test_within_2_ulp_of_all_rows(name):
    f = named(name)
    for n in ROWS_NS:
        got, rows = sequence_average(n, f).empirical, all_rows(f, n)
        assert ulps(got, rows) <= 2, n
        if n < 33**2:
            assert got.hex() == rows.hex(), n


def test_a_late_first_row_starts_the_series_there_and_threads_agree():
    # 40 ones: rows from 1324 on by Euler-Maclaurin, so the head streams
    # 1324**2 - 1 points, 14 chunks, ahead of the last row and the series
    f = named("poly:" + ",".join(["1"] * 40))
    first = _first_em_row(f.analytic.bounds)
    assert first == 1324 and _series_plan(f.analytic, first, 2**26)[0] == first
    n = 10**12 + 7
    bits = {sequence_average(n, f, threads=t).empirical.hex() for t in (1, 2, 3)}
    assert len(bits) == 1
    assert ulps(float.fromhex(bits.pop()), all_rows(f, n)) <= 2


def test_series_starts_later_where_its_tail_needs_it():
    # 1 + 1e-20 x**100 bounds its disc far above A_0 = 1, so from row 32
    # the tail needs more powers than the plan allows; the series starts
    # at row 256, after three doublings, and the rows below it go one by
    # one
    f = named("poly:1," + ",".join(["0"] * 99) + ",1e-20")
    part = f.analytic
    first = _first_em_row(part.bounds)
    assert first == 32 and _series_plan(part, first, 2**26) == (256, _SERIES_ORDER - 2)
    assert _series_plan(part, first, 256) is None
    for n in (256**2 - 1, 257**2, 10**9 + 7):
        assert ulps(sequence_average(n, f).empirical, all_rows(f, n)) <= 2, n


def test_no_order_where_the_disc_bound_overflows():
    # 1000 coefficients of 1e-300: |f|'s bound on the disc of radius
    # rU + 1 = 2.27 sums r**i, which overflows past i = 868, so the tail has
    # no bound and the series takes no row
    part = named("poly:" + ",".join(["1e-300"] * 1000)).analytic
    with pytest.raises(OverflowError):
        part.disc(_series_weights()[0] + 1.0)
    assert _series_order(part, 32) is None


@pytest.mark.parametrize("name", NAMES)
def test_the_largest_n_returns(name):
    # by rows this took 22 s; the series takes no pass over them
    result = sequence_average(2**52 - 1, named(name))
    assert result.n == 2**52 - 1 and result.abs_error < 1e-7

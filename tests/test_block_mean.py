"""example4's mean of a named f by quotient blocks (Euler-Maclaurin) against
its oracles.

The exact mean of f({n/i}) comes from mpmath: the indices up to
n // (Q' + 1) point by point, and the blocks Q <= Q' by Euler-Maclaurin to
more terms than the solver takes, for Q' about sqrt(n)/4, where those terms
fall off fast.  The solver must lie within the bound that
``frac_n_over_i_mean`` proves, and within 2 ulp of the stream, which is the
oracle of the route and still serves every plain callable.  At n too large
for a whole oracle, single blocks are checked against the oracle's blocks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import frac_n_over_i_mean, problems
from asymptolim.accum import CHUNK
from asymptolim.problems import (_BLOCK_POINTS, _EM_TERMS, _GAUSS_NODES, _em_blocks,
                                 _em_remainder, _em_table, _gauss_rule, _last_block,
                                 resolve_function)
from asymptolim.special import BERNOULLI_2J

NAMES = ("sin", "cos", "id", "const1", "poly:0.5,-1.25,2")
U = 2.0**-53


def named(name):
    return resolve_function(name)


def stream(name, n, threads=1):
    """The streamed mean: the plain callback, without its analytic part."""
    return frac_n_over_i_mean(n, named(name).fn, threads=threads).empirical


def ulps(a, b):
    return abs(a - b) / math.ulp(b)


def coefficients(name):
    return {"id": [0.0, 1.0], "const1": [1.0]}.get(name) or [
        float(c) for c in name[len("poly:"):].split(",")]


# ---------------------------------------------------------------------------
# the bound stated in frac_n_over_i_mean's docstring
# ---------------------------------------------------------------------------

def rho(A, n, last):
    """The blocks' remainder bound up to block ``last``."""
    return _em_remainder(A, 1, -1.0 / n, last + 1.0)


def disc_bound(name):
    """M: |f| over the complex disc |z - 1/2| <= 17/16."""
    if name in ("sin", "cos"):
        return math.cosh(17 / 16) * (1 + 2.0**-40)
    return math.fsum(abs(c) * (25 / 16) ** i for i, c in enumerate(coefficients(name))) * (
        1 + 2.0**-40)


def block_terms(name, n, Q):
    """The part of E that block Q (a float array of them) adds."""
    part = named(name).analytic
    e_f, e_d, _, _ = part.errors
    A = part.bounds
    rule = n * (1.01 * e_f + 8.1 * U * A[0] + 1.01 * U * A[1]) / Q**2
    gauss = 32 / 225 * n * disc_bound(name) * 16.0**-_GAUSS_NODES / (Q - 9 / 16) ** 2
    return rule + gauss + 2 * e_d + 10 * U * max(A)


def stated_bound(name, n, mean):
    part = named(name).analytic
    e_f = part.errors[0]
    A = part.bounds
    last = _last_block(A, n)
    bound = n // (last + 1) * (e_f + U * A[1] / 2)
    if last:
        blocks = block_terms(name, n, np.arange(1.0, last + 1.0))
        bound += rho(A, n, last) + math.fsum(blocks.tolist())
    return 2.0**-53 * (1 + 2.0**-52) * abs(mean) + bound / n


# ---------------------------------------------------------------------------
# the mpmath oracle
# ---------------------------------------------------------------------------

def mp_derivatives(mpmath, name):
    """(i, v) -> f^(i)(v) in mpmath, written apart from the solver's."""
    if name in ("sin", "cos"):
        shift = 0 if name == "sin" else 1
        return lambda i, v: mpmath.sin(v + (i + shift) * mpmath.pi / 2)
    c = [mpmath.mpf(v) for v in coefficients(name)]
    return lambda i, v: mpmath.fsum(
        c[j] * math.perm(j, i) * v ** (j - i) for j in range(i, len(c)))


class Oracle:
    TERMS = 8  # Bernoulli terms in a block

    def __init__(self, mpmath, name):
        self.mp = mpmath
        self.d = mp_derivatives(mpmath, name)
        self.nodes = mpmath.gauss_quadrature(24, "legendre")

    def gauss(self, g, a, b):
        mid, half = (a + b) / 2, (b - a) / 2
        return half * self.mp.fsum(w * g(mid + half * x) for x, w in zip(*self.nodes))

    def block(self, n, Q):
        """sum of f(n/i - Q) over block Q, by Euler-Maclaurin."""
        mp = self.mp
        a, b = n // (Q + 1) + 1, n // Q
        va, vb = mp.mpf(n % a) / a, mp.mpf(n % b) / b
        total = n * self.gauss(lambda v: self.d(0, v) / (v + Q) ** 2, vb, va)
        total += (self.d(0, va) + self.d(0, vb)) / 2
        ends = [(vb, [self.d(i, vb) for i in range(2 * self.TERMS)], 1),
                (va, [self.d(i, va) for i in range(2 * self.TERMS)], -1)]
        for k, (num, den) in enumerate(BERNOULLI_2J[: self.TERMS], start=1):
            p = 2 * k - 1
            c = mp.mpf(num) / (den * math.factorial(2 * k)) * (mp.mpf(-1) / n) ** p
            for v, d, sign in ends:
                total += sign * c * mp.fsum(a * d[i] * (v + Q) ** (p + i)
                                            for i, a in _em_table(1, p).items())
        return total

    def mean(self, n):
        mp = self.mp
        last = math.isqrt(n) // 4
        head = n // (last + 1)
        total = mp.fsum(self.d(0, mp.mpf(n % i) / i) for i in range(1, head + 1))
        total += mp.fsum(self.block(n, Q) for Q in range(1, last + 1))
        return total / n


@pytest.fixture(scope="module")
def mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def test_the_oracle_sums_points_one_by_one(mpmath):
    for name in ("sin", "poly:0.5,-1.25,2"):
        oracle = Oracle(mpmath, name)
        for n in (2000, 60**2 + 7):
            direct = mpmath.fsum(oracle.d(0, mpmath.mpf(n % i) / i) for i in range(1, n + 1)) / n
            assert abs(oracle.mean(n) - direct) < 1e-20


def test_table_gives_the_derivatives_of_h(mpmath):
    for name in ("cos", "poly:0.5,-1.25,2"):
        d = mp_derivatives(mpmath, name)
        for n, Q, x in ((1000, 3, 260.5), (12345, 7, 1600), (10**6 + 3, 40, 24700.25)):
            def h(t, n=n, Q=Q):
                return d(0, n / t - Q)
            w = mpmath.mpf(n) / x
            for p in range(1, 2 * _EM_TERMS + 3):
                formula = (mpmath.mpf(-1) / n) ** p * mpmath.fsum(
                    a * d(i, w - Q) * w ** (p + i) for i, a in _em_table(1, p).items())
                exact = mpmath.diff(h, x, p)
                assert abs(formula - exact) <= 1e-20 * max(1, abs(exact)), (name, n, p)


def test_gauss_rule_is_correctly_rounded(mpmath):
    with mpmath.workdps(50):
        nodes, weights = mpmath.gauss_quadrature(_GAUSS_NODES, "legendre")
        exact = sorted(zip(nodes, weights))
    x, w = _gauss_rule()
    assert x.tolist() == [float(a) for a, _ in exact]
    assert w.tolist() == [float(b) for _, b in exact]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n", [1, 7, 1000, 12345, 10**5 + 3, 10**6 + 3])
def test_within_the_stated_bound_of_the_exact_mean(mpmath, name, n):
    got = frac_n_over_i_mean(n, named(name)).empirical
    exact = Oracle(mpmath, name).mean(n)
    assert abs(got - exact) <= stated_bound(name, n, got)
    assert abs(got - exact) <= 1.5 * math.ulp(got)


def test_within_the_stated_bound_at_ten_million(mpmath):
    n = 10**7 + 19
    got = frac_n_over_i_mean(n, named("sin")).empirical
    exact = Oracle(mpmath, "sin").mean(n)
    assert abs(got - exact) <= stated_bound("sin", n, got)


@pytest.mark.parametrize("name", ("sin", "id", "poly:0.5,-1.25,2"))
@pytest.mark.parametrize("n", [10**9 + 7, 10**12 + 39, 2**52 - 1])
def test_blocks_within_their_stated_part_at_large_n(mpmath, name, n):
    # the first blocks, which hold most points, and the last ones
    part = named(name).analytic
    last = _last_block(part.bounds, n)
    oracle = Oracle(mpmath, name)
    remainder = rho(part.bounds, n, last)
    for Q in (1, 2, 3, last - 1, last):
        exact_partials = sum(map(Fraction, _em_blocks(named(name), part, n, Q, Q + 1)))
        got = mpmath.mpf(exact_partials.numerator) / exact_partials.denominator
        bound = float(block_terms(name, n, np.array([float(Q)]))[0]) + remainder
        assert abs(got - oracle.block(n, Q)) <= bound, Q


def test_last_block_holds_the_remainder_below_one_rounding():
    # the polynomials of degree 8 and 11, whose high derivatives are large,
    # stop below the cap, and at n = 1000 those of degree 11 sum no block
    polys = ["poly:" + ",".join(repr((-1) ** i * (i + 1) * c) for i in range(q + 1))
             for c in (3.1, 40.0) for q in (4, 8, 11)]
    for name in NAMES + tuple(polys):
        A = named(name).analytic.bounds
        for n in (1000, 12345, 10**7, 10**12, 2**52 - 1):
            last = _last_block(A, n)
            cap = math.isqrt(n // _BLOCK_POINTS)
            assert (name in polys or 1 <= last) and last <= cap and (last + 1) ** 2 <= n
            assert last == 0 or rho(A, n, last) <= U * A[0]
            if last < cap:
                assert rho(A, n, last + 1) > U * A[0]
    # at 1e7 sin and cos stream 21,739 points, id the 17,857 below the cap
    assert _last_block(named("sin").analytic.bounds, 10**7) == 459
    assert _last_block(named("id").analytic.bounds, 10**7) == math.isqrt(10**7 // _BLOCK_POINTS)


def test_stated_bound_is_a_few_dozen_ulp_at_large_n():
    # the polynomial's A_0 = 3.75 is 7.6 times its mean
    for name, ulp in (("sin", 50), ("cos", 30), ("id", 40), ("const1", 20),
                      ("poly:0.5,-1.25,2", 200)):
        for n in (10**7, 10**9 + 7):
            mean = frac_n_over_i_mean(n, named(name)).empirical
            assert stated_bound(name, n, mean) < ulp * math.ulp(mean), name


# ---------------------------------------------------------------------------
# the stream, threads and the routes taken
# ---------------------------------------------------------------------------

STREAM_NS = [1, 2, 3, 7, 63, 64, 100, 211, 212, 285, 286, 345, 346, 1000, 4097, 12345, 65536,
             CHUNK - 1, CHUNK + 1, 10**6 + 3, 3 * 10**6 + 1]


@pytest.mark.parametrize("name", NAMES)
def test_within_2_ulp_of_the_stream(name):
    f = named(name)
    for n in STREAM_NS:
        assert ulps(frac_n_over_i_mean(n, f).empirical, stream(name, n)) <= 2, n


def test_const1_within_its_bound_of_1():
    for n in (64, 12345, 10**7, 2**40 + 3):
        got = frac_n_over_i_mean(n, named("const1")).empirical
        assert abs(got - 1.0) <= stated_bound("const1", n, got)


@pytest.mark.parametrize("name", NAMES)
def test_threads_give_the_same_bits(name):
    # the head and the blocks fill several chunks, one of them both
    n = 10**10 + 19
    bits = {frac_n_over_i_mean(n, named(name), threads=t).empirical.hex() for t in (1, 2)}
    assert len(bits) == 1


def test_a_plain_callable_streams_and_a_named_one_streams_its_head(monkeypatch):
    calls = []
    kernel = problems._reciprocal_frac_chunk

    def counted(n, start, stop, out=None):
        calls.append(stop - start)
        return kernel(n, start, stop, out=out)

    monkeypatch.setattr(problems, "_reciprocal_frac_chunk", counted)
    n = 2 * CHUNK + 5
    frac_n_over_i_mean(n, np.sin)
    assert len(calls) == 3 and sum(calls) == n
    calls.clear()
    frac_n_over_i_mean(n, named("sin"))
    last = _last_block(named("sin").analytic.bounds, n)
    assert last > 50 and calls == [n // (last + 1)]
    calls.clear()
    frac_n_over_i_mean(10**7, named("sin"))
    last = _last_block(named("sin").analytic.bounds, 10**7)
    assert calls == [10**7 // (last + 1)] == [21_739]


def test_huge_polynomials_stream():
    # no analytic part: the callback streams, and the stream reports the
    # overflow
    f = named("poly:1e308,1e308")
    assert f.analytic is None
    for g in (f, f.fn):
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            frac_n_over_i_mean(1000, g)

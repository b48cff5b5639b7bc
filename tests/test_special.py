import math
import time

import numpy as np
import pytest

from asymptolim import (
    EULER_GAMMA,
    digamma,
    frac_limit_cdf,
    frac_limit_cdf_series,
    frac_limit_density,
    harmonic,
    hurwitz_zeta,
    integrate_smooth,
    trigamma,
)
from asymptolim.accum import CHUNK
from asymptolim.problems import frac_limit_smooth_cdf
from asymptolim import special
from asymptolim.special import MAX_SERIES_TERMS
from asymptolim.stieltjes import adaptive_quadrature


def psi_series_oracle(x, terms=200_000):
    """Independent digamma: -gamma + sum(1/(k+1) - 1/(k+x)) with the exact
    integral of the tail past the last term (midpoint rule)."""
    k = np.arange(terms, dtype=np.float64)
    head = math.fsum((1.0 / (k + 1.0) - 1.0 / (k + x)).tolist())
    t = terms - 0.5
    tail = math.log((t + x) / (t + 1.0))
    return -EULER_GAMMA + head + tail


def trigamma_series_oracle(x, terms=200_000):
    """Independent trigamma: partial sums of 1/(m+x)^2 plus integral tail."""
    m = np.arange(terms, dtype=np.float64)
    head = math.fsum(((m + x) ** -2.0).tolist())
    return head + 1.0 / (terms + x - 0.5)


def frac_limit_series_oracle(t, terms=200_000):
    """Independent limit CDF: sum(1/m - 1/(m+t)) plus integral tail."""
    m = np.arange(1, terms + 1, dtype=np.float64)
    head = math.fsum((1.0 / m - 1.0 / (m + t)).tolist())
    u = terms + 0.5
    return head + math.log((u + t) / u)


class TestConstants:
    """The float constants derive from one exact table and one literal, and
    keep the bits of the float literals they replaced."""

    def test_bernoulli_floats_keep_their_bits(self):
        # the float literals of the tables before they were derived
        psi_tail = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0)
        b2j = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
               -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0)
        assert [x.hex() for x in special._PSI_TAIL] == [x.hex() for x in psi_tail]
        assert [x.hex() for x in special._B2J] == [x.hex() for x in b2j]
        assert special._LOG_B18 == math.log(43867.0 / 798.0) - math.lgamma(19.0)

    def test_bernoulli_table_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for j, pair in enumerate(special.BERNOULLI_2J, start=1):
            assert pair == mpmath.bernfrac(2 * j)

    def test_gamma_literal(self):
        assert float(special.EULER_GAMMA_50) == EULER_GAMMA
        assert EULER_GAMMA.hex() == (0.5772156649015329).hex()
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            gap = abs(mpmath.mpf(special.EULER_GAMMA_50) - mpmath.euler)
            assert gap <= mpmath.mpf("5e-51")


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12

    def test_at_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-12

    def test_at_half(self):
        closed = -EULER_GAMMA - 2.0 * math.log(2.0)  # -1.9635100260214235
        assert abs(digamma(0.5) - closed) <= 1e-12
        assert abs(psi_series_oracle(0.5) - closed) <= 1e-12

    def test_against_series_oracle(self):
        for x in (0.1, 0.25, 0.9, 1.7, 3.3, 12.0, 47.5):
            assert abs(digamma(x) - psi_series_oracle(x)) <= 1e-12

    def test_recurrence(self):
        rng = np.random.default_rng(71)
        for x in rng.random(50) * 10.0 + 1e-3:
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)


class TestTrigamma:
    def test_at_one(self):
        assert abs(trigamma(1.0) - math.pi**2 / 6.0) <= 1e-10
        assert abs(trigamma_series_oracle(1.0) - math.pi**2 / 6.0) <= 1e-10

    def test_shifted_tail_at_half(self):
        direct = trigamma_series_oracle(1.5)
        assert abs((trigamma(0.5) - 4.0) - direct) <= 1e-10

    def test_recurrence(self):
        rng = np.random.default_rng(73)
        for x in rng.random(50) * 10.0 + 1e-3:
            assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            trigamma(0.0)


class TestHurwitzZeta:
    def test_basel_value(self):
        assert abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0) <= 1e-12

    def test_matches_trigamma(self):
        for x in (0.25, 0.5, 1.5, 2.0, 3.3, 4.9):
            assert abs(hurwitz_zeta(2.0, x) - trigamma(x)) <= 1e-10

    def test_index_shift(self):
        # near x = 0 the value grows like x**(-s), so 1e-12 can only be
        # asked relative to the magnitude (one ulp of 4e4 is already 7e-12)
        rng = np.random.default_rng(79)
        for _ in range(50):
            s = 1.0 + float(rng.random()) * 5.0 + 0.1
            x = float(rng.random()) * 10.0 + 0.05
            lhs = hurwitz_zeta(s, x + 1.0)
            rhs = hurwitz_zeta(s, x) - x ** (-s)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, x ** (-s))

    def test_integral_representation_oracle(self):
        # the derivative-of-digamma kernel: integral of t*exp(-t*x)/(1-exp(-t))
        # agrees with zeta(2, x) at coarse accuracy
        for x in (0.8, 1.5, 3.0):
            integrand = lambda t: (t / -math.expm1(-t)) * math.exp(-t * x)
            val = adaptive_quadrature(integrand, 0.0, 60.0 / x, tol=1e-9).value
            assert abs(val - hurwitz_zeta(2.0, x)) <= 1e-6

    def test_huge_s_stops_early(self):
        # the head sum stops once the rest is negligible, instead of running
        # up to the expansion start of about 1.1 s
        assert hurwitz_zeta(1e9, 1.0) == 1.0
        assert hurwitz_zeta(1e300, 2.0) == 0.0
        assert hurwitz_zeta(1.7e308, 1.0) == 1.0
        assert hurwitz_zeta(1e6, 1.0 + 2.0**-30) == (1.0 + 2.0**-30) ** -1e6

    @pytest.mark.parametrize(
        "x,expected", [(0.5, math.inf), (1.0, 1.0), (2.0, 0.0), (1e308, 0.0), (math.inf, 0.0)]
    )
    def test_infinite_s_is_the_limit(self, x, expected):
        # the head loop's stop test reads inf * 0 = nan at s = inf, so this
        # case is answered before it
        start = time.perf_counter()
        assert hurwitz_zeta(math.inf, x) == expected
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("s", [*range(2, 17), *np.random.default_rng(5).uniform(1.0, 60.0, 12),
                                   1.0 + 2.0**-40, 1e9, 1e300])
    def test_kept_start_is_the_formula(self, s):
        # the start depends on s alone and is kept per s: a second call, from
        # the cache, gives the same float as the first
        s = float(s)
        log_ratio = math.fsum([special._LOG_B18, 53 * math.log(2.0), math.log(s - 1.0)]
                              + [math.log(s + j) for j in range(17)])
        want = max(12.0, math.exp(min(log_ratio / 18.0, 709.0)))
        assert special._zeta_start(s) == want
        assert special._zeta_start(s) == want

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)


class TestHarmonic:
    def test_first_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, abs=1e-15)

    def test_asymptotic_gap(self):
        for n in (10**2, 10**4, 10**6):
            gap = harmonic(n) - math.log(n) - EULER_GAMMA
            assert 0.0 < gap < 1.0 / n

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic(0)

    @pytest.mark.parametrize("n", [2.5, 0.5, math.inf, -math.inf, math.nan])
    def test_a_fractional_or_non_finite_n_is_rejected(self, n):
        # 2.5 once gave H_2 and inf an OverflowError
        with pytest.raises(ValueError, match="harmonic requires"):
            harmonic(n)

    def test_an_integral_float_is_an_index(self):
        assert harmonic(1e6) == harmonic(10**6)
        with pytest.raises(ValueError, match="harmonic requires n >= 1"):
            harmonic(0.0)

    # the sum of the rounded terms 1.0/i, the old route up to 2**20, stays as
    # the oracle
    @pytest.mark.parametrize(
        "n", [1, 7, 4096, CHUNK + 3, 1 << 20, (1 << 20) + 1, (1 << 20) + 12345, 3 << 20]
    )
    def test_term_by_term_sum_within_1_ulp(self, n):
        terms = math.fsum((1.0 / np.arange(1, n + 1, dtype=np.float64)).tolist())
        assert abs(harmonic(n) - terms) <= math.ulp(terms)

    @staticmethod
    def rounded(n):
        """H_n correctly rounded: mpmath's value at 200 bits, rounded once
        more to a float."""
        mp = pytest.importorskip("mpmath").mp
        with mp.workprec(200):
            return float(mp.harmonic(n))

    def test_correctly_rounded_to_2000(self):
        for n in range(1, 2001):
            assert harmonic(n).hex() == self.rounded(n).hex(), n

    def test_correctly_rounded_at_random_n_to_1e18(self):
        rng = np.random.default_rng(21)
        for n in rng.integers(1, 10**18, size=200, endpoint=True).tolist():
            assert harmonic(n).hex() == self.rounded(n).hex(), n

    @pytest.mark.parametrize(
        "n",
        [(1 << 20) - 1, (1 << 20) + 1, 10**12, 10**18, 2**70, 10**400, 10**4000, 2**60000],
        ids=["2**20-1", "2**20+1", "1e12", "1e18", "2**70", "1e400", "1e4000", "2**60000"],
    )
    def test_large_n_correctly_rounded(self, n):
        assert harmonic(n).hex() == self.rounded(n).hex()

    def test_huge_n_answers_at_once(self):
        # no power n**(2j) is built past the first Bernoulli term
        start = time.perf_counter()
        harmonic(2**60000)
        assert time.perf_counter() - start < 0.2

    def test_undecided_rounding_stops_at_the_cap(self, monkeypatch):
        # 8 digits of ln n leave the interval wide; the error names no n, as
        # str(2**60000) exceeds Python's int-to-str digit limit
        monkeypatch.setattr(special, "_FIRST_DIGITS", 4)
        monkeypatch.setattr(special, "_MAX_DIGITS", 8)
        with pytest.raises(ArithmeticError, match="H_n is within .* of a rounding boundary"):
            harmonic(2**60000)


class TestFracLimitCdf:
    def test_endpoint_values(self):
        assert frac_limit_cdf(1.0) == 1.0
        assert frac_limit_cdf(0.0) == 0.0
        assert frac_limit_cdf(-3.0) == 0.0
        assert frac_limit_cdf(7.0) == 1.0

    def test_at_half(self):
        closed = 2.0 - 2.0 * math.log(2.0)  # 0.6137056388801094
        assert abs(frac_limit_cdf(0.5) - closed) <= 1e-12
        assert abs(frac_limit_series_oracle(0.5) - closed) <= 1e-12

    def test_against_series_oracle(self):
        for t in (0.05, 0.2, 0.45, 0.7, 0.95):
            assert abs(frac_limit_cdf(t) - frac_limit_series_oracle(t)) <= 1e-12

    def test_tiny_argument_bound(self):
        # sum of t/(m(m+t)) is below t * pi^2 / 6
        assert frac_limit_cdf(1e-6) <= 2e-6

    def test_nondecreasing_on_grid(self):
        grid = np.linspace(0.0, 1.0, 201)
        vals = [frac_limit_cdf(float(t)) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_density_normalizes(self):
        res = integrate_smooth(lambda t: 1.0, frac_limit_smooth_cdf(), tol=1e-10)
        assert abs(res.value - 1.0) <= 1e-9

    def test_density_avoids_cancellation_near_zero(self):
        # the direct form trigamma(t) - 1/t^2 would lose every digit here
        assert abs(frac_limit_density(1e-9) - math.pi**2 / 6.0) <= 1e-8


class TestFracLimitSeries:
    def test_empty_sum(self):
        assert frac_limit_cdf_series(0.0, 60).value == 0.0

    def test_matches_closed_form_at_half(self):
        res = frac_limit_cdf_series(0.5, 60)
        assert abs(res.value - frac_limit_cdf(0.5)) <= 1e-12

    def test_matches_closed_form_on_grid(self):
        for t in np.linspace(0.0, 0.6, 13):
            res = frac_limit_cdf_series(float(t), 80)
            assert abs(res.value - frac_limit_cdf(float(t))) <= 1e-12

    def test_truncation_bound_is_honest(self):
        # 1e-12 of slack covers the documented accuracy of the closed form
        for t in (0.1, 0.4, 0.6, 0.8):
            for k_max in (5, 12, 30):
                res = frac_limit_cdf_series(t, k_max)
                assert abs(res.value - frac_limit_cdf(t)) <= res.truncation_bound + 1e-12

    def test_leading_coefficient(self):
        t = 1e-8
        res = frac_limit_cdf_series(t, 10)
        assert res.value == pytest.approx(math.pi**2 / 6.0 * t, rel=1e-7)

    def test_diverges_at_radius(self):
        with pytest.raises(ValueError):
            frac_limit_cdf_series(1.0, 10)

    def test_term_count_is_bounded(self):
        # one term per k: an unbounded k_max would run for as long as it asks
        for k_max in (-1, MAX_SERIES_TERMS + 1, 10**9):
            with pytest.raises(ValueError, match="k_max"):
                frac_limit_cdf_series(0.5, k_max)
        start = time.perf_counter()
        res = frac_limit_cdf_series(0.5, MAX_SERIES_TERMS)
        assert time.perf_counter() - start < 2.0
        assert res.value == frac_limit_cdf_series(0.5, 1100).value

    def test_stops_where_the_power_underflows(self):
        # 0.5**1075 rounds to 0: zeta(k + 1) is needed for k <= 1075 only
        special._zeta_int.cache_clear()
        res = frac_limit_cdf_series(0.5, MAX_SERIES_TERMS)
        assert special._zeta_int.cache_info().currsize == 1075
        assert res == frac_limit_cdf_series(0.5, 1100)

    @pytest.mark.parametrize("t", [0.5, -0.5, 0.0, -0.0, 1e-200, -1e-200, 0.9])
    def test_early_stop_keeps_every_bit(self, t):
        # the full sum over k = 1..k_max, every term evaluated
        k_max = 3000
        power = 1.0
        terms = []
        for k in range(1, k_max + 1):
            power *= t
            terms.append((1.0 if k % 2 == 1 else -1.0) * hurwitz_zeta(k + 1.0, 1.0) * power)
        expected = (math.fsum(terms), hurwitz_zeta(k_max + 2.0, 1.0) * abs(power * t))
        got = frac_limit_cdf_series(t, k_max)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


class TestRecurrenceSweep:
    def test_all_three_recurrences(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            x = float(rng.random()) * 10.0 + 1e-2
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12
            assert abs(trigamma(x + 1.0) - trigamma(x) + x**-2.0) <= 1e-10
            s = 2.0 + float(rng.random()) * 3.0
            shift_gap = abs(hurwitz_zeta(s, x + 1.0) - hurwitz_zeta(s, x) + x**-s)
            assert shift_gap <= 1e-12 * max(1.0, x**-s)


class TestAgainstMpmath:
    """Accuracy on [1e-6, 1e6] against mpmath at 30 digits."""

    XS = np.geomspace(1e-6, 1e6, 601)

    @pytest.fixture(autouse=True)
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield mpmath

    @staticmethod
    def worst(f, ref, scale, xs=XS):
        return max(abs(f(x) - float(ref(x))) / scale(float(ref(x))) for x in xs)

    def test_digamma(self, mp):
        # absolute where |psi| <= 1, relative above: near 0, psi ~ -1/x and
        # its ulp alone exceeds 1e-12 (measured 1.3e-13)
        assert self.worst(digamma, mp.digamma, lambda v: max(1.0, abs(v))) <= 1e-12

    def test_trigamma(self, mp):
        # absolute where psi' <= 1, relative above
        assert self.worst(trigamma, lambda x: mp.psi(1, x), lambda v: max(1.0, v)) <= 1e-12

    def test_trigamma_relative_across_the_expansion_threshold(self, mp):
        # the expansion starts at x = 10; started at 6 with the same terms,
        # the relative error was 1.9e-12 at x = 6.0 (measured 6.9e-16 here)
        xs = np.concatenate([self.XS, np.linspace(5.5, 12.5, 1401)])
        assert self.worst(trigamma, lambda x: mp.psi(1, x), abs, xs) <= 1e-12

    @pytest.mark.parametrize("s", [5.0, 8.0, 10.0, 12.0, 20.0, 30.0])
    def test_hurwitz_zeta_relative_at_larger_s(self, mp, s):
        # the Euler-Maclaurin start grows with s; fixed at 12, the relative
        # error was 2.0e-12 at s = 10, x = 12 and 1.6e-6 at s = 30.  mpmath's
        # own zeta is off by 2e-13 at s = 30, x = 100 at 60 digits, so the
        # reference takes 120 (measured 1.4e-15 at s = 30)
        xs = np.concatenate([np.geomspace(1e-3, 1e2, 61), np.linspace(11.0, 1.2 * s + 14.0, 61)])
        with mp.workdps(120):
            worst = self.worst(lambda x: hurwitz_zeta(s, x), lambda x: mp.zeta(s, x), abs, xs)
        assert worst <= 1e-14

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
    def test_hurwitz_zeta(self, mp, s):
        # relative, on every third point (mpmath's zeta is slow); measured 4.0e-16
        zeta = lambda x: mp.zeta(s, x)
        assert self.worst(lambda x: hurwitz_zeta(s, x), zeta, abs, self.XS[::3]) <= 1e-15

import math

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
from asymptolim.problems import frac_limit_smooth_cdf
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
        # absolute where psi' <= 1, relative above (measured 3.4e-13); the
        # pure relative error reaches 1.8e-12 at x ~ 6.03, just above the
        # asymptotic-expansion threshold
        assert self.worst(trigamma, lambda x: mp.psi(1, x), lambda v: max(1.0, v)) <= 1e-12

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
    def test_hurwitz_zeta(self, mp, s):
        # relative, on every third point (mpmath's zeta is slow); measured 4.0e-16
        zeta = lambda x: mp.zeta(s, x)
        assert self.worst(lambda x: hurwitz_zeta(s, x), zeta, abs, self.XS[::3]) <= 1e-15

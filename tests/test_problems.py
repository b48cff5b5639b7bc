import ast
import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from asymptolim import (
    DivergentResult,
    EULER_GAMMA,
    PolySpec,
    dirichlet_weak,
    expectation,
    frac_n_over_i_cdf,
    frac_n_over_i_mean,
    from_points,
    harmonic,
    interval_proportion_sin,
    polynomial_family,
    pushforward,
    sequence_average,
    sqrt_frac_cdf,
)
from asymptolim import problems
from asymptolim.accum import CHUNK
from asymptolim.problems import (
    PROBLEMS,
    _poly_count,
    _poly_eval,
    _sqrt_frac_chunk,
    reciprocal_frac_boundary,
    reciprocal_frac_map,
    uniform_cdf,
)
from asymptolim.convergence import cdf_sequence_probe, continuity_set_check


class TestSqrtFracCdf:
    def test_small_case_by_enumeration(self):
        # fractional parts of sqrt(1..4): 0, 0.4142..., 0.7320..., 0
        assert sqrt_frac_cdf(4, 0.5) == 0.75

    def test_range_clamps(self):
        assert sqrt_frac_cdf(100, 1.0) == 1.0
        assert sqrt_frac_cdf(100, 2.5) == 1.0
        assert sqrt_frac_cdf(100, -0.1) == 0.0

    def test_equidistribution_at_large_n(self):
        assert abs(sqrt_frac_cdf(10**6, 0.3) - 0.3) <= 5e-3

    def test_matches_python_enumeration(self):
        n = 2000
        for t in (0.2, 0.5, 0.8):
            count = sum(
                1 for k in range(1, n + 1) if math.sqrt(k) - math.isqrt(k) <= t
            )
            assert sqrt_frac_cdf(n, t) == count / n

    @pytest.mark.parametrize("start", [1, 10**7, 2**52 - CHUNK], ids=["1", "1e7", "2**52-CHUNK"])
    def test_kernel_subtracts_the_exact_integer_root(self, start):
        k = np.arange(start, start + CHUNK, dtype=np.int64)
        isqrt = np.array([math.isqrt(v) for v in k.tolist()], dtype=np.int64)
        frac = _sqrt_frac_chunk(start, start + CHUNK)
        assert np.array_equal(frac, np.sqrt(k.astype(np.float64)) - isqrt)
        assert np.all((frac >= 0.0) & (frac < 1.0))


class TestSequenceAverage:
    def test_constant_function(self):
        res = sequence_average(1000, lambda t: 1.0)
        assert res.empirical == 1.0
        assert abs(res.closed_form - 1.0) <= 1e-9
        assert res.abs_error == abs(res.empirical - res.closed_form)

    def test_identity_against_enumeration(self):
        n = 1000
        res = sequence_average(n, lambda t: t)
        direct = math.fsum(
            math.sqrt(k) - math.isqrt(k) for k in range(1, n + 1)
        ) / n
        assert abs(res.empirical - direct) <= 1e-12
        assert abs(res.closed_form - 0.5) <= 1e-9

    def test_sine_mean_converges(self):
        res = sequence_average(10**5, np.sin)
        assert abs(res.closed_form - (1 - math.cos(1))) <= 1e-9
        assert res.abs_error <= 5e-3


class TestIntervalProportionSin:
    def test_full_interval(self):
        res = interval_proportion_sin(1000, -1.0, 1.0)
        assert res.empirical == 1.0
        assert res.closed_form == 1.0

    def test_degenerate_interval(self):
        res = interval_proportion_sin(1000, 0.3, 0.3)
        assert res.closed_form == 0.0

    def test_symmetric_half(self):
        res = interval_proportion_sin(10**5, -0.5, 0.5)
        assert abs(res.closed_form - 1.0 / 3.0) <= 1e-15
        assert res.abs_error <= 5e-3

    def test_closed_interval_against_the_points(self):
        # lo and hi are points themselves: both ends of [lo, hi] are counted
        n = CHUNK + 5
        s = np.sin(2.0 * math.pi * _sqrt_frac_chunk(1, n + 1))
        for lo, hi in ((s[7], s[CHUNK + 2]), (s[3], s[3]), (-1.0, s[11])):
            lo, hi = min(lo, hi), max(lo, hi)
            inside = np.count_nonzero((s >= lo) & (s <= hi))
            assert interval_proportion_sin(n, lo, hi).empirical == inside / n

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            interval_proportion_sin(10, -2.0, 0.5)
        with pytest.raises(ValueError):
            interval_proportion_sin(10, 0.5, 0.2)


class TestFracNOverICdf:
    def test_upper_endpoint(self):
        for n in (1, 7, 100):
            res = frac_n_over_i_cdf(n, 1.0)
            assert res.empirical == 1.0
            assert res.closed_form == 1.0

    def test_divisor_count_at_zero(self):
        res = frac_n_over_i_cdf(12, 0.0)
        assert res.empirical == 0.5  # divisors 1,2,3,4,6,12 of 12
        assert res.closed_form == 0.0

    def test_midpoint_against_limit(self):
        res = frac_n_over_i_cdf(10**5, 0.5)
        assert abs(res.closed_form - (2.0 - 2.0 * math.log(2.0))) <= 1e-12
        assert res.abs_error <= 2e-2

    def test_exact_rational_threshold(self):
        n = 10**4
        t = Fraction(1, 3)
        res = frac_n_over_i_cdf(n, t)
        count = sum(1 for i in range(1, n + 1) if Fraction(n % i, i) <= t)
        assert res.empirical == count / n

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rational_threshold_with_wide_denominator(self, threads):
        # Fraction(0.1) has denominator 2**55, so r * den leaves int64
        n = 3 * 10**4
        t = Fraction(0.1)
        res = frac_n_over_i_cdf(n, t, threads=threads)
        count = sum(1 for i in range(1, n + 1) if Fraction(n % i, i) <= t)
        assert res.empirical == count / n
        assert res.empirical == frac_n_over_i_cdf(n, 0.1).empirical

    def test_float_and_rational_agree_off_jumps(self):
        n = 977  # prime, so few exact hits
        assert (
            frac_n_over_i_cdf(n, 0.37).empirical
            == frac_n_over_i_cdf(n, Fraction(37, 100)).empirical
        )

    def test_continuity_set_is_discharged(self):
        for t in (0.1, 0.5, 0.9):
            assert continuity_set_check(lambda x: 1.0, reciprocal_frac_boundary(t))


def exact_frac_count(n, t):
    """#{i <= n : (n mod i)/i <= t} in Python integers."""
    t = Fraction(t)
    return sum(1 for i in range(1, n + 1) if n % i * t.denominator <= t.numerator * i)


def exact_sqrt_count(n, t):
    """#{k <= n : sqrt(k) - isqrt(k) <= t} in Python integers, for t >= 0."""
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    return sum(1 for k in range(1, n + 1) if k * q * q <= (math.isqrt(k) * q + p) ** 2)


class TestExactCounting:
    """The CDF solvers count every point exactly, also where the rounded
    point and float(t) cannot tell the sides of t apart."""

    THRESHOLDS = (0.0, 0.5, math.nextafter(0.5, 0.0), Fraction(1, 3), Fraction(0.1))

    @pytest.mark.parametrize(
        "n, t, count",
        [(4616098, 0.12165717395380989, 849669), (3851222, 0.4766559179776616, 2278600)],
    )
    def test_frac_n_over_i_float_near_misses(self, n, t, count):
        # in each case the float product t*i rounds up to n mod i for one i
        # whose {n/i} exceeds t
        assert frac_n_over_i_cdf(n, t).empirical == count / n

    def test_sqrt_frac_float_near_miss(self):
        # the rounded {sqrt k} of one k falls to t while the exact one exceeds t
        assert sqrt_frac_cdf(1000002, 0.0009999994999816408) == 1501 / 1000002

    def test_random_sizes_and_thresholds_against_brute_force(self):
        rng = np.random.default_rng(131)
        for _ in range(12):
            n = int(rng.integers(1, 3001))
            for t in self.THRESHOLDS + tuple(float(v) for v in rng.random(3)):
                assert frac_n_over_i_cdf(n, t).empirical == exact_frac_count(n, t) / n
                assert sqrt_frac_cdf(n, t) == exact_sqrt_count(n, t) / n

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_chunk_edges_against_brute_force(self, n, threads):
        for t in (0.5, Fraction(1, 3)):
            assert frac_n_over_i_cdf(n, t, threads=threads).empirical == exact_frac_count(n, t) / n
        if threads == 1:
            assert sqrt_frac_cdf(n, 0.25) == exact_sqrt_count(n, 0.25) / n

    def test_float_and_its_fraction_count_alike(self):
        rng = np.random.default_rng(137)
        for t in self.THRESHOLDS[:3] + tuple(float(v) for v in rng.random(5)):
            for n in (1, 105, 2520, 9973):
                a = frac_n_over_i_cdf(n, t).empirical
                assert a == frac_n_over_i_cdf(n, Fraction(t)).empirical
                assert sqrt_frac_cdf(n, t) == sqrt_frac_cdf(n, Fraction(t))

    def test_infinite_thresholds_need_no_fraction(self):
        # Fraction(inf) raises: no point falls in the band of an infinite t
        assert frac_n_over_i_cdf(1000, math.inf).empirical == 1.0
        assert frac_n_over_i_cdf(1000, -math.inf).empirical == 0.0

    def test_nan_threshold_is_rejected_before_counting(self, monkeypatch):
        # every compare with NaN is false, so a count would silently be 0
        from asymptolim import problems

        def no_loop(*args, **kwargs):
            raise AssertionError("chunk loop reached")

        monkeypatch.setattr(problems, "map_reduce_int", no_loop)
        for solve in (sqrt_frac_cdf, frac_n_over_i_cdf):
            with pytest.raises(ValueError, match="nan"):
                solve(10, math.nan)


class TestFracNOverIMean:
    def test_small_case_by_enumeration(self):
        res = frac_n_over_i_mean(10)
        assert res.empirical == pytest.approx(577 / 2520, abs=1e-15)
        assert res.closed_form == 1.0 - EULER_GAMMA

    def test_constant_function(self):
        res = frac_n_over_i_mean(500, lambda t: 1.0)
        assert res.empirical == 1.0
        assert abs(res.closed_form - 1.0) <= 1e-9

    def test_identity_at_large_n(self):
        res = frac_n_over_i_mean(10**5)
        assert res.abs_error <= 5e-3

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1000001, 5000011])
    def test_mean_is_the_correctly_rounded_whole_sum(self, n, threads):
        # the stream: a sum of rounded chunk sums is 1 ulp off the whole fsum
        # of the rounded points at these n
        i = np.arange(1, n + 1, dtype=np.int64)
        whole = math.fsum(((n % i) / i).tolist())
        assert frac_n_over_i_mean(n, lambda t: t, threads=threads).empirical == whole / n
        # the identity mean is the exact mean rounded once, within 1 ulp of it
        mean = frac_n_over_i_mean(n, threads=threads).empirical
        assert abs(mean - whole / n) <= math.ulp(mean)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(200):
            exact = mpmath.harmonic(n) - mpmath.mpf(int((n // i).sum())) / n
        assert mean.hex() == float(exact).hex()

    def test_quadrature_route_matches_short_circuit(self):
        direct = frac_n_over_i_mean(200)
        routed = frac_n_over_i_mean(200, lambda t: t)
        assert abs(direct.closed_form - routed.closed_form) <= 1e-8
        exact = sum(Fraction(200 % i, i) for i in range(1, 201)) / 200
        assert direct.empirical.hex() == float(exact).hex()
        assert abs(direct.empirical - routed.empirical) <= math.ulp(direct.empirical)
        # at n = 200 the stream's rounded points also sum to that float
        assert direct.empirical == routed.empirical

    def test_pushforward_route_equivalence(self):
        # n = 93 would wrap under floating {1/x}: 1/(1/93) = 92.999...;
        # the exact reciprocal map keeps both routes identical
        for n, f in ((93, lambda t: t), (360, math.sin), (1000, lambda t: t * t)):
            m = from_points(np.arange(1, n + 1, dtype=np.float64) / n)
            routed = expectation(pushforward(m, reciprocal_frac_map(n)), f)
            direct = frac_n_over_i_mean(n, f).empirical
            assert abs(routed - direct) <= 1e-12

    @pytest.mark.parametrize("n", [1, 93, 1000, 9000])
    def test_reciprocal_map_on_scalars_and_arrays(self, n):
        g = reciprocal_frac_map(n)
        i = np.arange(1, n + 1)
        exact = np.array([(n % k) / k for k in range(1, n + 1)])
        assert np.array_equal(g(i / n), exact)
        assert g((i / n).reshape(-1, 1)).shape == (n, 1)
        for k in (1, (n + 1) // 2, n):
            assert g(k / n) == (n % k) / k and type(g(k / n)) is float

    @pytest.mark.parametrize("x", [0.0, -0.5, 2.0, math.nan, math.inf, [0.5, 3.0]])
    def test_reciprocal_map_rejects_a_non_atom(self, x):
        with pytest.raises(ValueError, match="not an atom"):
            reciprocal_frac_map(10)(np.asarray(x) if isinstance(x, list) else x)


class TestDirichletWeak:
    def test_small_case_by_enumeration(self):
        res = dirichlet_weak(10)
        assert res.empirical == 27 / 10 - math.log(10)  # sum of floor(10/i) is 27
        assert res.closed_form == 2.0 * EULER_GAMMA - 1.0

    def test_large_n(self):
        res = dirichlet_weak(10**5)
        assert res.abs_error <= 5e-3

    def test_floor_frac_complementarity(self):
        for n in (10, 97, 500, 1000):
            floor_sum = sum(n // i for i in range(1, n + 1))
            frac_sum = sum(Fraction(n % i, i) for i in range(1, n + 1))
            assert Fraction(floor_sum) + frac_sum == sum(
                Fraction(n, i) for i in range(1, n + 1)
            )
            # and the rational mean recombines to the harmonic number
            assert float(frac_sum / n) + floor_sum / n == pytest.approx(
                harmonic(n), abs=1e-12
            )

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            dirichlet_weak(0)


class TestPolynomialFamily:
    def test_square_polynomial_matches_brute_force(self):
        spec = PolySpec((1, 0, 0), norm_r=2, norm_b=1.0, f=lambda x: x)
        n = 10**8
        res = polynomial_family(spec, n)
        count = math.isqrt(n)
        brute = math.fsum((i * i) / n for i in range(1, count + 1)) / math.sqrt(n)
        assert res.empirical == pytest.approx(brute, abs=1e-12)
        assert abs(res.closed_form - 1.0 / 3.0) <= 1e-8
        assert res.abs_error <= 1e-3

    def test_linear_polynomial_reduces_to_uniform_integral(self):
        spec = PolySpec((1, 0), norm_r=1, norm_b=1.0, f=np.sin)
        res = polynomial_family(spec, 10**5, tol=1e-10)
        assert abs(res.closed_form - (1 - math.cos(1))) <= 1e-9
        assert res.abs_error <= 1e-4

    def test_total_mass_for_constant_function(self):
        spec = PolySpec((2.0, 1.0, 0.0), norm_r=2, norm_b=2.0, f=lambda x: 1.0)
        res = polynomial_family(spec, 10**6)
        assert abs(res.closed_form - 1.0) <= 1e-9

    def test_slow_normalizer_gives_zero_limit(self):
        spec = PolySpec((1, 0), norm_r=2, norm_b=1.0, f=lambda x: 1.0)
        res = polynomial_family(spec, 10**4)
        assert res.closed_form == 0.0

    def test_fast_normalizer_is_divergent(self):
        spec = PolySpec((1, 0, 0, 0), norm_r=1, norm_b=1.0, f=lambda x: 1.0)
        res = polynomial_family(spec, 10**4)
        assert isinstance(res, DivergentResult)
        assert res.verdict == "divergent"

    def test_index_count_search(self):
        spec = PolySpec((1, 0, 0), norm_r=2, norm_b=1.0, f=lambda x: x)
        assert _poly_count(spec, 10**8) == 10**4
        assert _poly_count(spec, 99) == 9
        shifted = PolySpec((1, 0, 10), norm_r=2, norm_b=1.0, f=lambda x: x)
        assert _poly_count(shifted, 110) == 10

    def test_index_search_equals_a_linear_scan(self):
        # the greatest i with P(i) <= n, on the exact rationals of the
        # coefficients, also where P falls before it rises
        rng = np.random.default_rng(41)
        values = (0.0, 1.0, -1.0, -3.0, 2.5, -7.75, 10.0, -20.0, 0.1, 1e-3)
        for _ in range(400):
            coeffs = (float(rng.choice((1.0, 2.0, 0.5, 3.25))),) + tuple(
                float(v) for v in rng.choice(values, int(rng.integers(1, 5))))
            n = int(rng.integers(1, 400))
            # exact in integers, scaled by the common denominator; every root
            # of P - n lies below 2 + max(20, n)/0.5 = 802
            exact = [Fraction(c) for c in coeffs]
            scale = math.lcm(*(c.denominator for c in exact))
            ints = [int(c * scale) for c in exact]
            scan = [i for i in range(1, 900) if _poly_eval(ints, i) <= n * scale]
            spec = PolySpec(coeffs, 1, 1.0, lambda x: x)
            if scan:
                assert _poly_count(spec, n) == scan[-1], (coeffs, n)
            else:
                with pytest.raises(ValueError):
                    _poly_count(spec, n)

    def test_index_search_is_logarithmic(self):
        # the float guess (n/a)**(1/q) = 1e11 is 1e5 times N(n) = 999999
        spec = PolySpec((1e-10, 1e6, 0.0), 2, 1.0, np.sin)
        start = time.perf_counter()
        assert _poly_count(spec, 10**12) == 999999
        assert time.perf_counter() - start < 0.1

    def test_index_count_above_2_52_is_rejected(self, monkeypatch):
        from asymptolim import problems

        def no_loop(*args, **kwargs):
            raise AssertionError("chunk loop reached")

        monkeypatch.setattr(problems, "map_reduce_fsum", no_loop)
        spec = PolySpec((1.0, 0.0), 1, 1.0, np.sin)
        with pytest.raises(ValueError, match=r"2\*\*52"):
            polynomial_family(spec, 10**18)

    def test_no_valid_index_raises(self):
        spec = PolySpec((1, 0, 10), norm_r=2, norm_b=1.0, f=lambda x: x)
        with pytest.raises(ValueError):
            polynomial_family(spec, 5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PolySpec((-1, 0), norm_r=1, norm_b=1.0, f=lambda x: x)
        with pytest.raises(ValueError):
            PolySpec((1, 0), norm_r=0, norm_b=1.0, f=lambda x: x)
        with pytest.raises(ValueError):
            PolySpec((1, 0), norm_r=1, norm_b=0.0, f=lambda x: x)
        with pytest.raises(ValueError):
            PolySpec((1,), norm_r=1, norm_b=1.0, f=lambda x: x)

    def test_degree_and_leading_coefficient_follow_the_coefficients(self):
        spec = PolySpec([2, 1, 0], norm_r=2, norm_b=1.0, f=lambda x: x)
        assert (spec.p_coeffs, spec.q, spec.a) == ((2, 1, 0), 2, 2.0)

    @pytest.mark.parametrize("coeffs, r, b", [((1.0, 0.0, 0.0), 2, 1e-320),
                                              ((1.0, 0.0), 1, 1e-320),
                                              ((1.0, 0.0, 0.0), 2, math.inf)])
    def test_n_over_b_must_be_a_finite_normal_float(self, coeffs, r, b):
        # n / b overflowed to inf at a subnormal b, and the sum over its root
        # was a silent 0.0; at b = inf the root was 0 and the sum divided by it
        spec = PolySpec(coeffs, r, b, lambda x: x)
        with pytest.raises(ValueError, match="n / b = .* must be a finite normal float"):
            polynomial_family(spec, 10)

    def test_least_normal_n_over_b_is_accepted(self):
        # n / b = 2**-1022, whose cube root divides the one point, P(1)/1 = 1
        res = polynomial_family(PolySpec((1.0, 0.0, 0.0), 3, 2.0**1022, lambda x: x), 1)
        assert (res.empirical, res.closed_form) == (1.0 / (2.0**-1022) ** (1.0 / 3), 0.0)


class TestErrorDecay:
    @pytest.mark.parametrize(
        "solver",
        [
            lambda n: sequence_average(n, np.sin),
            lambda n: interval_proportion_sin(n, -0.5, 0.5),
            lambda n: frac_n_over_i_cdf(n, 0.5),
            lambda n: frac_n_over_i_mean(n),
            lambda n: dirichlet_weak(n),
        ],
        ids=["example1", "example2", "example3", "example4", "dirichlet"],
    )
    def test_errors_mostly_shrink(self, solver):
        errors = [solver(n).abs_error for n in (10**3, 10**4, 10**5)]
        decays = sum(b <= a for a, b in zip(errors, errors[1:]))
        assert decays >= 1
        assert errors[-1] <= errors[0]


class TestExactArithmetic:
    def test_remainders_match_fraction_route(self):
        for n in (97, 360, 1000):
            i = np.arange(1, n + 1, dtype=np.int64)
            r = n % i
            for j in (0, 1, n // 2, n - 1):
                assert Fraction(int(r[j]), int(i[j])) == Fraction(n, int(i[j])) - (
                    n // int(i[j])
                )

    def test_solver_threads_do_not_change_results(self):
        base = frac_n_over_i_mean(10**4, np.sin, threads=1)
        for threads in (2, 4):
            again = frac_n_over_i_mean(10**4, np.sin, threads=threads)
            assert again.empirical == base.empirical
            assert again.closed_form == base.closed_form


class TestIndexDomain:
    """Index solvers reject n above 2**52, the exactness limit of the
    square-root kernel, before any chunk loop over 1..n starts."""

    SOLVERS = {
        "sequence_average": lambda n: sequence_average(n, np.sin),
        "interval_proportion_sin": lambda n: interval_proportion_sin(n, -0.5, 0.5),
        "sqrt_frac_cdf": lambda n: sqrt_frac_cdf(n, 0.5),
        "frac_n_over_i_cdf": lambda n: frac_n_over_i_cdf(n, 0.5),
        "frac_n_over_i_mean": lambda n: frac_n_over_i_mean(n),
        "dirichlet_weak": lambda n: dirichlet_weak(n),
    }

    @pytest.fixture(autouse=True)
    def no_chunk_loops(self, monkeypatch):
        from asymptolim import problems

        def no_loop(*args, **kwargs):
            raise AssertionError("chunk loop reached")

        monkeypatch.setattr(problems, "map_reduce_int", no_loop)
        monkeypatch.setattr(problems, "map_reduce_fsum", no_loop)

    @pytest.mark.parametrize("name", list(SOLVERS))
    @pytest.mark.parametrize("n", [2**52 + 1, 10**19], ids=["2**52+1", "1e19"])
    def test_rejects_n_above_2_52(self, name, n):
        with pytest.raises(ValueError, match=r"2\*\*52"):
            self.SOLVERS[name](n)

    def test_polynomial_family_is_not_limited(self):
        # cubic P: N(n) = floor(n**(1/3)) ~ 2.1e5 points at n = 2**53
        spec = PolySpec((1.0, 0.0, 0.0, 0.0), 3, 1.0, lambda x: x)
        with pytest.raises(AssertionError, match="chunk loop reached"):
            polynomial_family(spec, 2**53)


class TestNonIntegralIndices:
    """A fractional or non-finite n raises ValueError: int(n) counted n = 2.9
    as 2 and overflowed at an infinite n.  An integral float such as 1e6 is
    an index."""

    BAD = (2.9, 2.5, 1.5, 0.5, 1e6 + 0.5, math.inf, -math.inf, math.nan, Fraction(5, 2))

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_rejected_by_count_a_solver_and_the_probe(self, n):
        with pytest.raises(ValueError, match="integer"):
            PROBLEMS["example3"].count(n, (0.5,))
        with pytest.raises(ValueError, match="integer"):
            sequence_average(n, math.sin)
        with pytest.raises(ValueError, match="integer"):
            cdf_sequence_probe(PROBLEMS["example1"], uniform_cdf(), n_list=[n])

    def test_integral_values_are_indices(self):
        problem = PROBLEMS["example3"]
        want = problem.count(10**6, (0.5,)).tolist()
        for n in (1e6, np.float64(1e6), np.int64(10**6), Fraction(10**6)):
            assert problem.count(n, (0.5,)).tolist() == want
        assert sequence_average(1e3, math.sin) == sequence_average(1000, math.sin)
        report = cdf_sequence_probe(PROBLEMS["example1"], uniform_cdf(), n_list=[10.0, 1e3])
        assert report.n_list == (10, 1000) and all(type(n) is int for n in report.n_list)


class TestEmptyCounts:
    """An empty n-list gives shape (0, T), and no thresholds (len(ns), 0),
    by every problem's rule and by its stream."""

    NS = (1, 7, 1000)
    TS = (0.25, 0.5)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    @pytest.mark.parametrize("route", ["rule", "stream"])
    def test_shapes(self, name, route):
        problem = PROBLEMS[name]
        if route == "stream":
            problem = dataclasses.replace(problem, count_rule=None)
        for ns, ts, shape in (((), self.TS, (0, 2)), (self.NS, (), (3, 0)), ((), (), (0, 0))):
            counts = problem.counts(ns, ts, threads=2)
            assert counts.shape == shape and counts.dtype == np.int64


class TestLibraryBoundary:
    """The named callbacks and limit laws are the library's own: the CLI
    takes them by their public names and none of problems.py's private
    helpers, and a library caller reaches them without loading the CLI."""

    def test_cli_imports_no_private_name_of_problems(self):
        tree = ast.parse(Path(problems.__file__).with_name("cli.py").read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module, node.level) in (("problems", 1), ("asymptolim.problems", 0))
                    for alias in node.names]
        reached = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "problems"]
        assert {"resolve_function", "resolve_cdf"} <= set(imported)
        assert [name for name in imported + reached
                if name.startswith("_") or name in ("Analytic", "*")] == []

    def test_named_callbacks_load_without_the_cli(self):
        # a fresh interpreter: this one has imported the CLI already
        code = ("import sys; from asymptolim import problems; "
                "assert problems.resolve_function('sin').analytic is not None; "
                "problems.resolve_cdf('root:3'); "
                "print('asymptolim.cli' in sys.modules)")
        src = str(Path(problems.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

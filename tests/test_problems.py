import math
from fractions import Fraction

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
from asymptolim.accum import CHUNK
from asymptolim.problems import (
    _poly_count,
    _sqrt_frac_chunk,
    reciprocal_frac_boundary,
    reciprocal_frac_map,
)
from asymptolim.convergence import continuity_set_check


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
        # Fraction(0.1) has denominator 2**55: r * den leaves int64 once r >= 256
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

    def test_quadrature_route_matches_short_circuit(self):
        direct = frac_n_over_i_mean(200)
        routed = frac_n_over_i_mean(200, lambda t: t)
        assert abs(direct.closed_form - routed.closed_form) <= 1e-8
        assert direct.empirical == routed.empirical

    def test_pushforward_route_equivalence(self):
        # n = 93 would wrap under floating {1/x}: 1/(1/93) = 92.999...;
        # the exact reciprocal map keeps both routes identical
        for n, f in ((93, lambda t: t), (360, math.sin), (1000, lambda t: t * t)):
            m = from_points(np.arange(1, n + 1, dtype=np.float64) / n)
            routed = expectation(pushforward(m, reciprocal_frac_map(n)), f)
            direct = frac_n_over_i_mean(n, f).empirical
            assert abs(routed - direct) <= 1e-12


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
        spec = PolySpec.make((1, 0, 0), norm_r=2, norm_b=1.0, f=lambda x: x)
        n = 10**8
        res = polynomial_family(spec, n)
        count = math.isqrt(n)
        brute = math.fsum((i * i) / n for i in range(1, count + 1)) / math.sqrt(n)
        assert res.empirical == pytest.approx(brute, abs=1e-12)
        assert abs(res.closed_form - 1.0 / 3.0) <= 1e-8
        assert res.abs_error <= 1e-3

    def test_linear_polynomial_reduces_to_uniform_integral(self):
        spec = PolySpec.make((1, 0), norm_r=1, norm_b=1.0, f=np.sin)
        res = polynomial_family(spec, 10**5, tol=1e-10)
        assert abs(res.closed_form - (1 - math.cos(1))) <= 1e-9
        assert res.abs_error <= 1e-4

    def test_total_mass_for_constant_function(self):
        spec = PolySpec.make((2.0, 1.0, 0.0), norm_r=2, norm_b=2.0, f=lambda x: 1.0)
        res = polynomial_family(spec, 10**6)
        assert abs(res.closed_form - 1.0) <= 1e-9

    def test_slow_normalizer_gives_zero_limit(self):
        spec = PolySpec.make((1, 0), norm_r=2, norm_b=1.0, f=lambda x: 1.0)
        res = polynomial_family(spec, 10**4)
        assert res.closed_form == 0.0

    def test_fast_normalizer_is_divergent(self):
        spec = PolySpec.make((1, 0, 0, 0), norm_r=1, norm_b=1.0, f=lambda x: 1.0)
        res = polynomial_family(spec, 10**4)
        assert isinstance(res, DivergentResult)
        assert res.verdict == "divergent"

    def test_index_count_search(self):
        spec = PolySpec.make((1, 0, 0), norm_r=2, norm_b=1.0, f=lambda x: x)
        assert _poly_count(spec, 10**8) == 10**4
        assert _poly_count(spec, 99) == 9
        shifted = PolySpec.make((1, 0, 10), norm_r=2, norm_b=1.0, f=lambda x: x)
        assert _poly_count(shifted, 110) == 10

    def test_no_valid_index_raises(self):
        spec = PolySpec.make((1, 0, 10), norm_r=2, norm_b=1.0, f=lambda x: x)
        with pytest.raises(ValueError):
            polynomial_family(spec, 5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PolySpec.make((-1, 0), norm_r=1, norm_b=1.0, f=lambda x: x)
        with pytest.raises(ValueError):
            PolySpec.make((1, 0), norm_r=0, norm_b=1.0, f=lambda x: x)
        with pytest.raises(ValueError):
            PolySpec(p_coeffs=(1, 0), q=2, a=1.0, norm_r=1, norm_b=1.0, f=lambda x: x)


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
        spec = PolySpec.make((1.0, 0.0, 0.0, 0.0), 3, 1.0, lambda x: x)
        with pytest.raises(AssertionError, match="chunk loop reached"):
            polynomial_family(spec, 2**53)

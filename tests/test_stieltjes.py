import dataclasses
import math

import numpy as np
import pytest

from asymptolim import (
    HyperBox,
    Partition1D,
    QuadratureError,
    SmoothCdf,
    StepCdf,
    VariationError,
    cdf_eval,
    delta_box,
    expectation,
    from_points,
    integrate_by_parts,
    integrate_smooth,
    integrate_step,
    measure_box,
    riemann_stieltjes_oracle,
    variation,
    variation_nd,
)
from asymptolim.problems import frac_limit_smooth_cdf, root_cdf, uniform_cdf
from asymptolim.special import EULER_GAMMA

from test_measure import random_measure


class TestDeltaBox:
    def test_product_primitive(self):
        box = HyperBox((0.0, 0.0), (1.0, 1.0))
        assert delta_box(lambda p: p[0] * p[1], box) == 1.0

    def test_constant_vanishes(self):
        box = HyperBox((-2.0, 1.0, 0.5), (3.0, 4.0, 0.75))
        assert delta_box(lambda p: 42.0, box) == 0.0

    def test_mixed_partial_primitive(self):
        # oracle: double integral of d^2(x^2 y)/dx dy = 2x over (1,2]x(0,3]
        box = HyperBox((1.0, 0.0), (2.0, 3.0))
        assert delta_box(lambda p: p[0] ** 2 * p[1], box) == 9.0

    def test_one_dimensional_increment(self):
        assert delta_box(lambda t: t * t, HyperBox(1.0, 3.0)) == 8.0

    def test_rejects_infinite_box(self):
        with pytest.raises(ValueError):
            delta_box(lambda t: t, HyperBox(-math.inf, 0.0))

    def test_rejects_non_finite_vertex_value(self):
        with pytest.raises(ValueError):
            delta_box(lambda t: math.inf, HyperBox(0.0, 1.0))

    def test_additive_under_axis_splits(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            lo = rng.normal(size=dim)
            hi = lo + rng.random(dim) + 0.1
            coeff = rng.normal(size=4)

            def phi(p):
                p = np.atleast_1d(p)
                return float(
                    coeff[0] * np.prod(p)
                    + coeff[1] * np.sum(np.sin(p))
                    + coeff[2] * np.prod(np.cos(p))
                    + coeff[3]
                )

            axis = int(rng.integers(dim))
            cut = lo[axis] + rng.random() * (hi[axis] - lo[axis])
            hi_left = hi.copy()
            hi_left[axis] = cut
            lo_right = lo.copy()
            lo_right[axis] = cut
            whole = delta_box(phi, HyperBox(lo, hi))
            parts = delta_box(phi, HyperBox(lo, hi_left)) + delta_box(
                phi, HyperBox(lo_right, hi)
            )
            assert abs(whole - parts) <= 1e-12

    def test_matches_box_measure_of_atomic_cdf(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            m = random_measure(rng, dim=dim)
            lo = rng.normal(size=dim) - 1.0
            hi = lo + 3.0 * rng.random(dim)
            box = HyperBox(lo, hi)
            inc = delta_box(lambda p: cdf_eval(m, p), box)
            assert abs(inc - measure_box(m, box)) <= 1e-12


class TestVariation:
    def test_step_cdf_has_unit_variation(self):
        rng = np.random.default_rng(43)
        for size in (1, 3, 50, 1000):
            pts = rng.normal(size=size)
            cdf = StepCdf(from_points(pts))
            assert abs(variation(cdf, cdf.window()) - 1.0) <= 1e-12

    def test_sine_over_full_period(self):
        # oracle: |rises| over the monotone pieces [0,pi/2], [pi/2,3pi/2],
        # [3pi/2,2pi] sum to 1 + 2 + 1 = 4
        v = variation(np.sin, (0.0, 2.0 * math.pi), tol=1e-10)
        assert abs(v - 4.0) <= 1e-8

    def test_constant_has_zero_variation(self):
        assert variation(lambda t: 5.0, (0.0, 1.0)) == 0.0

    def test_unbounded_variation_raises(self):
        wiggly = lambda t: math.sin(1.0 / t) if t > 0 else 0.0
        with pytest.raises(VariationError):
            variation(wiggly, (0.0, 1.0), tol=1e-12, max_depth=14)

    def test_two_dimensional_step_cdf(self):
        rng = np.random.default_rng(47)
        m = random_measure(rng, dim=2)
        phi = lambda p: cdf_eval(m, p)
        v = variation_nd(phi, HyperBox((-3.0, -3.0), (3.0, 3.0)), max_depth=6)
        assert abs(v - 1.0) <= 1e-12

    def test_two_dimensional_product_cdf(self):
        phi = lambda p: min(max(p[0], 0.0), 1.0) * min(max(p[1], 0.0), 1.0)
        v = variation_nd(phi, HyperBox((0.0, 0.0), (1.0, 1.0)), max_depth=6)
        assert abs(v - 1.0) <= 1e-12


class TestPartition1D:
    def test_orders_and_iterates(self):
        part = Partition1D([(0.0, 0.5), (0.5, 1.0)])
        assert len(part) == 2

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition1D([(0.0, 0.6), (0.5, 1.0)])

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            Partition1D([(1.0, 0.0)])


class TestIntegrateStep:
    def test_total_mass(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            cdf = StepCdf(random_measure(rng))
            assert abs(integrate_step(lambda t: 1.0, cdf) - 1.0) <= 1e-15

    def test_quarter_grid_mean(self):
        cdf = StepCdf(from_points([i / 4 for i in range(1, 5)]))
        assert integrate_step(lambda t: t, cdf) == 0.625

    def test_sine_against_uniform_samples(self):
        n = 10**4
        cdf = StepCdf(from_points([i / n for i in range(1, n + 1)]))
        assert abs(integrate_step(math.sin, cdf) - (1 - math.cos(1))) <= 2e-4

    def test_equals_expectation_exactly(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            m = random_measure(rng)
            f = lambda t: math.cos(2.3 * t) + t
            assert integrate_step(f, StepCdf(m)) == expectation(m, f)


class TestIntegrateSmooth:
    def test_uniform_mean(self):
        res = integrate_smooth(lambda t: t, uniform_cdf(), tol=1e-10)
        assert abs(res.value - 0.5) <= 1e-9

    def test_sine_against_uniform(self):
        res = integrate_smooth(np.sin, uniform_cdf(), tol=1e-10)
        assert abs(res.value - (1 - math.cos(1))) <= 1e-9

    def test_square_root_cdf(self):
        # oracle: the raw Riemann-Stieltjes sums stabilize near 1/3
        oracle = riemann_stieltjes_oracle(
            lambda t: t, root_cdf(2).value, (0.0, 1.0), levels=13
        )
        res = integrate_smooth(lambda t: t, root_cdf(2), tol=1e-10)
        assert abs(res.value - 1 / 3) <= 1e-8
        assert abs(res.value - oracle[-1]) <= 5e-3

    def test_limit_density_normalizes(self):
        res = integrate_smooth(lambda t: 1.0, frac_limit_smooth_cdf(), tol=1e-10)
        assert abs(res.value - 1.0) <= 1e-9

    def test_requires_density(self):
        bare = SmoothCdf(lambda t: t, HyperBox(0.0, 1.0))
        with pytest.raises(ValueError):
            integrate_smooth(lambda t: t, bare)

    def test_box_must_sit_inside_support(self):
        with pytest.raises(ValueError):
            integrate_smooth(lambda t: t, uniform_cdf(), HyperBox(0.0, 2.0))

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError):
            integrate_smooth(lambda t: t, root_cdf(2), tol=1e-16)

    def test_two_dimensional_density_reduction(self):
        # phi(x, y) = x * y^2 has mixed partial 2y; f(x, y) = x + y;
        # analytic value of the reduced integral over (0,1]^2 is 7/6.
        support = HyperBox((0.0, 0.0), (1.0, 1.0))
        phi = SmoothCdf(
            lambda p: p[0] * p[1] ** 2, support, density=lambda p: 2.0 * p[1]
        )
        f = lambda p: p[0] + p[1]
        res = integrate_smooth(f, phi, tol=1e-8)
        assert abs(res.value - 7.0 / 6.0) <= 1e-7
        oracle = _delta_sum_oracle_2d(f, phi.value, levels=9)
        assert abs(res.value - oracle) <= 2e-3


def _delta_sum_oracle_2d(f, phi, levels):
    """Riemann-Stieltjes sums over a dyadic cell grid: f(center) * cell
    increment of phi, at the finest level."""
    edges = np.linspace(0.0, 1.0, 2**levels + 1)
    vals = np.array([[phi((x, y)) for y in edges] for x in edges])
    inc = np.diff(np.diff(vals, axis=0), axis=1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    fv = np.array([[f((x, y)) for y in centers] for x in centers])
    return float(math.fsum((fv * inc).ravel().tolist()))


class TestIntegrateByParts:
    def test_uniform_case(self):
        res = integrate_by_parts(
            lambda t: t, lambda t: 1.0, lambda t: min(max(t, 0.0), 1.0), (0.0, 1.0)
        )
        assert abs(res.value - 0.5) <= 1e-9

    def test_constant_callback(self):
        phi = lambda t: 1.0 / (1.0 + math.exp(-t))
        res = integrate_by_parts(
            lambda t: 3.0, lambda t: 0.0, phi, (-5.0, 5.0)
        )
        assert abs(res.value - 3.0 * (phi(5.0) - phi(-5.0))) <= 1e-12

    def test_limit_cdf_mean(self):
        from asymptolim.special import frac_limit_cdf

        res = integrate_by_parts(
            lambda t: t, lambda t: 1.0, frac_limit_cdf, (0.0, 1.0), tol=1e-10
        )
        assert abs(res.value - (1.0 - EULER_GAMMA)) <= 1e-9

    def test_agrees_with_density_route(self):
        direct = integrate_smooth(np.cos, root_cdf(3), tol=1e-10)
        parts = integrate_by_parts(
            np.cos, lambda t: -np.sin(t), root_cdf(3).value, (0.0, 1.0), tol=1e-10
        )
        assert abs(direct.value - parts.value) <= 1e-8


class TestRiemannStieltjesOracle:
    def test_quadratic_weight(self):
        sums = riemann_stieltjes_oracle(
            lambda t: t, lambda t: t * t, (0.0, 1.0), levels=12
        )
        assert abs(sums[-1] - 2.0 / 3.0) <= 1e-3

    def test_constant_integrand_telescopes(self):
        phi = lambda t: math.atan(t)
        sums = riemann_stieltjes_oracle(lambda t: 1.0, phi, (-2.0, 3.0), levels=8)
        expected = phi(3.0) - phi(-2.0)
        for s in sums:
            assert abs(s - expected) <= 1e-12

    def test_sine_against_uniform(self):
        sums = riemann_stieltjes_oracle(np.sin, lambda t: t, (0.0, 1.0), levels=12)
        assert abs(sums[-1] - (1 - math.cos(1))) <= 1e-6

    def test_agrees_with_quadrature_on_smooth_cases(self):
        cases = []
        for a in (0.5, 1.0, 2.0):
            cases.append((lambda t, a=a: math.sin(a * t), lambda t: t))
            cases.append((lambda t, a=a: t**2 + a, lambda t: t * t))
        for k in (1.5, 2.5):
            cases.append((lambda t: 1.0, lambda t, k=k: t**k))
            cases.append((lambda t, k=k: math.exp(-k * t), lambda t, k=k: t**k))
        assert len(cases) >= 10
        for f, phi in cases:
            sums = riemann_stieltjes_oracle(f, phi, (0.0, 1.0), levels=12)
            density = _numeric_derivative(phi)
            smooth = SmoothCdf(phi, HyperBox(0.0, 1.0), density=density)
            res = integrate_smooth(f, smooth, tol=1e-9)
            combined = abs(sums[-1] - sums[-2]) * 4.0 + 1e-6
            assert abs(res.value - sums[-1]) <= combined


def _numeric_derivative(phi, h=1e-6):
    return lambda t: (phi(min(t + h, 1.0)) - phi(max(t - h, 0.0))) / (
        min(t + h, 1.0) - max(t - h, 0.0)
    )


class TestSmoothCdfInvariants:
    @pytest.mark.parametrize(
        "cdf",
        [uniform_cdf(), root_cdf(2), root_cdf(3), frac_limit_smooth_cdf()],
        ids=["uniform", "sqrt", "cbrt", "frac-limit"],
    )
    def test_named_cdfs_are_nondecreasing_with_nonnegative_increments(self, cdf):
        lo, hi = cdf.support.lower[0], cdf.support.upper[0]
        grid = np.linspace(lo - 0.5, hi + 0.5, 101)
        vals = [cdf.value(float(t)) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        rng = np.random.default_rng(107)
        for _ in range(50):
            a = lo + float(rng.random()) * (hi - lo)
            b = a + float(rng.random()) * (hi - a)
            assert delta_box(cdf.value, HyperBox(a, b)) >= -1e-9


class TestFrozenRecords:
    @staticmethod
    def records():
        m = from_points([0.25, 0.5])
        return (
            HyperBox(0.0, 1.0),
            m,
            SmoothCdf(lambda t: t, HyperBox(0.0, 1.0)),
            Partition1D([(0.0, 1.0)]),
            StepCdf(m),
        )

    def test_fields_cannot_be_assigned(self):
        for record in self.records():
            for fld in dataclasses.fields(record):
                with pytest.raises(AttributeError):
                    setattr(record, fld.name, getattr(record, fld.name))

    def test_no_other_attribute_can_be_set(self):
        # frozen slotted dataclasses raise TypeError here on CPython 3.10-3.13
        for record in self.records():
            for name in ("dim", "extra"):
                with pytest.raises((AttributeError, TypeError)):
                    setattr(record, name, 1)
                assert name == "dim" or not hasattr(record, name)


class TestStepCdf:
    def test_value_at_infinity(self):
        cdf = StepCdf(from_points([0.3, 0.6, 0.6, 0.9]))
        assert abs(cdf(math.inf) - 1.0) <= 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(61)
        cdf = StepCdf(random_measure(rng, max_atoms=20))
        xs = np.sort(rng.normal(size=50))
        vec = cdf(xs)
        assert all(vec[i] == cdf(float(xs[i])) for i in range(len(xs)))

    def test_matches_cdf_eval(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            m = random_measure(rng, max_atoms=30)
            cdf = StepCdf(m)
            x = float(rng.normal())
            assert abs(cdf(x) - cdf_eval(m, x)) <= 1e-12

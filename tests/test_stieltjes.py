import dataclasses
import math
from fractions import Fraction

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
from asymptolim.cli import resolve_cdf, resolve_function
from asymptolim.problems import arcsin_cdf, frac_limit_smooth_cdf, root_cdf, uniform_cdf
from asymptolim.special import EULER_GAMMA
import heapq

from asymptolim import stieltjes
from asymptolim.accum import apply_to_array, fsum_array
from asymptolim.stieltjes import _G_WEIGHTS, _GK_NODES, _K_WEIGHTS, _gk_panel, adaptive_quadrature

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
        # on small panels of sin the K15 and G7 sums agree to the last bit;
        # the estimate still does not fall below their rounding level
        with pytest.raises(QuadratureError):
            integrate_smooth(math.sin, uniform_cdf(), tol=1e-300)

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


def _mp_root(q):
    return lambda mp, f, a, b: mp.quad(
        lambda u: f(u**q), [mp.root(mp.mpf(a), q), mp.root(mp.mpf(b), q)]
    )


def _mp_arcsin(mp, f, a, b):
    u = lambda t: mp.asin(mp.mpf(t)) / mp.pi + 0.5
    return mp.quad(lambda v: f(mp.sin(mp.pi * (v - 0.5))), [u(a), u(b)])


# name -> (law, exact integral of f over (a, b] with mpmath): the closed-form
# laws are integrated by mpmath in the quantile variable from the exact
# phi(a) and phi(b), frac-limit against its density psi'(1 + t)
LAWS = {
    "uniform": (uniform_cdf, lambda mp, f, a, b: mp.quad(f, [a, b])),
    "sqrt": (lambda: root_cdf(2), _mp_root(2)),
    "root:3": (lambda: root_cdf(3), _mp_root(3)),
    "arcsin": (arcsin_cdf, _mp_arcsin),
    "frac-limit": (
        frac_limit_smooth_cdf,
        lambda mp, f, a, b: mp.quad(lambda t: f(t) * mp.psi(1, 1 + t), [a, b]),
    ),
}

# windows as fractions of the support; the first three reach its ends, where
# the sqrt, root:3 and arcsin densities are unbounded
WINDOWS = ((0.0, 1.0), (0.0, 0.6), (0.4, 1.0), (0.2, 0.7))

# the CLI's sin, cos, id and const1, with their mpmath twins in the same order
INTEGRANDS = (math.sin, math.cos, lambda t: t, lambda t: 1.0)


def _mp_integrands(mp):
    return (mp.sin, mp.cos, lambda t: t, lambda t: mp.mpf(1))


def _window(law, fractions):
    lo, hi = law.support.lower[0], law.support.upper[0]
    return tuple(lo + (hi - lo) * s for s in fractions)


class TestSmoothIntegralMatrix:
    @pytest.mark.parametrize("name", list(LAWS))
    def test_error_estimate_bounds_the_true_error(self, name):
        mp = pytest.importorskip("mpmath")
        make, exact = LAWS[name]
        law = make()
        eps = np.finfo(float).eps
        for fractions in WINDOWS:
            a, b = _window(law, fractions)
            for f, mp_f in zip(INTEGRANDS, _mp_integrands(mp)):
                with mp.workdps(30):
                    ref = exact(mp, mp_f, a, b)
                for tol in (1e-9, 1e-11, 1e-13):
                    res = integrate_smooth(f, law, HyperBox(a, b), tol=tol)
                    bound = res.error + 4.0 * eps * abs(res.value)
                    assert abs(mp.mpf(res.value) - ref) <= bound, (name, a, b, f, tol)

    @pytest.mark.parametrize(
        "name, density",
        [
            ("uniform", lambda t: 1.0),
            ("sqrt", lambda t: 0.5 / math.sqrt(t)),
            ("root:3", lambda t: t ** (-2.0 / 3.0) / 3.0),
            ("arcsin", lambda t: 1.0 / (math.pi * math.sqrt(1.0 - t * t))),
        ],
    )
    def test_density_route_agrees_away_from_the_ends(self, name, density):
        law = LAWS[name][0]()
        assert law.density is None and law.quantile is not None
        oracle = dataclasses.replace(law, density=density, quantile=None)
        a, b = _window(law, WINDOWS[-1])
        for f in INTEGRANDS:
            for tol in (1e-9, 1e-11, 1e-13):
                quantile = integrate_smooth(f, law, HyperBox(a, b), tol=tol).value
                direct = integrate_smooth(f, oracle, HyperBox(a, b), tol=tol).value
                assert abs(quantile - direct) <= tol

    def test_uniform_quantile_route_is_the_plain_integral(self):
        law = uniform_cdf()
        plain = dataclasses.replace(law, density=lambda t: 1.0, quantile=None)
        for f in (math.sin, math.exp, lambda t: t**3 - t):
            for box in (HyperBox(0.0, 1.0), HyperBox(0.25, 0.5)):
                assert integrate_smooth(f, law, box) == integrate_smooth(f, plain, box)

    def test_a_k_dimensional_law_needs_a_density(self):
        bare = SmoothCdf(lambda p: p[0] * p[1], HyperBox((0.0, 0.0), (1.0, 1.0)),
                         quantile=lambda u: u)
        with pytest.raises(ValueError, match="density"):
            integrate_smooth(lambda p: 1.0, bare)


def gauss_kronrod_7_15(mp):
    """Positive G7/K15 nodes in descending order, then 0, with their K15 and
    G7 weights, solved from the moment equations at mp's precision."""

    def moment(m):  # integral of x**m over [-1, 1]
        return mp.mpf(2) / (m + 1) if m % 2 == 0 else mp.mpf(0)

    p7 = (-35, 315, -693, 429)  # 16 * P7(x) / x in ascending powers of x**2

    def against_p7(m):  # integral of x**m * 16 * P7(x)
        return sum(c * moment(m + 1 + 2 * i) for i, c in enumerate(p7))

    # Stieltjes polynomial E8 = x**8 + c3 x**6 + ... + c0, orthogonal to
    # x**k * P7 for k < 8 (even k by symmetry)
    odd = (1, 3, 5, 7)
    c = mp.lu_solve(
        mp.matrix([[against_p7(2 * j + k) for j in range(4)] for k in odd]),
        mp.matrix([-against_p7(8 + k) for k in odd]),
    )

    def positive_roots(coeffs):  # descending coefficients in y = x**2
        return [mp.sqrt(mp.re(y)) for y in mp.polyroots(coeffs, maxsteps=200, extraprec=200)]

    nodes = sorted(positive_roots(p7[::-1]) + positive_roots([1, c[3], c[2], c[1], c[0]]))
    nodes = nodes[::-1] + [mp.mpf(0)]

    def weights(xs):  # the symmetric rule on +-xs exact for x**(2j), j < len(xs)
        n = len(xs)
        a = mp.matrix([[(1 if x == 0 else 2) * x ** (2 * j) for x in xs] for j in range(n)])
        return list(mp.lu_solve(a, mp.matrix([moment(2 * j) for j in range(n)])))

    return nodes, weights(nodes), weights(nodes[1::2])


class TestGaussKronrodConstants:
    # the 15- and 7-point rules as (node, weight) pairs on [-1, 1]
    K15 = [(s * x, w) for x, w in zip(_GK_NODES, _K_WEIGHTS) for s in ((1, -1) if x else (1,))]
    G7 = [(s * x, w) for x, w in zip(_GK_NODES[1::2], _G_WEIGHTS) for s in ((1, -1) if x else (1,))]

    def test_literals_are_the_correctly_rounded_doubles(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = gauss_kronrod_7_15(mpmath.mp)
        for literals, values in zip((_GK_NODES, _K_WEIGHTS, _G_WEIGHTS), exact):
            assert len(literals) == len(values)
            for literal, value in zip(literals, values):
                assert literal == float(value.man * Fraction(2) ** value.exp)

    @pytest.mark.parametrize("rule, degree", [("K15", 22), ("G7", 13)])
    def test_rules_integrate_monomials(self, rule, degree):
        # exact arithmetic on the literals, so only the constants' rounding shows
        for d in range(degree + 1):
            total = sum(Fraction(w) * Fraction(x) ** d for x, w in getattr(self, rule))
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(float(total) - exact) <= 4 * math.ulp(exact), d


def quadrature_oracle(g, a, b, tol, max_panels=4096):
    """The O(panels**2) form of adaptive_quadrature: the total estimate is the
    fsum over the whole heap after every split.  Returns (value, error) or
    the QuadratureError message."""
    val, err = _gk_panel(g, a, b)
    heap = [(-err, 0, a, b, val, err)]
    serial = 1
    total_err = err
    while total_err > tol:
        if len(heap) >= max_panels:
            return f"tolerance {tol:g} not reached within {max_panels} panels (estimate {total_err:g})"
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        for lo, hi in ((pa, mid), (mid, pb)):
            v, e = _gk_panel(g, lo, hi)
            heapq.heappush(heap, (-e, serial, lo, hi, v, e))
            serial += 1
        total_err = math.fsum(item[5] for item in heap)
    return math.fsum(p[4] for p in sorted(heap, key=lambda item: item[2])), total_err


class TestAdaptiveQuadrature:
    CASES = {
        "sqrt-singular": (lambda t: 1.0 / math.sqrt(t) if t > 0 else 0.0, 0.0, 1.0, 1e-10),
        "oscillating": (lambda t: math.sin(1.0 / t), 0.05, 1.0, 1e-12),
        "kink": (lambda t: abs(t - 1.0 / 3.0) ** 0.3, -1.0, 2.0, 1e-11),
        "fails-at-4096": (lambda t: math.sin(1.0 / t), 1e-4, 1.0, 1e-14),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_whole_heap_fsum(self, case):
        g, a, b, tol = self.CASES[case]
        expected = quadrature_oracle(g, a, b, tol)
        try:
            res = adaptive_quadrature(g, a, b, tol=tol)
        except QuadratureError as exc:
            assert str(exc) == expected
        else:
            assert (res.value, res.error) == expected

    def test_overflowing_panel_sum_raises(self):
        with pytest.raises(QuadratureError, match="overflows"):
            adaptive_quadrature(lambda t: 1e308, 0.0, 1.0)


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

    def test_non_finite_boundary_term_is_a_numerical_failure(self):
        with pytest.raises(FloatingPointError, match="boundary term"):
            integrate_by_parts(lambda t: 1e308 * (1.0 + t), lambda t: 1e308,
                               lambda t: t, (0.0, 1.0))


@pytest.mark.parametrize(
    "interval", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (1.0, 0.0)]
)
def test_interval_must_be_finite_and_ordered(interval):
    with pytest.raises(ValueError, match="interval"):
        riemann_stieltjes_oracle(np.sin, lambda t: t, interval, 2)
    with pytest.raises(ValueError, match="interval"):
        integrate_by_parts(np.sin, np.cos, lambda t: t, interval)


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


def fresh_grid(a, b, num):
    """``np.linspace(a, b, num)``; where b - a overflows, the same formula on
    the halved ends, doubled."""
    if math.isinf(b - a):
        return 2.0 * np.linspace(a / 2, b / 2, num)
    return np.linspace(a, b, num)


def oracle_per_level(f, phi, interval, levels):
    """``riemann_stieltjes_oracle`` on a fresh grid per level, with phi
    evaluated on every point of every level; on a window whose width
    overflows, the midpoints are sums of exact halves."""
    a, b = float(interval[0]), float(interval[1])
    sums = []
    for level in range(1, levels + 1):
        xs = fresh_grid(a, b, 2**level + 1)
        pv = apply_to_array(phi, xs)
        if math.isinf(b - a):
            mids = 0.5 * xs[:-1] + 0.5 * xs[1:]
        else:
            mids = 0.5 * (xs[:-1] + xs[1:])
        fv = apply_to_array(f, mids)
        sums.append(fsum_array(fv * np.diff(pv)))
    return sums


def variation_per_depth(phi, window, tol=1e-9, max_depth=22):
    """``variation`` on a fresh grid per depth, with phi evaluated on every
    point of every depth."""
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("window must be a finite nondegenerate interval")
    prev, stable = None, 0
    for depth in range(2, max_depth + 1):
        vals = apply_to_array(phi, fresh_grid(a, b, 2**depth + 1))
        if not np.all(np.isfinite(vals)):
            raise ValueError("phi is non-finite on the window")
        v = fsum_array(np.abs(np.diff(vals)))
        if prev is not None and abs(v - prev) < tol:
            stable += 1
            if stable >= stieltjes.STABLE_ROUNDS:
                return v
        else:
            stable = 0
        prev = v
    raise VariationError(f"variation did not stabilize within {max_depth} dyadic refinements")


class ScalarPhi:
    """A phi that rejects arrays, so that it is called once per point, and
    counts its scalar calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            raise TypeError("scalars only")
        self.calls += 1
        return self.fn(t)


def _outcome(route, *args, **kwargs):
    """The bits of a route's result, or the type and text of what it raised."""
    try:
        return np.asarray(route(*args, **kwargs), dtype=float).tobytes()
    except (ValueError, VariationError) as exc:
        return type(exc), str(exc)


_DYADIC_PHIS = {
    "atan": math.atan,
    "arcsin": arcsin_cdf().value,
    "root3": root_cdf(3).value,
    "kink": lambda t: abs(math.tanh(4.0 * t - 1.0)),
    # sin of the count of subnormal units: tells every tiny point apart
    "ulps": lambda t: math.sin(t / 5e-324) if abs(t) < 1e-300 else math.atan(t),
}

# a == b, +-0 ends, subnormal widths (whose strided grids differ from a fresh
# linspace at some depths) and a width that overflows to inf, then random ones
_RNG = np.random.default_rng(2026)
_DYADIC_WINDOWS = [
    (0.0, 1.0), (0.3, 0.3), (-0.0, 0.0), (0.0, -0.0), (-0.0, 1.0), (-1.0, -0.0),
    (0.0, 1e-310), (-1e-310, 1e-310), (0.0, 2.2e-308), (5e-324, 1e-323), (-1e308, 1e308),
] + [
    tuple(np.sort(_RNG.normal(size=2) * 10.0 ** _RNG.integers(-12, 12)).tolist())
    for _ in range(6)
]

# every --phi name, and every --f name but const1, plus a callback that
# rejects arrays
_ORACLE_PHIS = ("uniform", "sqrt", "root:3", "frac-limit", "arcsin")
_ORACLE_FS = {name: resolve_function(name).fn
              for name in ("sin", "cos", "id", "poly:0.5,-1.25,2")} | {"math.sin": math.sin}


class TestDyadicGrids:
    """Each dyadic point of phi is evaluated once, with the same bits as the
    per-level routes that evaluate every grid afresh."""

    @pytest.mark.parametrize("window", _DYADIC_WINDOWS, ids=repr)
    @pytest.mark.parametrize("phi", list(_DYADIC_PHIS), ids=str)
    def test_oracle_matches_per_level_route(self, phi, window):
        fn = _DYADIC_PHIS[phi]
        with np.errstate(all="ignore"):
            got = riemann_stieltjes_oracle(np.cos, ScalarPhi(fn), window, 11)
            want = oracle_per_level(np.cos, ScalarPhi(fn), window, 11)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("window", _DYADIC_WINDOWS, ids=repr)
    @pytest.mark.parametrize("phi", list(_DYADIC_PHIS), ids=str)
    def test_variation_matches_per_depth_route(self, phi, window):
        fn = _DYADIC_PHIS[phi]
        with np.errstate(all="ignore"):
            for tol, max_depth in ((1e-9, 11), (1e-300, 8), (1e-9, 1)):
                got = _outcome(variation, ScalarPhi(fn), window, tol, max_depth)
                want = _outcome(variation_per_depth, ScalarPhi(fn), window, tol, max_depth)
                assert got == want

    def test_scalar_phi_is_called_once_per_point(self):
        phi = ScalarPhi(math.atan)
        seen = []

        def f(mids):
            # f is called once per batch of levels (1-16, then 17), after phi
            # has seen every point of the finest grid
            seen.append(phi.calls)
            return np.sin(mids)

        got = riemann_stieltjes_oracle(f, phi, (-1.0, 3.0), 17)
        assert seen == [2**17 + 1] * 2
        assert np.asarray(got).tobytes() == np.asarray(
            oracle_per_level(np.sin, ScalarPhi(math.atan), (-1.0, 3.0), 17)
        ).tobytes()

    @pytest.mark.parametrize("levels", range(1, 23))
    def test_each_level_evaluates_phi_once_per_point(self, levels):
        seen = []

        def phi(t):
            seen.append(np.size(t))
            return np.arctan(t)

        got = riemann_stieltjes_oracle(np.cos, phi, (-0.5, 2.0), levels)
        assert sum(seen) == 2**levels + 1
        want = oracle_per_level(np.cos, np.arctan, (-0.5, 2.0), levels)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("f", list(_ORACLE_FS), ids=str)
    @pytest.mark.parametrize("phi", _ORACLE_PHIS, ids=str)
    def test_named_cdfs_at_the_batch_edges(self, phi, f):
        # levels 1-16 share one call of f, 17 and 18 take one each; a
        # scalar-only f takes the per-element route over the joined midpoints
        cdf = resolve_cdf(phi)
        fn = _ORACLE_FS[f]
        window = (cdf.support.lower[0], cdf.support.upper[0])
        want = oracle_per_level(fn, cdf.value, window, 18)
        for levels in (1, 15, 16, 17, 18):
            got = riemann_stieltjes_oracle(fn, cdf.value, window, levels)
            assert np.asarray(got).tobytes() == np.asarray(want[:levels]).tobytes()

    def test_variation_calls_phi_once_per_point_of_its_last_depth(self):
        # a linear phi sums to phi(1) - phi(0) at every depth, so variation
        # stops after STABLE_ROUNDS equal refinements: at depth 4
        phi = ScalarPhi(lambda t: 2.0 * t)
        assert variation(phi, (0.0, 1.0)) == 2.0
        assert phi.calls == 2**4 + 1


class TestOverflowingWidth:
    """Windows whose width b - a overflows, though every grid point is a
    float: the grid is linspace's formula on the halved ends, doubled."""

    def test_halved_grid_is_linspace_where_both_exist(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = np.sort(rng.normal(size=2) * 10.0 ** rng.integers(-200, 300, 2))
            num = 2 ** int(rng.integers(1, 12)) + 1
            assert np.array_equal(2.0 * np.linspace(a / 2, b / 2, num), np.linspace(a, b, num))
            assert np.array_equal(stieltjes._grid(a, b, num), np.linspace(a, b, num))

    @pytest.mark.parametrize("window", [(-1e308, 1e308), (-1.7976931348623157e308, 1e308)])
    def test_oracle_and_variation(self, window):
        phi = uniform_cdf().value
        assert riemann_stieltjes_oracle(lambda x: np.ones_like(x), phi, window, 9) == [1.0] * 9
        assert variation(phi, window) == 1.0
        sums = riemann_stieltjes_oracle(np.cos, phi, window, 6)
        assert all(math.isfinite(v) for v in sums)

    def test_midpoints_past_half_the_largest_float(self):
        xs = [1.6e308, 1.7e308, 1.75e308, -1.75e308]
        want = [float((Fraction(a) + Fraction(b)) / 2) for a, b in zip(xs, xs[1:])]
        assert stieltjes._midpoints(np.array(xs)).tolist() == want


class TestNormalStep:
    """Where the finest dyadic step is a normal float, every coarser grid
    is its strided points, bit for bit; the oracle and variation rely on it."""

    @staticmethod
    def nests(a, b, levels):
        finest = stieltjes._grid(a, b, 2**levels + 1)
        return all(
            stieltjes._grid(a, b, 2**level + 1).tobytes()
            == finest[:: 2 ** (levels - level)].tobytes()
            for level in range(1, levels + 1)
        )

    @staticmethod
    def windows(rng, levels):
        """Random windows; windows of width near 2**(levels - 1022), where
        the finest step turns subnormal, from tiny ends; +-0 ends; and
        widths that overflow."""
        out = [tuple(np.sort(rng.normal(size=2) * 10.0 ** rng.integers(-300, 300, 2)))
               for _ in range(20)]
        edge = 2.0 ** (levels - 1022)
        for scale in (0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.5, 3.0):
            a = float(rng.integers(-2**20, 2**20)) * 5e-324
            out += [(a, a + scale * edge), (0.0, scale * edge), (-scale * edge, -0.0)]
        out += [(-0.0, 0.0), (0.0, -0.0), (-0.0, 1.0), (-1.0, -0.0), (0.0, 0.0),
                (-1e308, 1e308), (-1.7976931348623157e308, 1.7976931348623157e308),
                (-1.7976931348623157e308, 1e300), (-1e300, 1.7e308)]
        return out

    @pytest.mark.parametrize("levels", [1, 2, 5, 11, 16])
    def test_strided_grids_are_fresh_grids_where_the_step_is_normal(self, levels):
        rng = np.random.default_rng(levels)
        normal = other = 0
        for a, b in self.windows(rng, levels):
            if stieltjes._normal_step(a, b, levels):
                normal += 1
                assert self.nests(a, b, levels), (a, b)
            else:
                other += 1
            if not math.isinf(b - a):
                # linspace's step, where it is normal and exact
                step = np.linspace(a, b, 2**levels + 1, retstep=True)[1]
                exact = abs(step) >= 2.0**-1022 and step * 2**levels == b - a
                assert stieltjes._normal_step(a, b, levels) == exact
        assert normal >= 20 and other >= 5

    def test_deepest_grid_and_a_step_rounded_up_to_normal(self):
        for a, b in [(0.0, 1.0), (-3.0, 1e-3), (0.0, 2.0**-1000), (-1e308, 1e308)]:
            assert stieltjes._normal_step(a, b, 22)
            assert self.nests(a, b, 22)
        assert not stieltjes._normal_step(0.0, 2.0**-1001, 22)
        # a subnormal step that rounds up to the least normal float
        below = (1.0 - 2.0**-53) * 2.0**-1000
        assert below / 2**22 == 2.0**-1022
        assert not stieltjes._normal_step(0.0, below, 22)


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
        for record in self.records():
            for name in ("dim", "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 1)
                assert name == "dim" or not hasattr(record, name)


class TestStepCdf:
    def test_value_at_infinity(self):
        cdf = StepCdf(from_points([0.3, 0.6, 0.6, 0.9]))
        assert abs(cdf(math.inf) - 1.0) <= 1e-12

    def test_vectorized_matches_scalar(self):
        # bit for bit: at random points, at every atom, between atoms, and
        # below the first and above the last
        rng = np.random.default_rng(61)
        for _ in range(20):
            cdf = StepCdf(random_measure(rng, max_atoms=20))
            atoms = cdf.source.points[:, 0]
            xs = np.concatenate((
                rng.normal(size=50), atoms, 0.5 * (atoms[:-1] + atoms[1:]),
                [np.nextafter(atoms[0], -np.inf), atoms[-1] + 1.0, -np.inf, np.inf],
            ))
            vec = cdf(xs)
            assert [v.hex() for v in vec.tolist()] == [cdf(float(x)).hex() for x in xs]

    def test_matches_cdf_eval(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            m = random_measure(rng, max_atoms=30)
            cdf = StepCdf(m)
            x = float(rng.normal())
            assert abs(cdf(x) - cdf_eval(m, x)) <= 1e-12

    def test_lookup_is_built_on_the_first_call(self, monkeypatch):
        def refuse(w):
            raise AssertionError("cumulative weights built")

        monkeypatch.setattr(stieltjes, "anchored_cumsum", refuse)
        m = from_points([0.3, 0.6, 0.6, 0.9])
        cdf = StepCdf(m)
        assert cdf.window() == (0.3 - 1.0, 0.9 + 1.0)
        assert integrate_step(np.sin, cdf) == expectation(m, np.sin)
        with pytest.raises(AssertionError, match="built"):
            cdf(0.5)

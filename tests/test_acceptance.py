"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The large solver runs use n = 10**6 and stay within the
stated single-threaded runtime budgets.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from asymptolim import (
    EULER_GAMMA,
    HyperBox,
    PolySpec,
    SmoothCdf,
    StepCdf,
    cdf_eval,
    cdf_sequence_probe,
    delta_box,
    digamma,
    dirichlet_weak,
    expectation,
    frac_limit_cdf,
    frac_limit_cdf_series,
    frac_n_over_i_cdf,
    frac_n_over_i_mean,
    from_points,
    hurwitz_zeta,
    integrate_smooth,
    integrate_step,
    interval_proportion_sin,
    measure_box,
    polynomial_family,
    pushforward,
    riemann_stieltjes_oracle,
    sequence_average,
    trigamma,
    variation,
    variation_limit_check,
)
from asymptolim.cli import build_parser, config_from_args, execute
from asymptolim.convergence import DEFAULT_GRID
from asymptolim.problems import PROBLEMS, frac_limit_smooth_cdf
from asymptolim.stieltjes import Partition1D

from test_measure import random_measure


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_example1_reproduction():
    with criterion(1, "example1 sine mean at n=1e6 within 5e-3 of 1-cos(1), <=10s"):
        config = config_from_args(
            build_parser().parse_args(
                ["solve", "example1", "--f", "sin", "--n", "1000000"]
            )
        )
        start = time.perf_counter()
        report = execute(config)
        elapsed = time.perf_counter() - start
        result = report["result"]
        assert result["closed_form"] == pytest.approx(1 - math.cos(1), abs=1e-9)
        assert result["abs_error"] <= 5e-3
        assert elapsed <= 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_2_example2_reproduction():
    with criterion(2, "sine proportion in [-1/2,1/2] at n=1e6 within 5e-3 of 1/3"):
        res = interval_proportion_sin(10**6, -0.5, 0.5)
        assert res.closed_form == pytest.approx(1 / 3, abs=1e-15)
        assert res.abs_error <= 5e-3


def test_criterion_3_example3_reproduction():
    with criterion(3, "CDF of {n/i} vs digamma closed form: sup <= 2e-2, decaying"):
        n_list = (10**3, 10**4, 10**5, 10**6)
        report = cdf_sequence_probe(
            PROBLEMS["example3"].family(),
            frac_limit_smooth_cdf(),
            grid=DEFAULT_GRID,
            n_list=n_list,
        )
        assert report.sup_errors[-1] <= 2e-2
        decays = sum(report.monotone_decay)
        assert decays >= 2, f"sup errors {report.sup_errors} decay too rarely"
        # the counting solver agrees on the same grid at n = 1e6
        sup_solver = max(
            abs(frac_n_over_i_cdf(10**6, t).empirical - frac_limit_cdf(t))
            for t in DEFAULT_GRID
        )
        assert sup_solver <= 2e-2


def test_criterion_4_example4_and_dirichlet():
    with criterion(4, "mean of {n/i} vs 1-gamma and divisor sum vs 2*gamma-1 at n=1e6"):
        res4 = frac_n_over_i_mean(10**6)
        assert res4.closed_form == pytest.approx(1 - EULER_GAMMA, abs=1e-15)
        assert res4.abs_error <= 5e-3
        resd = dirichlet_weak(10**6)
        assert resd.closed_form == pytest.approx(2 * EULER_GAMMA - 1, abs=1e-15)
        assert resd.abs_error <= 5e-3


def test_criterion_5_polynomial_family():
    with criterion(5, "square polynomial at n=1e8 within 1e-3 of 1/3, <1s"):
        spec = PolySpec.make((1, 0, 0), norm_r=2, norm_b=1.0, f=lambda x: x)
        start = time.perf_counter()
        res = polynomial_family(spec, 10**8)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
        # closed form from quadrature against the square-root CDF
        assert abs(res.closed_form - 1 / 3) <= 1e-8
        # brute-force oracle over the 1e4 surviving indices
        count = math.isqrt(10**8)
        brute = math.fsum((i * i) / 10**8 for i in range(1, count + 1)) / math.sqrt(
            10**8
        )
        assert abs(brute - 1 / 3) <= 1e-3
        assert res.abs_error <= 1e-3


def test_criterion_6_special_function_suite():
    with criterion(6, "digamma/trigamma/Hurwitz identities and series agreement"):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-10
        assert abs(digamma(0.5) - (-EULER_GAMMA - 2 * math.log(2))) <= 1e-10
        assert abs(trigamma(1.0) - math.pi**2 / 6) <= 1e-10
        for j in range(1, 11):
            x = j / 2.0
            assert abs(hurwitz_zeta(2.0, x) - trigamma(x)) <= 1e-10
        for t in np.linspace(0.0, 0.6, 25):
            gap = abs(frac_limit_cdf_series(float(t), 80).value - frac_limit_cdf(float(t)))
            assert gap <= 1e-12


def test_criterion_7_stieltjes_engine_properties():
    with criterion(7, "box/CDF consistency, step exactness, oracle agreement, variation"):
        rng = np.random.default_rng(2024)
        # 1000 random measures and finite boxes across 1D/2D/3D
        for trial in range(1000):
            dim = 1 + trial % 3
            m = random_measure(rng, dim=dim)
            lo = rng.normal(size=dim) - 1.0
            hi = lo + 3.0 * rng.random(dim)
            box = HyperBox(lo, hi)
            inc = delta_box(lambda p: cdf_eval(m, p), box)
            assert abs(inc - measure_box(m, box)) <= 1e-12
        # exact equality of the step integral and the expectation
        for _ in range(100):
            m = random_measure(rng)
            f = lambda t: math.sin(2.0 * t) + 0.5 * t
            assert integrate_step(f, StepCdf(m)) == expectation(m, f)
        # quadrature versus raw Riemann-Stieltjes sums on 20 smooth cases
        cases = []
        for a in (0.5, 1.0, 1.5, 2.0, 3.0):
            cases.append((lambda t, a=a: math.sin(a * t), lambda t: t, lambda t: 1.0))
            cases.append(
                (
                    lambda t, a=a: math.exp(-a * t),
                    lambda t: t * t,
                    lambda t: 2.0 * t,
                )
            )
            cases.append(
                (
                    lambda t, a=a: a * t + 1.0,
                    lambda t, a=a: t ** (1.0 + a),
                    lambda t, a=a: (1.0 + a) * t**a,
                )
            )
            cases.append(
                (
                    lambda t, a=a: math.cos(a * t),
                    lambda t: math.sin(t) / math.sin(1.0),
                    lambda t: math.cos(t) / math.sin(1.0),
                )
            )
        assert len(cases) == 20
        for f, phi, density in cases:
            smooth = SmoothCdf(phi, HyperBox(0.0, 1.0), density=density)
            quad = integrate_smooth(f, smooth, tol=1e-10)
            sums = riemann_stieltjes_oracle(f, phi, (0.0, 1.0), levels=12)
            combined = 4.0 * abs(sums[-1] - sums[-2]) + 1e-8
            assert abs(quad.value - sums[-1]) <= combined
        # every step CDF has total variation one
        for size in (1, 2, 7, 100, 1000, 10**4):
            cdf = StepCdf(from_points(rng.normal(size=size)))
            assert abs(variation(cdf, cdf.window()) - 1.0) <= 1e-12
        # the limit density of {n/i} integrates to one
        res = integrate_smooth(lambda t: 1.0, frac_limit_smooth_cdf(), tol=1e-10)
        assert abs(res.value - 1.0) <= 1e-9


def test_criterion_8_variation_limit_convergence():
    with criterion(8, "variations converge: unit for uniform family, 1/n -> 0"):
        window = Partition1D([(-0.5, 1.5)])
        cdfs = [
            StepCdf(from_points(np.arange(1, n + 1) / n)) for n in (10, 100, 1000, 10**4)
        ]
        report = variation_limit_check(
            cdfs, lambda t: min(max(t, 0.0), 1.0), window
        )
        assert all(abs(v - 1.0) <= 1e-12 for v in report.var_n)
        assert abs(report.var_limit - 1.0) <= 1e-12
        assert report.converged
        shrink = variation_limit_check(
            [lambda t, n=n: t / n for n in (10, 100, 1000)],
            lambda t: 0.0,
            Partition1D([(0.0, 1.0)]),
            tol=2e-3,
        )
        assert shrink.var_limit == 0.0
        for n, v in zip((10, 100, 1000), shrink.var_n):
            assert abs(v - 1.0 / n) <= 1e-12
        assert shrink.converged


def test_criterion_9_pushforward_chain_identity():
    with criterion(9, "expectation through pushforward equals direct route, 1e-12"):
        rng = np.random.default_rng(4040)
        maps = (
            lambda x: math.sin(1.3 * x),
            lambda x: x * x - 0.25,
            lambda x: math.exp(0.4 * x),
        )
        integrands = (
            lambda y: 2.0 * y + 0.1,
            lambda y: math.cos(y),
            lambda y: y**3,
        )
        for trial in range(1000):
            m = random_measure(rng)
            g = maps[trial % 3]
            f = integrands[(trial // 3) % 3]
            direct = expectation(m, lambda x: f(g(x)))
            pushed = pushforward(m, g)
            routed = expectation(pushed, f)
            stepped = integrate_step(f, StepCdf(pushed))
            assert abs(direct - routed) <= 1e-12
            assert stepped == routed


def test_criterion_10_thread_determinism():
    with criterion(10, "numeric outputs bit-identical across 1, 4 and 8 threads"):
        n = 10**5
        spec = PolySpec.make((1, 0, 0), norm_r=2, norm_b=1.0, f=lambda x: x)
        baselines = None
        for threads in (1, 4, 8):
            outputs = (
                sequence_average(n, np.sin, threads=threads).empirical,
                interval_proportion_sin(n, -0.5, 0.5, threads=threads).empirical,
                frac_n_over_i_cdf(n, 0.5, threads=threads).empirical,
                frac_n_over_i_mean(n, threads=threads).empirical,
                dirichlet_weak(n, threads=threads).empirical,
                polynomial_family(spec, 10**8, threads=threads).empirical,
            )
            if baselines is None:
                baselines = outputs
            else:
                assert outputs == baselines
        # the full CLI report carries identical numbers too
        reports = []
        for threads in ("1", "4", "8"):
            config = config_from_args(
                build_parser().parse_args(
                    ["solve", "example4", "--n", "100000", "--threads", threads]
                )
            )
            reports.append(json.dumps(execute(config)["result"], sort_keys=True))
        assert reports[0] == reports[1] == reports[2]

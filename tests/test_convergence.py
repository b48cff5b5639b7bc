import math

import numpy as np
import pytest

from asymptolim import (
    Boundary,
    Partition1D,
    StepCdf,
    cdf_sequence_probe,
    charfn_compare,
    continuity_set_check,
    empirical_charfn,
    from_points,
    variation_limit_check,
)
from asymptolim.accum import CHUNK
from asymptolim.convergence import DEFAULT_GRID
from asymptolim.problems import (
    PROBLEMS,
    Problem,
    frac_limit_smooth_cdf,
    frac_n_over_i_cdf,
    reciprocal_frac_boundary,
    sqrt_frac_cdf,
    uniform_cdf,
)
from test_problems import exact_frac_count, exact_sqrt_count


class TestCdfSequenceProbe:
    def test_canonical_family_error_bound(self):
        report = cdf_sequence_probe(
            PROBLEMS["canonical-uniform"], uniform_cdf(), n_list=(10, 100, 1000)
        )
        assert report.grid == DEFAULT_GRID
        for n, sup in zip(report.n_list, report.sup_errors):
            assert sup <= 1.0 / n + 1e-12
        # decay up to rounding noise (exact-hit grids leave only ulps)
        for a, b in zip(report.sup_errors, report.sup_errors[1:]):
            assert b <= a + 1e-12
        assert report.excluded == ()

    def test_constant_family_has_zero_error(self):
        atoms = np.array([0.1, 0.4, 0.9])
        cdf = StepCdf(from_points(atoms))
        # the n-th point set repeats the three atoms n/3 times
        points = Problem(lambda n, a, b, out=None: atoms[np.arange(a, b) % 3], uniform_cdf)
        report = cdf_sequence_probe(points, lambda t: cdf(t), n_list=(6, 60))
        assert report.sup_errors == (0.0, 0.0)

    def test_sqrt_frac_family_decays(self):
        report = cdf_sequence_probe(
            PROBLEMS["example1"], uniform_cdf(), n_list=(1000, 10_000, 100_000)
        )
        assert report.sup_errors[-1] <= 0.01
        assert report.sup_errors[-1] <= report.sup_errors[0]

    def test_jump_points_are_excluded(self):
        step = lambda t: 0.0 if t < 0.5 else 1.0
        point_mass = Problem(lambda n, a, b, out=None: np.full(b - a, 0.5), uniform_cdf)
        report = cdf_sequence_probe(
            point_mass, step, grid=(0.25, 0.5, 0.75), n_list=(1, 2)
        )
        assert report.excluded == (1,)
        # the jump point does not poison the sup errors
        assert report.sup_errors == (0.0, 0.0)

    def test_sup_errors_invariant_under_atom_permutation(self):
        rng = np.random.default_rng(89)
        pts = rng.random(500)
        shuffled = pts[rng.permutation(500)]
        ordered = Problem(lambda n, a, b, out=None: pts[a - 1 : b - 1], uniform_cdf)
        permuted = Problem(lambda n, a, b, out=None: shuffled[a - 1 : b - 1], uniform_cdf)
        rep_a = cdf_sequence_probe(ordered, uniform_cdf(), n_list=(500,))
        rep_b = cdf_sequence_probe(permuted, uniform_cdf(), n_list=(500,))
        assert rep_a.sup_errors == rep_b.sup_errors
        assert rep_a.cdf_values == rep_b.cdf_values

    def test_converged_verdict_rule(self):
        # indices chosen so no grid point is an exact atom (real decay,
        # not ulp noise)
        report = cdf_sequence_probe(
            PROBLEMS["canonical-uniform"], uniform_cdf(), n_list=(7, 73, 641)
        )
        assert report.converged(abs_tol=1e-2)
        assert not report.converged(abs_tol=1e-30)
        lenient = report.converged(abs_tol=1e-2, decay_fraction=0.0)
        strict = report.converged(abs_tol=1e-2, decay_fraction=1.01)
        assert lenient and not strict

    def test_rejects_bad_n_list(self):
        with pytest.raises(ValueError):
            cdf_sequence_probe(PROBLEMS["canonical-uniform"], uniform_cdf(), n_list=(100, 10))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cdf_sequence_probe(
                PROBLEMS["canonical-uniform"], uniform_cdf(), grid=(), n_list=(10,)
            )


# per sweep problem: an unsorted grid inside its domain with a repeated value
STREAM_GRIDS = {
    "canonical-uniform": (0.7, 0.2, 0.5, 0.2, 0.9),
    "example1": (0.7, 0.2, 0.5, 0.2, 0.9),
    "example2": (0.3, -0.8, 0.0, 0.3, -0.1, 0.95),
    "example3": (0.7, 0.2, 0.5, 0.2, 0.9),
}


class TestStreamedProbe:
    """Problems are counted chunk by chunk; the CDF at each grid point is
    count(x <= t) / n, exactly: of the float points where they are the
    points, and of the exact points of example1 and example3."""

    SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)

    # exact counts of the problems whose float points are rounded
    EXACT = {"example1": exact_sqrt_count, "example3": exact_frac_count}

    @classmethod
    def brute_force(cls, name, n, grid):
        if name in cls.EXACT:
            counts = {t: cls.EXACT[name](n, t) for t in set(grid)}
            return tuple(counts[t] / n for t in grid)
        x = np.sort(PROBLEMS[name].points(n, 1, n + 1))
        return tuple(np.searchsorted(x, grid, side="right") / n)

    @staticmethod
    def atom_grid(name, n):
        if name == "canonical-uniform":
            # the atoms i/n themselves, unsorted, 1/n twice
            return tuple(max(i, 1) / n for i in (2 * n // 3, 1, n // 2, n // 7, 1))
        if name == "example3":
            # {n/i} = 1/2 exactly for every i = 2n/(2q+1)
            return (0.5, 0.25, 0.5, 0.75)
        return ()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_equals_brute_force_counts(self, name, n):
        problem = PROBLEMS[name]
        grid = STREAM_GRIDS[name] + self.atom_grid(name, n)
        report = cdf_sequence_probe(problem, problem.limit(), grid=grid, n_list=(n,))
        assert report.cdf_values[0] == self.brute_force(name, n, grid)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_agrees_with_whole_measure_route(self, name):
        problem = PROBLEMS[name]
        phi = problem.limit()
        grid = STREAM_GRIDS[name]
        ns = (1, 999, CHUNK + 1)
        streamed = cdf_sequence_probe(problem, phi, grid=grid, n_list=ns)
        assert streamed.excluded == ()
        for n, row, sup in zip(ns, streamed.cdf_values, streamed.sup_errors):
            if name in self.EXACT:
                ref = self.brute_force(name, n, grid)
            else:
                ref = StepCdf(from_points(problem.points(n, 1, n + 1)))(np.asarray(grid))
            assert row == pytest.approx(tuple(ref), abs=1e-12, rel=0)
            ref_sup = max(abs(v - phi.value(g)) for v, g in zip(ref, grid))
            assert sup == pytest.approx(ref_sup, abs=1e-12, rel=0)

    @pytest.mark.parametrize("n", [999, CHUNK + 1, 1000002])
    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_sweep_equals_cdf_solver(self, name, n):
        solve = {
            "example1": sqrt_frac_cdf,
            "example3": lambda n, t: frac_n_over_i_cdf(n, t).empirical,
        }[name]
        problem = PROBLEMS[name]
        report = cdf_sequence_probe(problem, problem.limit(), n_list=(n,))
        assert report.cdf_values[0] == tuple(solve(n, t) for t in DEFAULT_GRID)

    def test_settles_the_sqrt_near_miss(self):
        # the rounded {sqrt k} of one k falls to t while the exact one exceeds t
        n, t = 1000002, 0.0009999994999816408
        report = cdf_sequence_probe(PROBLEMS["example1"], uniform_cdf(), grid=(t,), n_list=(n,))
        assert report.cdf_values == ((1501 / n,),)

    def test_atom_at_half_is_counted(self):
        # {105/i} = 1/2 exactly for the seven i = 2d <= 105 with d | 105
        n = 105
        exact = sum(1 for i in range(1, n + 1) if (n % i) * 2 <= i)
        below = math.nextafter(0.5, 0.0)
        report = cdf_sequence_probe(
            PROBLEMS["example3"], frac_limit_smooth_cdf(), grid=(0.5, below), n_list=(n,)
        )
        assert report.cdf_values == ((exact / n, (exact - 7) / n),)

    def test_thread_count_changes_nothing(self):
        ns = (10, CHUNK + 1, 3 * CHUNK + 7)
        reports = [
            cdf_sequence_probe(
                PROBLEMS["example3"], frac_limit_smooth_cdf(), n_list=ns, threads=t
            )
            for t in (1, 2, 3)
        ]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_non_finite_points_rejected(self):
        def nan_after_one_chunk(n, start, stop, out=None):
            x = np.arange(start, stop, dtype=np.float64) / n
            x[x > 0.5] = np.nan
            return x

        n = 3 * CHUNK
        with pytest.raises(ValueError, match="points must be finite"):
            cdf_sequence_probe(Problem(nan_after_one_chunk, uniform_cdf), uniform_cdf(), n_list=(n,))
        # the whole-measure route raises the same error
        with pytest.raises(ValueError, match="points must be finite"):
            from_points(nan_after_one_chunk(n, 1, n + 1))

    def test_nan_grid_value_rejected_before_counting(self, monkeypatch):
        # every compare with NaN is false: its CDF value would be a count of
        # nothing against a NaN target, and the sup error would skip it
        from asymptolim import problems

        def no_loop(*args, **kwargs):
            raise AssertionError("chunk loop reached")

        monkeypatch.setattr(problems, "map_reduce_int", no_loop)
        for name in PROBLEMS:
            with pytest.raises(ValueError, match="nan"):
                cdf_sequence_probe(PROBLEMS[name], uniform_cdf(), grid=(0.5, math.nan))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            cdf_sequence_probe(PROBLEMS["canonical-uniform"], uniform_cdf(), n_list=(0, 10))


class TestCharfn:
    def test_point_mass_at_origin(self):
        m = from_points([0.0])
        assert charfn_compare(m, lambda t: 1.0 + 0.0j, [1.0, 2.0, 5.0]) == 0.0

    def test_self_comparison_vanishes(self):
        rng = np.random.default_rng(97)
        m = from_points(rng.normal(size=40), rng.random(40) + 0.1)
        err = charfn_compare(m, lambda t: empirical_charfn(m, t), np.linspace(-4, 4, 17))
        assert err <= 1e-12

    def test_uniform_samples_match_uniform_law(self):
        n = 10_000
        m = from_points(np.arange(1, n + 1) / n)
        target = lambda t: (np.exp(1j * t) - 1.0) / (1j * t)
        assert charfn_compare(m, target, [1.0, 2.0, 3.0, 4.0, 5.0]) <= 1e-3

    def test_symmetric_measure_has_real_charfn(self):
        rng = np.random.default_rng(101)
        half = rng.normal(size=30)
        m = from_points(np.concatenate([half, -half]))
        for t in (0.3, 1.0, 2.7):
            assert abs(empirical_charfn(m, t).imag) <= 1e-12

    def test_two_dimensional_frequency(self):
        m = from_points([[0.0, 0.0], [1.0, 2.0]])
        z = empirical_charfn(m, (0.5, 0.25))
        expected = 0.5 + 0.5 * complex(math.cos(1.0), math.sin(1.0))
        assert abs(z - expected) <= 1e-15


class TestContinuitySet:
    def test_finite_boundary_passes(self):
        assert continuity_set_check(lambda t: 1.0, [0.25, 0.75]) is True

    def test_countable_boundary_passes(self):
        boundary = reciprocal_frac_boundary(0.3)
        assert continuity_set_check(lambda t: 1.0, boundary) is True

    def test_non_null_boundary_fails(self):
        boundary = Boundary.non_null("the boundary is a whole interval")
        assert continuity_set_check(lambda t: 1.0, boundary) is False

    def test_density_must_be_callable(self):
        with pytest.raises(TypeError):
            continuity_set_check(None, [0.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Boundary("woolly", (), "")


class TestVariationLimit:
    def test_uniform_cdf_family(self):
        cdfs = [StepCdf(from_points(np.arange(1, n + 1) / n)) for n in (10, 100, 1000)]
        report = variation_limit_check(
            cdfs,
            lambda t: min(max(t, 0.0), 1.0),
            Partition1D([(-0.5, 1.5)]),
        )
        assert report.var_limit == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v - 1.0) <= 1e-12 for v in report.var_n)
        assert report.converged

    def test_constant_sequence_trivially_converges(self):
        phi = lambda t: min(max(t, 0.0), 1.0) ** 2
        report = variation_limit_check(
            [phi, phi, phi], phi, Partition1D([(0.0, 1.0)])
        )
        assert report.converged
        assert report.var_n[-1] == report.var_limit

    def test_shrinking_linear_functions(self):
        seq = [lambda t, n=n: t / n for n in (10, 100, 1000)]
        report = variation_limit_check(
            seq, lambda t: 0.0, Partition1D([(0.0, 1.0)]), tol=2e-3
        )
        assert report.var_limit == 0.0
        for n, v in zip((10, 100, 1000), report.var_n):
            assert abs(v - 1.0 / n) <= 1e-12
        assert report.converged

    def test_multi_interval_partition(self):
        phi = lambda t: math.sin(t)
        report = variation_limit_check(
            [phi], phi, Partition1D([(0.0, 1.0), (2.0, 3.0)]), tol=1e-6
        )
        expected = math.sin(1.0) + (math.sin(2.0) - math.sin(3.0))
        assert report.var_limit == pytest.approx(expected, abs=1e-6)

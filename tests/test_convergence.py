import math

import numpy as np
import pytest

from asymptolim import (
    Boundary,
    MeasureFamily,
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
    frac_limit_smooth_cdf,
    reciprocal_frac_boundary,
    uniform_cdf,
)


class TestCdfSequenceProbe:
    def test_canonical_family_error_bound(self):
        report = cdf_sequence_probe(
            PROBLEMS["canonical-uniform"].family(),
            uniform_cdf(),
            n_list=(10, 100, 1000),
        )
        assert report.grid == DEFAULT_GRID
        for n, sup in zip(report.n_list, report.sup_errors):
            assert sup <= 1.0 / n + 1e-12
        # decay up to rounding noise (exact-hit grids leave only ulps)
        for a, b in zip(report.sup_errors, report.sup_errors[1:]):
            assert b <= a + 1e-12
        assert report.excluded == ()

    def test_constant_family_has_zero_error(self):
        m = from_points([0.1, 0.4, 0.9])
        cdf = StepCdf(m)
        family = MeasureFamily(lambda n: m, "constant family")
        report = cdf_sequence_probe(family, lambda t: cdf(t), n_list=(5, 50))
        assert report.sup_errors == (0.0, 0.0)

    def test_sqrt_frac_family_decays(self):
        report = cdf_sequence_probe(
            PROBLEMS["example1"].family(), uniform_cdf(), n_list=(1000, 10_000, 100_000)
        )
        assert report.sup_errors[-1] <= 0.01
        assert report.sup_errors[-1] <= report.sup_errors[0]

    def test_jump_points_are_excluded(self):
        step = lambda t: 0.0 if t < 0.5 else 1.0
        family = MeasureFamily(lambda n: from_points([0.5]), "point mass")
        report = cdf_sequence_probe(
            family, step, grid=(0.25, 0.5, 0.75), n_list=(1, 2)
        )
        assert report.excluded == (1,)
        # the jump point does not poison the sup errors
        assert report.sup_errors == (0.0, 0.0)

    def test_sup_errors_invariant_under_atom_permutation(self):
        rng = np.random.default_rng(89)
        pts = rng.random(500)
        shuffled = pts[rng.permutation(500)]
        fam_a = MeasureFamily(lambda n: from_points(pts), "ordered")
        fam_b = MeasureFamily(lambda n: from_points(shuffled), "shuffled")
        rep_a = cdf_sequence_probe(fam_a, uniform_cdf(), n_list=(500,))
        rep_b = cdf_sequence_probe(fam_b, uniform_cdf(), n_list=(500,))
        assert rep_a.sup_errors == rep_b.sup_errors
        assert rep_a.cdf_values == rep_b.cdf_values

    def test_converged_verdict_rule(self):
        # indices chosen so no grid point is an exact atom (real decay,
        # not ulp noise)
        report = cdf_sequence_probe(
            PROBLEMS["canonical-uniform"].family(), uniform_cdf(), n_list=(7, 73, 641)
        )
        assert report.converged(abs_tol=1e-2)
        assert not report.converged(abs_tol=1e-30)
        lenient = report.converged(abs_tol=1e-2, decay_fraction=0.0)
        strict = report.converged(abs_tol=1e-2, decay_fraction=1.01)
        assert lenient and not strict

    def test_rejects_bad_n_list(self):
        with pytest.raises(ValueError):
            cdf_sequence_probe(
                PROBLEMS["canonical-uniform"].family(), uniform_cdf(), n_list=(100, 10)
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cdf_sequence_probe(
                PROBLEMS["canonical-uniform"].family(), uniform_cdf(), grid=(), n_list=(10,)
            )


# per sweep problem: an unsorted grid inside its domain with a repeated value
STREAM_GRIDS = {
    "canonical-uniform": (0.7, 0.2, 0.5, 0.2, 0.9),
    "example1": (0.7, 0.2, 0.5, 0.2, 0.9),
    "example2": (0.3, -0.8, 0.0, 0.3, -0.1, 0.95),
    "example3": (0.7, 0.2, 0.5, 0.2, 0.9),
}


class TestStreamedProbe:
    """Families with a point stream are counted chunk by chunk; the CDF at
    each grid point is count(x <= t) / n, exactly."""

    # problem name -> (family, limit CDF, grid)
    FAMILIES = {
        name: (problem.family, problem.limit, STREAM_GRIDS[name])
        for name, problem in PROBLEMS.items()
    }
    SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)

    @staticmethod
    def brute_force(family, n, grid):
        points = np.sort(family.points(n, 1, n + 1))
        return tuple(np.searchsorted(points, grid, side="right") / n)

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
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_equals_brute_force_counts(self, name, n):
        make, target, grid = self.FAMILIES[name]
        family = make()
        grid = grid + self.atom_grid(name, n)
        report = cdf_sequence_probe(family, target(), grid=grid, n_list=(n,))
        assert report.cdf_values[0] == self.brute_force(family, n, grid)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_agrees_with_whole_measure_route(self, name):
        make, target, grid = self.FAMILIES[name]
        family = make()
        whole = MeasureFamily(family.generator, "the same family, built whole")
        ns = (1, 999, CHUNK + 1)
        streamed = cdf_sequence_probe(family, target(), grid=grid, n_list=ns)
        oracle = cdf_sequence_probe(whole, target(), grid=grid, n_list=ns)
        for row, ref in zip(streamed.cdf_values, oracle.cdf_values):
            assert row == pytest.approx(ref, abs=1e-12, rel=0)
        assert streamed.sup_errors == pytest.approx(oracle.sup_errors, abs=1e-12, rel=0)
        assert streamed.excluded == oracle.excluded == ()

    def test_atom_at_half_is_counted(self):
        # {105/i} = 1/2 exactly for the seven i = 2d <= 105 with d | 105
        n = 105
        exact = sum(1 for i in range(1, n + 1) if (n % i) * 2 <= i)
        below = math.nextafter(0.5, 0.0)
        report = cdf_sequence_probe(
            PROBLEMS["example3"].family(), frac_limit_smooth_cdf(), grid=(0.5, below), n_list=(n,)
        )
        assert report.cdf_values == ((exact / n, (exact - 7) / n),)

    def test_thread_count_changes_nothing(self):
        ns = (10, CHUNK + 1, 3 * CHUNK + 7)
        reports = [
            cdf_sequence_probe(
                PROBLEMS["example3"].family(), frac_limit_smooth_cdf(), n_list=ns, threads=t
            )
            for t in (1, 2, 3)
        ]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_non_finite_points_rejected(self):
        def nan_after_one_chunk(n, start, stop):
            x = np.arange(start, stop, dtype=np.float64) / n
            x[x > 0.5] = np.nan
            return x

        family = MeasureFamily.from_stream(nan_after_one_chunk, "NaN past 1/2")
        n = 3 * CHUNK
        with pytest.raises(ValueError, match="points must be finite"):
            cdf_sequence_probe(family, uniform_cdf(), n_list=(n,))
        # the whole-measure route raises the same error
        with pytest.raises(ValueError, match="points must be finite"):
            family.generator(n)

    def test_generator_builds_the_streamed_points(self):
        family = PROBLEMS["example3"].family()
        m = family.generator(CHUNK + 5)
        assert m.source_count == CHUNK + 5
        assert np.array_equal(
            m.points[:, 0], np.unique(family.points(CHUNK + 5, 1, CHUNK + 6))
        )

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            cdf_sequence_probe(PROBLEMS["canonical-uniform"].family(), uniform_cdf(), n_list=(0, 10))


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

import math

import numpy as np
import pytest

from asymptolim import (
    AtomicMeasure,
    HyperBox,
    cdf_eval,
    expectation,
    from_points,
    measure_box,
    pushforward,
)
from asymptolim.measure import _fold_sorted
from asymptolim.problems import reciprocal_frac_map


def random_measure(rng, dim=1, max_atoms=8):
    m = rng.integers(1, max_atoms + 1)
    pts = rng.integers(-3, 4, size=(m, dim)) / 2.0  # duplicates are likely
    w = rng.random(m) + 0.01
    return from_points(pts, w)


class TestFromPoints:
    def test_folds_duplicates_with_uniform_weights(self):
        m = from_points([1, 1, 2, 3])
        assert m.atoms() == [((1.0,), 0.5), ((2.0,), 0.25), ((3.0,), 0.25)]
        assert m.source_count == 4

    def test_quarter_grid_gets_quarter_weights(self):
        m = from_points([i / 4 for i in range(1, 5)])
        assert [w for _, w in m.atoms()] == [0.25, 0.25, 0.25, 0.25]

    def test_single_point_weight_normalizes(self):
        m = from_points([0.0], weights=[7.0])
        assert m.atoms() == [((0.0,), 1.0)]

    def test_total_weight_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = random_measure(rng, dim=int(rng.integers(1, 4)))
            assert abs(m.total_weight() - 1.0) <= 1e-12

    def test_negative_zero_folds_with_zero(self):
        m = from_points([-0.0, 0.0])
        assert len(m) == 1

    @pytest.mark.parametrize(
        "points,weights",
        [
            ([], None),
            ([[1.0, 2.0], [1.0]], None),
            ([1.0, 2.0], [0.5, -0.1]),
            ([1.0, 2.0], [0.0, 0.0]),
            ([1.0], [1.0, 2.0]),
            ([float("nan")], None),
        ],
    )
    def test_rejects_bad_input(self, points, weights):
        with pytest.raises(ValueError):
            from_points(points, weights)


class TestMeasureBox:
    def test_counts_multiset_members(self):
        m = from_points([1, 1, 2, 3])
        assert measure_box(m, HyperBox(0.0, 2.0)) == 0.75

    def test_uniform_grid_matches_floor_rule(self):
        for n in (7, 40):
            m = from_points([i / n for i in range(1, n + 1)])
            for x in (0.123, 0.5, 0.999, 1.0):
                assert measure_box(m, HyperBox(0.0, x)) == pytest.approx(
                    math.floor(n * x) / n, abs=1e-12
                )

    def test_lower_bound_is_exclusive(self):
        m = from_points([0.0])
        assert measure_box(m, HyperBox(0.0, 1.0)) == 0.0

    def test_dimension_mismatch(self):
        m = from_points([[0.0, 0.0]])
        with pytest.raises(ValueError):
            measure_box(m, HyperBox(0.0, 1.0))

    def test_folding_preserves_box_measure(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            pts = rng.integers(0, 3, size=(6, dim)).astype(float)
            w = rng.random(6)
            folded = from_points(pts, w)
            total = math.fsum(w)
            box = HyperBox(
                rng.integers(-1, 2, size=dim).astype(float),
                rng.integers(2, 4, size=dim).astype(float),
            )
            raw = math.fsum(
                float(wi) / total
                for p, wi in zip(pts, w)
                if box.contains(p)
            )
            assert abs(measure_box(folded, box) - raw) <= 1e-12


class TestCdfEval:
    def test_quarter_grid_midpoint(self):
        m = from_points([i / 4 for i in range(1, 5)])
        assert cdf_eval(m, 0.5) == 0.5

    def test_plus_infinity_gives_total_mass(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3):
            m = random_measure(rng, dim=dim)
            assert abs(cdf_eval(m, (math.inf,) * dim) - 1.0) <= 1e-12

    def test_below_support_gives_zero(self):
        m = from_points([[1.0, 2.0], [3.0, 4.0]])
        assert cdf_eval(m, (0.0, 0.0)) == 0.0

    def test_dimension_mismatch(self):
        m = from_points([[1.0, 2.0]])
        with pytest.raises(ValueError):
            cdf_eval(m, 1.0)

    def test_monotone_in_every_coordinate(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            m = random_measure(rng, dim=dim)
            a = rng.normal(size=dim)
            b = a + rng.random(dim)  # coordinate-wise >= a
            assert cdf_eval(m, b) >= cdf_eval(m, a) - 1e-15


class TestPushforward:
    def test_reciprocal_fractional_part_on_quarters(self):
        m = from_points([i / 4 for i in range(1, 5)])
        out = pushforward(m, lambda x: (1.0 / x) % 1.0)
        atoms = out.atoms()
        assert len(atoms) == 2
        assert atoms[0] == ((0.0,), 0.75)
        assert atoms[1][0][0] == pytest.approx(1 / 3, abs=1e-15)
        assert atoms[1][1] == 0.25

    def test_exactly_equal_images_fold(self):
        m = from_points([-1.0, 0.0, 1.0])
        out = pushforward(m, abs)
        assert [(p[0], w) for p, w in out.atoms()] == [
            (0.0, pytest.approx(1 / 3, abs=1e-15)),
            (1.0, pytest.approx(2 / 3, abs=1e-15)),
        ]

    def test_float_sin_of_pi_is_not_folded_with_zero(self):
        # folding is exact equality: sin(float pi) is ~1.2e-16, not 0.0,
        # so it stays a separate atom rather than being tolerance-merged.
        m = from_points([0.0, math.pi / 2, math.pi])
        out = pushforward(m, math.sin)
        assert len(out) == 3

    def test_identity_keeps_measure(self):
        m = from_points([1, 1, 2, 3])
        out = pushforward(m, lambda x: x)
        assert out.atoms() == m.atoms()

    def test_non_finite_image_rejected(self):
        m = from_points([0.0, 1.0])
        with pytest.raises(ValueError):
            pushforward(m, lambda x: 1.0 / x if x else math.inf)


class TestExpectation:
    def test_uniform_triple_mean(self):
        assert expectation(from_points([1, 2, 3]), lambda x: x) == 2.0

    def test_grid_mean(self):
        for n in (4, 9, 50):
            m = from_points([i / n for i in range(1, n + 1)])
            assert expectation(m, lambda x: x) == pytest.approx(
                (n + 1) / (2 * n), abs=1e-14
            )

    def test_vector_valued_callback(self):
        m = from_points([0.0, 1.0])
        out = expectation(m, lambda x: (x, x * x, 1.0))
        assert np.allclose(out, [0.5, 0.5, 1.0], atol=1e-15)

    def test_pushforward_identity_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_measure(rng)
            g = lambda x: math.sin(1.7 * x) + 0.3 * x
            assert expectation(pushforward(m, g), lambda y: y) == expectation(m, g)

    def test_chain_rule_through_pushforward(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            m = random_measure(rng, dim=dim)
            if dim == 1:
                g = lambda x: (math.cos(x), x * x)
                f = lambda y: y[0] - 2.0 * y[1]
            else:
                g = lambda x: float(x[0]) - float(x[1])
                f = lambda y: math.exp(0.3 * y)
            direct = expectation(m, lambda x: f(g(x)))
            routed = expectation(pushforward(m, g), f)
            assert abs(direct - routed) <= 1e-12


def _per_atom(m, f):
    """Callback values one 1-D atom at a time, as plain floats."""
    return [f(p) for p in m.points[:, 0].tolist()]


def expectation_oracle(m, f):
    vals = np.asarray(_per_atom(m, f), dtype=float)
    if vals.ndim == 1:
        return math.fsum((m.weights * vals).tolist())
    return [math.fsum((m.weights * vals[:, j]).tolist()) for j in range(vals.shape[1])]


def pushforward_oracle(m, g):
    """Atoms of the image measure: images folded by exact equality, weights
    summed with fsum, in sorted order."""
    images: dict = {}
    for y, w in zip(_per_atom(m, g), m.weights.tolist()):
        key = tuple((np.atleast_1d(np.asarray(y, dtype=float)) + 0.0).tolist())
        images.setdefault(key, []).append(w)
    return sorted((key, math.fsum(ws)) for key, ws in images.items())


def _array_refusing(x):
    if isinstance(x, np.ndarray):
        raise TypeError("scalars only")
    return math.exp(-x) if x > 1.0 else 0.25 * x


class TestCallbackEvaluation:
    """1-D callbacks may be called once on the whole atom array; the values
    must equal those of one call per atom."""

    CALLBACKS = {
        "math.sin": math.sin,
        "polynomial": lambda x: 0.5 - 1.25 * x + 3.0 * x * x,
        "np.sqrt": np.sqrt,
        "vector": lambda x: (x, x * x, 1.0),
        "refuses-arrays": _array_refusing,
        "float-method": lambda x: 2.0 if x.is_integer() else x,
    }

    @staticmethod
    def measures():
        rng = np.random.default_rng(31)
        yield from_points([0.3])
        yield from_points([2.0], weights=[5.0])
        for size in (2, 7, 200):
            pts = rng.integers(0, 40, size=size) / 8.0  # duplicates are likely
            yield from_points(pts, rng.random(size) + 0.01)
        yield from_points(rng.random(1000) * 4.0)

    @pytest.mark.parametrize("name", list(CALLBACKS))
    def test_expectation_equals_per_atom_oracle(self, name):
        f = self.CALLBACKS[name]
        for m in self.measures():
            got = expectation(m, f)
            want = expectation_oracle(m, f)
            if isinstance(want, list):
                assert isinstance(got, np.ndarray) and got.tolist() == want
            else:
                assert got == want

    @pytest.mark.parametrize("name", list(CALLBACKS))
    def test_pushforward_equals_per_atom_oracle(self, name):
        g = self.CALLBACKS[name]
        for m in self.measures():
            out = pushforward(m, g)
            assert out.atoms() == pushforward_oracle(m, g)
            assert out.source_count == m.source_count

    def test_numpy_sin_within_one_ulp(self):
        for m in self.measures():
            got = np.array([p[0] for p, _ in pushforward(m, np.sin).atoms()])
            want = np.array(sorted({np.sin(x) for x in m.points[:, 0].tolist()}))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
            e = expectation(m, np.sin)
            # each value within an ulp of 1, the weights summing to one
            assert abs(e - expectation_oracle(m, np.sin)) <= np.spacing(1.0) + np.spacing(abs(e))

    def test_rows_of_multi_dimensional_atoms_one_at_a_time(self):
        m = from_points([(0.0, 1.0), (2.0, 3.0)])
        seen = []

        def f(row):
            seen.append(row.shape)
            return float(row[0] + row[1])

        assert expectation(m, f) == 3.0
        assert seen == [(2,), (2,)]


class TestRecords:
    def test_measures_compare_by_identity(self):
        a = from_points([0.25, 0.5, 0.5])
        b = from_points([0.25, 0.5, 0.5])
        assert a.atoms() == b.atoms()
        assert a != b and a == a
        assert isinstance(a, AtomicMeasure)
        assert repr(a) == "AtomicMeasure(atoms=2, dim=1)"


class TestHyperBox:
    def test_repr_eq_and_hash(self):
        box = HyperBox(0, 1)
        assert repr(box) == "HyperBox(lower=(0.0,), upper=(1.0,))"
        same = HyperBox((0.0,), [1])
        assert box == same and hash(box) == hash(same)
        assert box != HyperBox(0.0, 2.0)
        assert box != (0.0, 1.0)

    def test_membership_rule(self):
        box = HyperBox((0.0, 0.0), (1.0, 1.0))
        assert box.contains((1.0, 1.0))
        assert not box.contains((0.0, 0.5))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            HyperBox(1.0, 0.0)

    def test_up_to_is_lower_unbounded(self):
        box = HyperBox.up_to((2.0, 3.0))
        assert box.lower == (-math.inf, -math.inf)
        assert box.contains((-100.0, 3.0))


def fold_oracle(pts, w):
    """``measure._fold_sorted`` as it was before equal weights were folded by
    one multiply: every group of duplicate points is summed by math.fsum."""
    m = pts.shape[0]
    order = np.lexsort(pts.T[::-1])
    pts = np.ascontiguousarray(pts[order])
    w = np.ascontiguousarray(w[order])
    if m > 1:
        is_new = np.empty(m, dtype=bool)
        is_new[0] = True
        is_new[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        starts = np.flatnonzero(is_new)
        if starts.size != m:
            counts = np.diff(np.append(starts, m))
            folded = np.empty(starts.size)
            singles = counts == 1
            folded[singles] = w[starts[singles]]
            for j in np.flatnonzero(~singles):
                s = starts[j]
                folded[j] = math.fsum(w[s : s + counts[j]].tolist())
            pts = np.ascontiguousarray(pts[starts])
            w = folded
    return pts, w


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


_POINT_POOL = (0.0, -0.0, 0.5, 1.0, -3.25, 1e-310, 5e-324, 7.0)
_SUBNORMALS = (5e-324, 1e-310, 2.2250738585072e-309, 0.0, -0.0)


def _fold_case(st):
    """(points, weights or None): few distinct points, so most atoms have
    duplicates, and weights that are random, all equal, +-0, subnormal, or
    equal on some duplicate groups and unequal on the others."""
    unit = st.floats(0.0, 1.0)

    @st.composite
    def case(draw):
        dim = draw(st.sampled_from((1, 2)))
        m = draw(st.integers(1, 40))
        picks = draw(st.lists(st.integers(0, len(_POINT_POOL) - 1), min_size=m * dim,
                              max_size=m * dim))
        pts = np.array(_POINT_POOL)[picks].reshape(m, dim)
        mode = draw(st.sampled_from(("none", "random", "equal", "zeros", "subnormal", "mixed")))
        if mode == "none":
            return pts, None
        if mode == "random":
            w = draw(st.lists(unit, min_size=m, max_size=m))
        elif mode == "equal":
            w = [draw(unit)] * m
        elif mode == "zeros":
            w = draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=m, max_size=m))
        elif mode == "subnormal":
            w = draw(st.lists(st.sampled_from(_SUBNORMALS), min_size=m, max_size=m))
        else:
            # one weight per equal-weight point, a fresh one per atom elsewhere
            shared = {key: draw(unit) for key in {tuple(row) for row in (pts + 0.0).tolist()}
                      if draw(st.booleans())}
            w = [shared.get(tuple(row)) for row in (pts + 0.0).tolist()]
            w = [draw(unit) if v is None else v for v in w]
        return pts, np.array(w, dtype=float)

    return case()


class TestFoldMatchesFsumLoop:
    """Duplicate points fold to the same bits as the per-group fsum loop."""

    def test_drawn_multisets(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(_fold_case(hypothesis.strategies))
        def check(case):
            pts, w = case
            full = np.full(pts.shape[0], 1.0 / pts.shape[0]) if w is None else w
            for got, want in zip(_fold_sorted(pts + 0.0, full), fold_oracle(pts + 0.0, full)):
                assert_same_bits(got, want)
            if w is not None and not np.any(w > 0.0):
                return
            m = from_points(pts, w)
            if w is not None:
                full = w / math.fsum(w.tolist())
            want_pts, want_w = fold_oracle(pts + 0.0, full)
            assert_same_bits(m.points, want_pts)
            assert_same_bits(m.weights, want_w)

        check()

    def test_drawn_large_1d_multisets(self):
        # thousands of atoms on few distinct points: the 1-D fold sorts by
        # numpy's unstable (SIMD where the CPU has it) argsort, the oracle
        # by lexsort, so duplicates arrive in other orders
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.integers(1000, 5000), st.integers(1, 12), st.integers(0, 2**32 - 1),
                          st.sampled_from(("random", "equal", "mixed", "zeros", "subnormal")))
        def check(m, distinct, seed, mode):
            rng = np.random.default_rng(seed)
            pool = np.concatenate([np.array(_POINT_POOL), rng.normal(size=distinct)])
            pts = rng.choice(pool[rng.permutation(pool.size)[:distinct]], size=m)[:, None]
            if mode == "random":
                w = rng.random(m)
            elif mode == "equal":
                w = np.full(m, rng.random())
            elif mode == "mixed":
                # equal weights on some points' atoms, unequal on the others
                keys = (pts[:, 0] + 0.0).tolist()
                shared = {key: rng.random() for key in set(keys) if rng.random() < 0.5}
                w = np.array([shared.get(key, rng.random()) for key in keys])
            elif mode == "zeros":
                w = rng.choice([0.0, -0.0], size=m)
            else:
                w = rng.choice(_SUBNORMALS, size=m)
            for got, want in zip(_fold_sorted(pts + 0.0, w), fold_oracle(pts + 0.0, w)):
                assert_same_bits(got, want)

        check()

    def test_negative_zero_weights_sum_to_positive_zero(self):
        pts, w = _fold_sorted(np.zeros((3, 1)), np.array([-0.0, -0.0, -0.0]))
        assert_same_bits(w, np.array([0.0]))
        pts, w = _fold_sorted(np.array([[0.0], [1.0]]), np.array([-0.0, -0.0]))
        assert_same_bits(w, np.array([-0.0, -0.0]))

    def test_overflowing_equal_weights_raise_as_fsum_does(self):
        # not a probability, but AtomicMeasure takes any weights
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            _fold_sorted(np.zeros((2, 1)), np.array([1e308, 1e308]))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 97, 1000, 4099, 30000])
    def test_reciprocal_frac_pushforward(self, n):
        m = from_points(np.arange(1, n + 1, dtype=np.float64) / n)
        g = reciprocal_frac_map(n)
        image = pushforward(m, g)
        want_pts, want_w = fold_oracle(np.asarray(g(m.points[:, 0]))[:, None] + 0.0, m.weights)
        assert_same_bits(image.points, want_pts)
        assert_same_bits(image.weights, want_w)

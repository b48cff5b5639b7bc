import itertools
import math
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import accum
from asymptolim.accum import (
    CHUNK,
    MAX_THREADS,
    _EXTRACT_MIN,
    _map_ordered,
    anchored_cumsum,
    chunk_ranges,
    exact_partials,
    exact_units,
    fsum_array,
    map_math,
    map_reduce_fsum,
    map_reduce_int,
    round_units,
)


class TestChunkRanges:
    def test_fixed_width_cover(self):
        assert list(chunk_ranges(1, 2 * CHUNK + 4)) == [
            (1, CHUNK + 1),
            (CHUNK + 1, 2 * CHUNK + 1),
            (2 * CHUNK + 1, 2 * CHUNK + 4),
        ]
        assert list(chunk_ranges(5, 5)) == []

    def test_lazy(self):
        ranges = chunk_ranges(1, 10)
        assert iter(ranges) is ranges
        start = time.perf_counter()
        first = next(iter(chunk_ranges(1, 2**52)))
        assert first == (1, CHUNK + 1)
        assert time.perf_counter() - start < 0.1


class TestMapMath:
    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("fn, args", [(math.log, ()), (math.pow, (1.0 / 3.0,))])
    def test_each_value_across_chunk_edges(self, size, fn, args):
        x = np.random.default_rng(size).random(size) + 0.5
        out = map_math(fn, x, *args)
        assert out.dtype == np.float64 and out.shape == (size,)
        assert out.tobytes() == np.array([fn(v, *args) for v in x.tolist()]).tobytes()
        into = np.empty(size)
        assert map_math(fn, x, *args, out=into) is into
        assert into.tobytes() == out.tobytes()


class TestMapOrdered:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_in_range_order(self, threads):
        out = list(_map_ordered(lambda a, b: (a, b), chunk_ranges(0, 10, 3), threads))
        assert out == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_range_starts_no_pool(self):
        names = []
        list(_map_ordered(lambda a, b: names.append(threading.current_thread().name),
                          [(0, 1)], 4))
        assert names == [threading.current_thread().name]

    def test_streams_endless_ranges_with_a_pool(self):
        # only a bounded window of chunks is in flight, so the first result
        # arrives however many ranges follow
        calls = []

        def kernel(a, b):
            calls.append(a)
            return b - a

        endless = ((s, s + CHUNK) for s in itertools.count(1, CHUNK))
        results = _map_ordered(kernel, endless, 2)
        assert next(results) == CHUNK
        results.close()
        assert len(calls) <= 8


class TestThreadBound:
    def test_too_many_threads_rejected_before_a_pool_starts(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(accum, "ThreadPoolExecutor", no_pool)
        kernel = lambda a, b: b - a
        with pytest.raises(ValueError, match=str(MAX_THREADS)):
            map_reduce_int(kernel, 0, 10 * CHUNK, threads=MAX_THREADS + 1)
        with pytest.raises(ValueError, match=str(MAX_THREADS)):
            map_reduce_fsum(lambda a, b: [1.0], 0, 10 * CHUNK, threads=MAX_THREADS + 1)
        # the bound itself is allowed: one range runs without a pool
        assert map_reduce_int(kernel, 0, CHUNK, threads=MAX_THREADS) == CHUNK


class TestReductions:
    def test_array_tallies_sum_elementwise(self):
        def tally(a, b):
            return np.bincount(np.arange(a, b) % 3, minlength=3)

        for threads in (1, 2):
            total = map_reduce_int(tally, 0, 3 * CHUNK + 2, threads=threads)
            assert total.tolist() == [CHUNK + 1, CHUNK + 1, CHUNK]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_fsum_independent_of_threads(self, threads):
        def kernel(a, b):
            return exact_partials(1.0 / np.arange(a, b, dtype=np.float64))

        base = map_reduce_fsum(kernel, 1, 5 * CHUNK + 11)
        assert map_reduce_fsum(kernel, 1, 5 * CHUNK + 11, threads=threads) == base

    def test_fsum_of_partials_is_the_whole_sum(self):
        # a rounded sum per chunk would be off here; the partials are not
        x = np.random.default_rng(7).standard_normal(3 * CHUNK + 5) * 1e10
        whole = math.fsum(x.tolist())
        assert map_reduce_fsum(lambda a, b: exact_partials(x[a:b]), 0, x.size) == whole
        rounded = math.fsum(math.fsum(x[a:b].tolist()) for a, b in chunk_ranges(0, x.size))
        assert rounded != whole

    @pytest.mark.parametrize("threads", [1, 2])
    def test_divisor_rounds_the_exact_quotient_once(self, threads):
        # partials of every size and sign, short lists and long arrays
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3 * CHUNK + 5) * np.exp(rng.uniform(-30, 30, 3 * CHUNK + 5))

        def kernel(a, b):
            return exact_partials(x[a:b]) + x[a : a + 9].tolist()

        exact = sum(map(Fraction, itertools.chain.from_iterable(
            kernel(a, b) for a, b in chunk_ranges(0, x.size))))
        for n in (1, 3, 10**7 + 19, 2**52 - 1):
            got = map_reduce_fsum(kernel, 0, x.size, threads=threads, divisor=n)
            assert got == float(exact / n), n
        assert map_reduce_fsum(kernel, 0, x.size, threads=threads, divisor=1) == float(exact)


def _outcome(fn, values):
    """``fn(values)`` as comparable data: the float's hex, sign of zero and
    NaN included, or the exception's type and message."""
    try:
        return float(fn(values)).hex()
    except (ValueError, OverflowError, TypeError) as exc:
        return type(exc), str(exc)


def _same_as_fsum(x):
    assert _outcome(fsum_array, x) == _outcome(lambda v: math.fsum(v.tolist()), x)


class TestFsumArray:
    def test_iterables_use_fsum(self):
        values = [0.1] * 10
        assert fsum_array(values) == math.fsum(values)
        assert fsum_array(iter(values)) == math.fsum(values)

    @pytest.mark.parametrize("size", [0, 1, _EXTRACT_MIN - 1, _EXTRACT_MIN, 3 * CHUNK + 1])
    def test_sizes_around_the_cutoff(self, size):
        _same_as_fsum(np.random.default_rng(size).standard_normal(size) * 1e-3)

    def test_massive_cancellation(self):
        rng = np.random.default_rng(1)
        big = rng.standard_normal(2000) * 1e200
        small = rng.standard_normal(2000)
        x = np.concatenate([big, small, -big])
        rng.shuffle(x)
        _same_as_fsum(x)
        assert fsum_array(x) == math.fsum(small.tolist())

    def test_spread_of_decades(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
        _same_as_fsum(x)
        _same_as_fsum(np.concatenate([x, -x[::-1], [1e-300]]))

    def test_subnormals_only(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-(2**52), 2**52, 4000) * 5e-324
        assert np.all(np.abs(x) < 2.3e-308)
        _same_as_fsum(x)

    @pytest.mark.parametrize("zeros", [[-0.0], [0.0], [0.0, -0.0]])
    def test_signed_zeros(self, zeros):
        x = np.resize(np.array(zeros), 2 * _EXTRACT_MIN)
        _same_as_fsum(x)
        ieee_sum = -0.0 if np.signbit(zeros).all() else 0.0
        assert [v.hex() for v in exact_partials(x)] == [ieee_sum.hex()]

    def test_near_overflow(self):
        x = np.full(2000, 1e308)
        assert _outcome(fsum_array, x)[0] is OverflowError
        _same_as_fsum(x)
        _same_as_fsum(np.resize(np.array([1e308, -1e308, 3.0]), 3000))
        _same_as_fsum(np.resize(np.array([8e307, 1.0]), 3000))

    @pytest.mark.parametrize(
        "special", [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf], [math.inf, math.nan]]
    )
    def test_non_finite(self, special):
        x = np.random.default_rng(4).random(3000)
        x[[5, 2000, 2999][: len(special)]] = special
        _same_as_fsum(x)

    @pytest.mark.parametrize(
        "x",
        [
            np.arange(-3000, 5000, dtype=np.int64) * (2**40 + 1),
            np.linspace(-1.0, 3.0, 3000, dtype=np.float32),
            np.arange(3000) % 3 == 0,
            np.ones((40, 40)),
        ],
        ids=["int64", "float32", "bool", "2-D"],
    )
    def test_other_dtypes_and_shapes(self, x):
        _same_as_fsum(x)

    def test_passes_capped(self):
        # 2000 values 30 binades apart need more passes than the cap; the
        # remainder is passed on exactly
        x = 2.0 ** (30.0 * (np.arange(2000) % 60) - 900.0)
        parts = exact_partials(x)
        assert len(parts) > 2000
        _same_as_fsum(x)


class TestAnchoredCumsum:
    def test_matches_the_quadratic_anchoring(self):
        # the anchors are the fsum of all rounded block sums before them
        w = np.random.default_rng(5).random(10 * 4096 + 17) * 1e-5
        block_sums, expected = [], np.empty(w.size)
        for start in range(0, w.size, 4096):
            seg = w[start : start + 4096]
            expected[start : start + 4096] = math.fsum(block_sums) + np.cumsum(seg)
            block_sums.append(math.fsum(seg.tolist()))
        assert np.array_equal(anchored_cumsum(w), expected)

import itertools
import threading
import time

import numpy as np
import pytest

from asymptolim.accum import CHUNK, _map_ordered, chunk_ranges, map_reduce_fsum, map_reduce_int


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
            return float(np.sum(1.0 / np.arange(a, b, dtype=np.float64)))

        base = map_reduce_fsum(kernel, 1, 5 * CHUNK + 11)
        assert map_reduce_fsum(kernel, 1, 5 * CHUNK + 11, threads=threads) == base

"""The per-thread chunk workspace and the kernels that compute in it.

Every in-place kernel and stream is checked bit for bit against its fresh
form and against the allocating formula it replaced, which is kept here as
the oracle.
"""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

from asymptolim import PolySpec, polynomial_family, sequence_average
from asymptolim import accum
from asymptolim.accum import CHUNK, Workspace, exact_partials, workspace
from asymptolim.cli import resolve_function
from asymptolim.convergence import cdf_sequence_probe
from asymptolim.problems import (
    PROBLEMS,
    _mean_sum,
    _reciprocal_frac_chunk,
    _remainder_chunk,
    _sqrt_frac_chunk,
)

# Bytes of one workspace: three float64 arrays and a bool array.
WORKSPACE_BYTES = 3 * 8 * CHUNK + CHUNK


# ---------------------------------------------------------------------------
# The allocating formulas that the in-place kernels replaced
# ---------------------------------------------------------------------------

def sqrt_frac_oracle(start, stop):
    k = np.arange(start, stop, dtype=np.int64)
    root = np.sqrt(k.astype(np.float64))
    f = np.floor(root).astype(np.int64)
    f = np.where((f + 1) * (f + 1) <= k, f + 1, f)
    f = np.where(f * f > k, f - 1, f)
    return root - f


def reciprocal_frac_oracle(n, start, stop):
    i = np.arange(start, stop, dtype=np.int64)
    return (n % i) / i


STREAM_ORACLES = {
    "canonical-uniform": lambda n, a, b: np.arange(a, b, dtype=np.float64) / n,
    "example1": lambda n, a, b: sqrt_frac_oracle(a, b),
    "example2": lambda n, a, b: np.sin(2.0 * math.pi * sqrt_frac_oracle(a, b)),
    "example3": reciprocal_frac_oracle,
}

RANGES = [(1, 2), (1, 1000), (1, CHUNK + 1), (10**7, 10**7 + 777), (2**52 - CHUNK, 2**52)]
RANGE_IDS = ["one", "short", "chunk", "1e7", "2**52"]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def garbage(m, dtype=np.float64):
    """An output array whose old contents must not leak into the result."""
    out = np.empty(m, dtype=dtype)
    out.fill(np.nan if dtype == np.float64 else -7)
    return out


class TestKernels:
    @pytest.mark.parametrize("start,stop", RANGES, ids=RANGE_IDS)
    def test_sqrt_frac_in_place_equals_fresh_and_oracle(self, start, stop):
        out = garbage(stop - start)
        got = _sqrt_frac_chunk(start, stop, out=out)
        assert got is out
        assert same_bits(got, _sqrt_frac_chunk(start, stop))
        assert same_bits(got, sqrt_frac_oracle(start, stop))

    @pytest.mark.parametrize("start,stop", RANGES, ids=RANGE_IDS)
    @pytest.mark.parametrize("n", [7, 10**7 + 3, 2**52 - 1, 2**52])
    def test_reciprocal_frac_in_place_equals_fresh_and_oracle(self, n, start, stop):
        out = garbage(stop - start)
        got = _reciprocal_frac_chunk(n, start, stop, out=out)
        assert got is out
        assert same_bits(got, _reciprocal_frac_chunk(n, start, stop))
        assert same_bits(got, reciprocal_frac_oracle(n, start, stop))

    def test_remainders_into_a_pair(self):
        # float64 arrays of exact integers
        n, start, stop = 10**9 + 7, 5, CHUNK + 5
        pair = (garbage(stop - start), garbage(stop - start))
        i, r = _remainder_chunk(n, start, stop, out=pair)
        assert i is pair[0] and r is pair[1]
        ref = np.arange(start, stop, dtype=np.int64)
        assert same_bits(i, ref.astype(np.float64))
        assert same_bits(r, (n % ref).astype(np.float64))
        fresh = _remainder_chunk(n, start, stop)
        assert same_bits(fresh[0], i) and same_bits(fresh[1], r)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("start,stop", RANGES[:4], ids=RANGE_IDS[:4])
    def test_streams_in_place_equal_fresh_and_oracle(self, name, start, stop):
        points = PROBLEMS[name].points
        n = 2 * stop
        out = garbage(stop - start)
        got = points(n, start, stop, out=out)
        assert got is out
        assert same_bits(got, points(n, start, stop))
        assert same_bits(got, STREAM_ORACLES[name](n, start, stop))

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_fresh_arrays_do_not_alias_a_workspace(self, name):
        x = PROBLEMS[name].points(CHUNK, 1, CHUNK + 1)
        for ws in getattr(accum._local, "free", []):
            for buf in (*ws.f, ws.mask):
                assert not np.shares_memory(x, buf)

    def test_longer_than_a_chunk(self):
        # a range of more than CHUNK indices gets temporaries of its own
        start, stop = 3, 2 * CHUNK + 10
        assert same_bits(_sqrt_frac_chunk(start, stop), sqrt_frac_oracle(start, stop))
        assert same_bits(
            _reciprocal_frac_chunk(99991, start, stop), reciprocal_frac_oracle(99991, start, stop)
        )

    def test_polynomial_family_stream_is_polyval(self):
        coeffs = (1.3, -0.25, 0.7)
        spec = PolySpec(coeffs, 2, 1.1, np.cos)
        n = 10**12
        result = polynomial_family(spec, n)
        count = int(result.meta.rsplit("= ", 1)[1])
        i = np.arange(1, count + 1, dtype=np.float64)
        values = np.cos(np.polyval(np.asarray(coeffs), i) / n)
        expected = math.fsum(values.tolist()) / (n / 1.1) ** 0.5
        assert result.empirical == expected


class TestExactPartials:
    def test_leaves_a_workspace_input_alone(self):
        # the id callback hands the stream's array, ws.f[0], straight on
        x = np.random.default_rng(5).standard_normal(CHUNK) * 1e6
        with workspace() as ws:
            ws.f[0][:] = x
            parts = exact_partials(ws.f[0])
            assert np.array_equal(ws.f[0], x)
        assert math.fsum(parts) == math.fsum(x.tolist())


class TestWorkspace:
    def test_thread_reuses_its_workspaces(self):
        with workspace() as first:
            with workspace() as second:
                pass
        with workspace() as again:
            with workspace() as again_inner:
                assert {id(again), id(again_inner)} == {id(first), id(second)}

    def test_nested_use_gets_other_buffers(self):
        with workspace() as outer:
            with workspace() as inner:
                assert inner is not outer
                for a in (*inner.f, inner.mask):
                    for b in (*outer.f, outer.mask):
                        assert not np.shares_memory(a, b)
            with workspace() as inner_again:
                assert inner_again is inner
        with workspace() as after:
            assert after is outer

    def test_threads_get_their_own(self):
        seen = []

        def take():
            with workspace() as ws:
                seen.append(ws)

        t = threading.Thread(target=take)
        t.start()
        t.join()
        with workspace() as mine:
            assert seen[0] is not mine

    def test_returned_on_error(self):
        with workspace() as before:
            pass
        with pytest.raises(ZeroDivisionError):
            with workspace():
                1 / 0
        with workspace() as ws:
            assert ws is before

    def test_longer_than_a_chunk_is_not_kept(self):
        with workspace(CHUNK + 1) as big:
            assert big.f[0].size == CHUNK + 1
        assert all(ws is not big for ws in getattr(accum._local, "free", []))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_solver_inside_a_callback(self, threads):
        # the inner solve runs while the outer chunk's array is in use
        n_inner = CHUNK + 17

        def f(t):
            inner = sequence_average(n_inner, np.sin, threads=threads).empirical
            return t * inner

        inner = sequence_average(n_inner, np.sin).empirical
        n = 2 * CHUNK + 5
        got = sequence_average(n, f, threads=threads).empirical
        values = sqrt_frac_oracle(1, n + 1) * inner
        assert got == math.fsum(values.tolist()) / n

    def test_concurrent_threaded_solves(self):
        # solves running at once on several threads, each with a pool
        n = 3 * CHUNK + 11
        expected = sequence_average(n, np.sin).empirical
        results = []

        def run():
            for _ in range(3):
                results.append(sequence_average(n, np.sin, threads=2).empirical)

        workers = [threading.Thread(target=run) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert not any(w.is_alive() for w in workers)
        assert results == [expected] * 9


class TestHornerCallback:
    COEFFS = [
        "0.0", "-0.0", "1.5", "0.0,-0.0", "-0.0,-0.0,-0.0", "0.3,-0.7,1.1",
        "-0.0,1e300,-1e-300", "1e-300,0.0,1e300", "2.5,-1.0,0.5,-0.25,0.125",
    ]

    @pytest.fixture(autouse=True)
    def quiet(self):
        # 1e300 squared overflows in both routes alike
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    @staticmethod
    def pair(spec):
        c = np.asarray([float(v) for v in spec.split(",")])
        return resolve_function("poly:" + spec), c

    @pytest.mark.parametrize("spec", COEFFS)
    def test_arrays_equal_polyval(self, spec):
        named, c = self.pair(spec)
        rng = np.random.default_rng(len(spec))
        xs = [
            np.array([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300]),
            rng.standard_normal(1000) * 10.0 ** rng.integers(-5, 5, 1000),
            rng.random(CHUNK),
        ]
        for x in xs:
            assert same_bits(named.fn(x), np.polynomial.polynomial.polyval(x, c))
        dc = c[1:] * np.arange(1, len(c))
        if dc.size:
            assert same_bits(named.derivative(xs[1]), np.polynomial.polynomial.polyval(xs[1], dc))

    @pytest.mark.parametrize("spec", COEFFS)
    @pytest.mark.parametrize("x", [0.0, -0.0, 1e300, -1e-300, 0.37, -2.5])
    def test_scalars_equal_polyval(self, spec, x):
        named, c = self.pair(spec)
        got, ref = named.fn(x), np.polynomial.polynomial.polyval(x, c)
        assert type(got) is type(ref) and same_bits(got, ref)

    def test_input_is_left_alone(self):
        named, _ = self.pair("0.3,-0.7,1.1")
        x = np.linspace(-2.0, 2.0, 101)
        keep = x.copy()
        named.fn(x)
        assert same_bits(x, keep)


class TestAllocation:
    """numpy reports its data allocations to tracemalloc."""

    N = 6 * CHUNK

    @staticmethod
    def traced_peak(run, threads, monkeypatch):
        """Traced peak of the second of two runs, less the workspaces made
        in it: after the warm-up a thread makes none, but each pool thread
        of a threaded run is new and makes one for the reducer and one for
        the kernels inside it."""
        run()  # warm-up: this thread's workspaces exist from here on
        made = []

        class Counted(Workspace):
            __slots__ = ()

            def __init__(self, size=CHUNK):
                made.append(size)
                super().__init__(size)

        monkeypatch.setattr(accum, "Workspace", Counted)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(made) <= (0 if threads == 1 else 2 * threads)
        assert all(size == CHUNK for size in made)
        return peak - len(made) * WORKSPACE_BYTES

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mean_sum_peak(self, threads, monkeypatch):
        points = PROBLEMS["example1"].points
        run = lambda: _mean_sum(np.sin, points, self.N, self.N, threads)
        rest = self.traced_peak(run, threads, monkeypatch)
        # np.sin returns one CHUNK array per chunk; nothing else is CHUNK-sized
        assert rest < threads * 8 * CHUNK + 4 * CHUNK

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_peak(self, threads, monkeypatch):
        problem = PROBLEMS["example3"]
        run = lambda: problem.count(self.N, (0.37,), threads)
        assert self.traced_peak(run, threads, monkeypatch) < 4 * CHUNK

    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_probe_peak(self, name):
        # the traced peak of a whole sweep on the stream route, the point
        # kernels included: they compute in float64 arrays of their
        # workspace, so no ufunc allocates casting buffers (8192 values,
        # 64 KiB each); the default grid holds 0.5, where {n/i} points are
        # settled in one chunk of each n
        problem = dataclasses.replace(PROBLEMS[name], count_rule=None)
        run = lambda: cdf_sequence_probe(problem, problem.limit(), n_list=(self.N // 2, self.N))
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK // 8

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda out: _sqrt_frac_chunk(10**6, 10**6 + CHUNK, out=out),
            lambda out: _reciprocal_frac_chunk(10**7, 10**6, 10**6 + CHUNK, out=out),
            lambda out: PROBLEMS["canonical-uniform"].points(10**7, 10**6, 10**6 + CHUNK, out=out),
        ],
        ids=["sqrt_frac", "reciprocal_frac", "uniform"],
    )
    def test_kernels_allocate_no_casting_buffers(self, kernel):
        out = np.empty(CHUNK)
        kernel(out)
        tracemalloc.start()
        try:
            kernel(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

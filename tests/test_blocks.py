"""The count rules behind ``Problem.count``, the route other than the stream.

canonical-uniform and example1 count in closed form, example1 by a floor
sum; example3 counts by blocks of indices along which its points fall, and
example2 by rows of k = m*m + j, evaluating only the points that rounding
could move across t.  The stream, the same problem with ``count_rule=None``,
is the oracle of every rule in ``PROBLEMS``, with 1 and 2 threads, as are
pure-Python-int counts beyond its reach; the floor sum is checked against a
plain loop.  What example2's rule assumes is checked in test_sin_count.py.
"""

import dataclasses
import math
import signal
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import dirichlet_weak
from asymptolim.accum import CHUNK
from asymptolim.cli import main
from asymptolim.convergence import DEFAULT_GRID
from asymptolim.problems import PROBLEMS, _floor_sum

# the problems whose production route is a count rule, not the stream
ROUTED = tuple(name for name, problem in PROBLEMS.items() if problem.count_rule)


def streamed(name):
    return dataclasses.replace(PROBLEMS[name], count_rule=None)


def assert_routes_agree(name, n, ts):
    want = streamed(name).count(n, ts)
    for threads in (1, 2):
        got = PROBLEMS[name].count(n, ts, threads)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist(), (name, n, ts, threads)


def ties(name, n, indices):
    """Thresholds equal to points: the float points, and for example3 also
    the exact ones, as Fractions."""
    out = []
    for i in indices:
        i = int(i)
        out.append(float(PROBLEMS[name].points(n, i, i + 1)[0]))
        if name == "example3":
            out.append(Fraction(n % i, i))
    return out


EDGES = (0.0, -0.0, -0.5, -math.inf, 1.0, 1.5, math.inf, 5e-324, -5e-324, 2.0**-1022,
         math.nextafter(1.0, 0.0), math.nextafter(0.5, 0.0), 0.5, Fraction(1, 3),
         Fraction(1, 2), Fraction(0.1), Fraction(-1, 7), Fraction(7, 5))


class TestAgreesWithTheStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 10, 99, 100, 101, 1024])
    @pytest.mark.parametrize("name", ROUTED)
    def test_small_n(self, name, n):
        assert_routes_agree(name, n, EDGES + tuple(ties(name, n, range(1, n + 1, max(1, n // 40)))))

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("name", ROUTED)
    def test_chunk_edges(self, name, n):
        rng = np.random.default_rng(n)
        ts = EDGES + tuple(ties(name, n, rng.integers(1, n + 1, 8))) + tuple(rng.random(4))
        assert_routes_agree(name, n, ts)

    @pytest.mark.parametrize(
        "name, n, t",
        [
            ("example3", 4616098, 0.12165717395380989),
            ("example3", 3851222, 0.4766559179776616),
            ("example3", 849669, 0.12165717395380989),
            ("example1", 1000002, 0.0009999994999816408),
        ],
    )
    def test_known_counterexamples(self, name, n, t):
        # float compares alone misplace one point in each
        assert_routes_agree(name, n, (t, Fraction(t), math.nextafter(t, 0.0)))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5, 10**6, 10**8])
    def test_example2_matrix(self, n):
        rng = np.random.default_rng(n)
        tie = ties("example2", n, rng.integers(1, n + 1, 4))
        near = [math.nextafter(t, d) for t in tie for d in (-math.inf, math.inf)]
        edges = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324, 1 - 2**-53, 1 - 1e-12, -(1 - 1e-12))
        assert_routes_agree("example2", n, edges + tuple(tie + near))

    @pytest.mark.parametrize("n", [720720, 999983])
    def test_example3_cells_split_across_chunks(self, n):
        # example3's rule steps (threshold x block) cells in chunks of
        # CHUNK // 300 = 436 blocks here, against 848 and 999 blocks; 720720
        # has many points equal to 1/2 and 1/4
        ts = EDGES + (-1e-9, 1 / 3, 0.25, 0.01, 0.2, 0.99)
        ts += tuple(np.linspace(-0.01, 1.01, 300 - len(ts)).tolist())
        assert CHUNK // len(ts) < n // (math.isqrt(n) + 1)
        assert_routes_agree("example3", n, ts)

    def test_random_sizes_up_to_1e7(self):
        rng = np.random.default_rng(2027)
        for n in rng.integers(CHUNK, 10**7, 6).tolist():
            for name in ROUTED:
                ts = (0.3, Fraction(2, 7), float(rng.random())) + tuple(ties(name, n, rng.integers(1, n + 1, 2)))
                assert_routes_agree(name, n, ts)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def problem_counts(draw):
    name = draw(st.sampled_from(ROUTED))
    n = draw(st.integers(1, 200_000))
    threshold = st.one_of(
        st.floats(allow_nan=False),
        st.floats(-0.01, 1.01),
        st.fractions(-2, 2, max_denominator=10**9),
        st.sampled_from(EDGES),
        st.integers(1, n).map(lambda i: ties(name, n, [i])[-1]),
    )
    return name, n, draw(st.lists(threshold, min_size=1, max_size=5))


class TestProperty:
    @settings(max_examples=200, deadline=None)
    @given(problem_counts())
    def test_block_count_is_the_stream_count(self, case):
        assert_routes_agree(*case)


def plain_floor_sum(N, m, a, b):
    return sum((a * i + b) // m for i in range(N))


# m = 2**2148 is q*q for q = 2**1074, the denominator of Fraction(5e-324)
FLOOR_SUM_CASES = [
    (0, 1, 0, 0), (0, 7, 5, 9), (1, 1, 0, 0), (5, 3, 0, 7), (10, 3, 0, 2), (13, 4, 9, 30),
    (100, 97, 200, 1000), (50, 2**2148, 2**1075, 2**1075 + 1), (50, 2**2148, 3 << 2140, 2**2149 + 5),
    (200, 10**9 + 7, 10**9 + 6, 10**9 + 6),
]


@st.composite
def floor_sums(draw):
    m = draw(st.one_of(st.integers(1, 40), st.integers(1, 2**64), st.integers(1, 2**2148),
                       st.just(2**2148)))
    a = draw(st.one_of(st.just(0), st.integers(0, 3 * m), st.integers(0, 2**80)))
    b = draw(st.one_of(st.just(0), st.integers(0, m - 1), st.integers(m, 5 * m)))
    return draw(st.integers(0, 300)), m, a, b


class TestFloorSum:
    @pytest.mark.parametrize("case", FLOOR_SUM_CASES)
    def test_cases(self, case):
        assert _floor_sum(*case) == plain_floor_sum(*case)

    @settings(max_examples=300, deadline=None)
    @given(floor_sums())
    def test_is_the_plain_sum(self, case):
        assert _floor_sum(*case) == plain_floor_sum(*case)


def python_sqrt_count(n, t):
    """#{1 <= k <= n : {sqrt k} <= t} for 0 <= t < 1, in Python ints: block m
    counts k from m*m to m*m + floor(2mt + t*t), clipped to n."""
    p, q = Fraction(t).numerator, Fraction(t).denominator
    return sum(min(m * m + (2 * m * p * q + p * p) // (q * q), n) - m * m + 1
               for m in range(1, math.isqrt(n) + 1))


def python_frac_count(n, t):
    """#{1 <= i <= n : {n/i} <= t} for 0 <= t <= 1, in Python ints."""
    p, q = Fraction(t).numerator, Fraction(t).denominator
    s = math.isqrt(n)
    total = sum(1 for i in range(1, s + 1) if n % i * q <= p * i)
    for Q in range(1, n // (s + 1) + 1):
        lo, hi = max(n // (Q + 1), s), n // Q
        first = -(-n * q // (Q * q + p))
        total += max(0, hi - max(lo, first - 1))
    return total


class TestBeyondTheStream:
    N = 10**10 + 7

    @pytest.mark.parametrize("t", [0.3, Fraction(1, 3), 0.9999999999])
    def test_against_python_ints(self, t):
        sqrt_count, frac_count = (PROBLEMS[name].count(self.N, (t,))[0]
                                  for name in ("example1", "example3"))
        assert sqrt_count == python_sqrt_count(self.N, t)
        assert frac_count == python_frac_count(self.N, t)

    @pytest.mark.parametrize("name", ROUTED)
    def test_threads_change_nothing(self, name):
        # n > CHUNK**2 + 2*CHUNK: example3 runs several block chunks
        n = 2**36 + 12345
        ts = DEFAULT_GRID + (0.0, 1.0, Fraction(1, 3))
        one = PROBLEMS[name].count(n, ts, threads=1)
        assert PROBLEMS[name].count(n, ts, threads=2).tolist() == one.tolist()
        assert all(np.diff(one[: len(DEFAULT_GRID)]) >= 0)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_memory_does_not_grow_with_n(self, name):
        # the block and row chunks hold O(CHUNK) values at any n, the floor
        # sum O(log n) Python ints
        problem = PROBLEMS[name]
        peaks = []
        for n in (2**38, 2**44):
            problem.count(n, (0.3,))
            tracemalloc.start()
            try:
                problem.count(n, (0.3,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + CHUNK
        assert peaks[1] < 8 * 8 * CHUNK


@contextmanager
def wall_bound(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSweepCost:
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_sweep_at_1e12(self, name, capsys):
        # O(log n) per grid value for example1, O(sqrt n) for example2 and
        # example3; streaming 1e12 points would take hours
        with wall_bound(60):
            code = main(["sweep", name, "--n", "1000000,1000000000000"])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert '"n_list"' in out.out

    def test_example1_sweep_at_2_52(self, capsys):
        # O(log n) per grid value: the floor sum
        with wall_bound(5):
            code = main(["sweep", "example1", "--n", "1000,4503599627370496"])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert '"n_list"' in out.out


class TestDirichlet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 99, 100, 101, CHUNK - 1, CHUNK + 1, 10**6 + 3])
    def test_hyperbola_sum_is_the_floor_sum(self, n):
        i = np.arange(1, n + 1, dtype=np.int64)
        total = int((n // i).sum())
        assert dirichlet_weak(n).empirical == total / n - math.log(n)

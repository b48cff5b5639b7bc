"""The exactness arguments behind the point kernels.

The square-root kernel takes floor(fl(sqrt k)) as isqrt(k), and the {n/i}
kernel takes n mod i from float64 quotients; both are checked here where
their proofs are tight, and against the integer kernels they replaced, which
are kept here as the oracles.  example1's floor-sum count is checked
against the exact per-point settle rule of its stream route, and against the
stream itself.
"""

import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim.accum import workspace
from asymptolim.problems import (
    PROBLEMS,
    _reciprocal_frac_at,
    _remainder_chunk,
    _sqrt_frac,
    _sqrt_frac_count,
    reciprocal_frac_map,
)
from test_workspace import same_bits

# The integer kernels that the float kernels replaced, on int64 indices (the
# streams are checked against the same formulas in test_workspace.py)


def corrected_sqrt_frac(k):
    """fl(sqrt k) less the floor corrected to isqrt(k) by integer squares."""
    root = np.sqrt(k.astype(np.float64))
    f = np.floor(root).astype(np.int64)
    f = np.where((f + 1) * (f + 1) <= k, f + 1, f)
    f = np.where(f * f > k, f - 1, f)
    return root - f


def int64_reciprocal_frac(n, i):
    """The int64 ``np.remainder`` of n by i, then both cast and divided."""
    return np.remainder(n, i).astype(np.float64) / i.astype(np.float64)


class TestSqrtFloor:
    def test_floor_of_the_root_is_isqrt_up_to_2_52(self):
        # floor(fl(sqrt(m*m - 1))) = m - 1 and fl(sqrt(m*m)) = m for every
        # m <= 2**26, which covers every k <= 2**52
        step = 1 << 22
        for lo in range(1, 2**26 + 1, step):
            m = np.arange(lo, min(lo + step, 2**26 + 1), dtype=np.float64)
            square = m * m
            assert np.array_equal(np.sqrt(square), m)
            assert np.array_equal(np.floor(np.sqrt(square - 1.0)), m - 1.0)

    def test_indices_at_squares_and_random(self):
        rng = np.random.default_rng(11)
        m = rng.integers(1, 2**26, 4000)
        k = np.concatenate([m * m, m * m - 1, m * m + 1, rng.integers(1, 2**52 + 1, 4000), [2**52]])
        k = k[(k >= 1) & (k <= 2**52)]
        with workspace(k.size) as ws:
            kf = ws.f[0][: k.size]
            np.copyto(kf, k)
            got = _sqrt_frac(kf, np.empty(k.size), ws)
        assert same_bits(got, corrected_sqrt_frac(k))


def divisors(n):
    """Every divisor of n, from its factors by trial division."""
    factors, rest, p = [], n, 2
    while p * p <= rest:
        while rest % p == 0:
            factors.append(p)
            rest //= p
        p += 1
    if rest > 1:
        factors.append(rest)
    divs = {1}
    for p in factors:
        divs |= {d * p for d in divs}
    return sorted(divs)


REMAINDER_N = [1, 2, 2**52 - 1, 2**52, 10**10 + 7]


def hard_indices(n, rng):
    """i = 1 and n, i near sqrt(n), the divisors of n, n // q +- 1 (where n/i
    is nearest an integer from either side) and random i, within 1..n."""
    s = math.isqrt(n)
    qs = list(range(1, 2000)) + rng.integers(1, n + 1, 2000).tolist() + [s - 1, s, s + 1]
    cand = {1, n, s - 1, s, s + 1, s + 2}
    cand.update(divisors(n))
    for q in filter(None, qs):
        cand.update((n // q - 1, n // q, n // q + 1))
    cand.update(rng.integers(1, n + 1, 5000).tolist())
    return np.array(sorted(i for i in cand if 1 <= i <= n), dtype=np.int64)


class TestFloatRemainder:
    @pytest.mark.parametrize("n", REMAINDER_N)
    def test_against_python_remainders(self, n):
        i = hard_indices(n, np.random.default_rng(n % 1000))
        want = [n % int(v) for v in i]
        got = np.empty(i.size)
        _reciprocal_frac_at(n, i, got)
        assert same_bits(got, int64_reciprocal_frac(n, i))
        assert got.tolist() == [r / int(v) for r, v in zip(want, i.tolist())]
        for a in (1, n // 2 + 1, max(1, n - 600)):
            b = min(a + 600, n + 1)
            idx, r = _remainder_chunk(n, a, b)
            assert idx.dtype == r.dtype == np.float64
            assert r.tolist() == [float(n % v) for v in range(a, b)]

    def test_upper_half_at_2_52(self):
        # where i * (Q + 1) comes nearest 2**53, the tight end of the proof
        n = 2**52
        for a in (2**51 - 3000, 2**52 - 3000, 2**51 + 2**50):
            idx, r = _remainder_chunk(n, a, a + 6000)
            assert r.tolist() == [float(n % v) for v in range(a, a + 6000)]


class TestReciprocalMapDomain:
    @pytest.mark.parametrize("n", [0, -3, 2**52 + 1, 10**18 + 9])
    def test_outside_1_to_2_52_raises(self, n):
        with pytest.raises(ValueError):
            reciprocal_frac_map(n)

    def test_at_2_52_rounds_once(self):
        n = 2**52
        g = reciprocal_frac_map(n)
        i = np.random.default_rng(3).integers(1, n + 1, 3000)
        got = g(i / n)
        assert got.tolist() == [float(Fraction(n % int(v), int(v))) for v in i]


# ---------------------------------------------------------------------------
# example1's floor-sum count against the per-point settle rule
# ---------------------------------------------------------------------------

def settled(k, t):
    """The exact rule: {sqrt k} <= T."""
    settle = PROBLEMS["example1"].settle
    T = Fraction(t)
    return np.array([settle(0, int(v), T) for v in k])


def counted(k, t):
    """Whether {sqrt k} <= t, for each k, as the floor-sum count reads it:
    the count up to k less the count up to k - 1."""
    return np.array([_sqrt_frac_count(int(v), t) - (_sqrt_frac_count(int(v) - 1, t) if v > 1 else 0)
                     for v in k])


def near_integer_thresholds(rng, count):
    """Thresholds near T = sqrt(m*m + j) - m, so that 2mT + T*T is within
    rounding of the integer j, the cases a float rule could not decide: the
    float nearest T, and rationals 1e-45 above and below T."""
    out = []
    for m, j in zip(rng.integers(1, 2**26, count).tolist(), rng.integers(0, 2, count).tolist()):
        j = j * int(rng.integers(1, 2 * m + 1))
        with decimal.localcontext(prec=60):
            root = Fraction((decimal.Decimal(m * m + j).sqrt() - m))
        t = j / (math.sqrt(m * m + j) + m)
        out.append((m, j, (t, Fraction(t), root + Fraction(1, 10**45), root - Fraction(1, 10**45))))
    return out


THRESHOLDS = [
    0.0, -0.0, 5e-324, 1e-300, 2.0**-1022, 0.3, 0.5, 1.0, 1.5, -5e-324, -0.5,
    math.nextafter(1.0, 0.0), Fraction(1, 3), Fraction(1, 10**30), Fraction(-1, 10**30),
    Fraction(0.3) + Fraction(1, 2**80), Fraction(2**53 - 1, 2**53),
]


class TestBulkDecide:
    """The floor sum decides every point of example1 at once; each of its
    answers must be the settled one."""

    @pytest.mark.parametrize("t", THRESHOLDS, ids=repr)
    def test_certain_answers_are_the_settled_ones(self, t):
        rng = np.random.default_rng(5)
        m = rng.integers(1, 2**26, 1000)
        k = np.concatenate([m * m, m * m + 1, m * m + 2 * m, rng.integers(1, 2**52 + 1, 1000), [1, 2, 2**52]])
        k = k[k <= 2**52]
        assert counted(k, t).tolist() == settled(k, t).tolist()
        problem = PROBLEMS["example1"]
        streamed = dataclasses.replace(problem, closed_count=None)
        assert problem.count(10**5 + 3, (t,)).tolist() == streamed.count(10**5 + 3, (t,)).tolist()

    def test_offsets_within_rounding_of_an_integer(self):
        rng = np.random.default_rng(6)
        for m, j, ts in near_integer_thresholds(rng, 300):
            k = np.array([m * m + j - 1, m * m + j, m * m + j + 1], dtype=np.int64)
            k = k[(k >= m * m) & (k <= m * m + 2 * m) & (k >= 1)]
            for T in ts:
                assert counted(k, T).tolist() == settled(k, T).tolist()
            # the point m*m + j lies between the two rationals
            assert counted([m * m + j], ts[2]).tolist() == [1]
            assert counted([m * m + j], ts[3]).tolist() == [0]

    @pytest.mark.parametrize("n", [10**6 + 3, 10**9 + 7, 2**52 - 1, 2**52])
    def test_counts_are_the_settled_counts(self, n):
        # the stream settles every band point; beyond its reach, Python ints
        # sum the blocks, or count the last points one by one
        ts = (0.0, -0.0, 5e-324, 1e-300, 0.3, Fraction(1, 3), 0.9999999999)
        problem = PROBLEMS["example1"]
        got = problem.count(n, ts).tolist()
        if n < 10**7:
            streamed = dataclasses.replace(problem, closed_count=None)
            assert got == streamed.count(n, ts).tolist()
        elif n < 2**40:
            from test_blocks import python_sqrt_count  # a module that needs hypothesis

            assert got == [python_sqrt_count(n, t) for t in ts]
        else:
            # the last 3000 points, which reach the square 2**52 at n = 2**52
            k = np.arange(n - 2999, n + 1)
            before = problem.count(n - 3000, ts).tolist()
            assert [g - b for g, b in zip(got, before)] == [int(settled(k, t).sum()) for t in ts]

    @pytest.mark.parametrize(
        "n, ts", [(10**12, (1e-300,)), (10**12, (0.0, 5e-324, 0.3)), (2**46, (0.1, 0.9))]
    )
    def test_band_points_seldom_reach_settle(self, n, ts):
        calls = []
        problem = PROBLEMS["example1"]

        def settle(n, k, T):
            calls.append(k)
            return problem.settle(n, k, T)

        counts = dataclasses.replace(problem, settle=settle).count(n, ts)
        assert calls == []  # the floor sum settles nothing
        for t, c in zip(ts, counts.tolist()):
            if t == 1e-300 or t == 0.0 or t == 5e-324:
                assert c == math.isqrt(n)  # the perfect squares

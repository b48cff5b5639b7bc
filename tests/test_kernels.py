"""The exactness arguments behind the point kernels.

The square-root kernel takes floor(fl(sqrt k)) as isqrt(k), and the {n/i}
kernel takes n mod i from float64 quotients; both are checked here where
their proofs are tight, and against the integer kernels they replaced, which
are kept here as the oracles.  The bulk rule that decides example1's band
points is checked against the exact per-point settle rule.
"""

import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim.problems import (
    PROBLEMS,
    _reciprocal_frac_at,
    _remainder_chunk,
    _sqrt_frac_at,
    _sqrt_frac_decide,
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
        out = np.empty(k.size)
        assert same_bits(_sqrt_frac_at(k, out), corrected_sqrt_frac(k))


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
# example1's band points, decided in bulk
# ---------------------------------------------------------------------------

def settled(k, t):
    """The exact rule: {sqrt k} <= T."""
    settle = PROBLEMS["example1"].settle
    T = Fraction(t)
    return np.array([settle(0, int(v), T) for v in k])


def near_integer_thresholds(rng, count):
    """Thresholds near T = sqrt(m*m + j) - m, so that 2mT + T*T is within
    rounding of the integer j, the cases the bulk rule must leave open: the
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
    @pytest.mark.parametrize("t", THRESHOLDS, ids=repr)
    def test_certain_answers_are_the_settled_ones(self, t):
        rng = np.random.default_rng(5)
        m = rng.integers(1, 2**26, 1000)
        k = np.concatenate([m * m, m * m + 1, m * m + 2 * m, rng.integers(1, 2**52 + 1, 1000)])
        k = k[k <= 2**52]
        le, sure = _sqrt_frac_decide(k, t, float(t))
        exact = settled(k[sure], t)
        assert le[sure].tolist() == exact.tolist()
        # only a threshold near an integer offset leaves a point open
        assert sure.mean() > 0.99

    def test_offsets_within_rounding_of_an_integer(self):
        rng = np.random.default_rng(6)
        open_points = 0
        for m, j, ts in near_integer_thresholds(rng, 300):
            k = np.array([m * m + j - 1, m * m + j, m * m + j + 1], dtype=np.int64)
            k = k[(k >= m * m) & (k <= m * m + 2 * m) & (k >= 1)]
            for T in ts:
                le, sure = _sqrt_frac_decide(k, T, float(T))
                assert le[sure].tolist() == settled(k[sure], T).tolist()
                open_points += int(np.count_nonzero(~sure))
        assert open_points > 100

    @pytest.mark.parametrize("n", [10**6 + 3, 10**9 + 7])
    def test_counts_are_the_settled_counts(self, n):
        # the same problem without the bulk rule settles every band point
        ts = (0.0, -0.0, 5e-324, 1e-300, 0.3, Fraction(1, 3), 0.9999999999)
        problem = PROBLEMS["example1"]
        per_point = dataclasses.replace(problem, decide=None)
        assert problem.count(n, ts).tolist() == per_point.count(n, ts).tolist()
        streamed = dataclasses.replace(problem, blocks=None)
        if n < 10**7:
            assert streamed.count(n, ts).tolist() == per_point.count(n, ts).tolist()

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
        assert len(calls) < 1000
        for t, c in zip(ts, counts.tolist()):
            if t == 1e-300 or t == 0.0 or t == 5e-324:
                assert c == math.isqrt(n)  # the perfect squares

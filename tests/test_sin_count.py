"""What example2's count rule assumes, and its counts beyond the stream.

The rule (``problems._sin_count``) counts sin(2*pi*{sqrt k}) <= t by rows
and evaluates only the points that rounding could put on either side of t.
Its stated bounds are checked against mpmath: np.sin at the stream's
arguments and np.arcsin at the levels.  The ends of a row's intervals are
checked in exact integers, a point evaluated alone against its value in a
streamed chunk, and the counts of the last rows at large n against the
stream of those rows.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim.accum import CHUNK, Workspace
from asymptolim import problems
from asymptolim.problems import (
    _ALPHA_SLACK,
    _SIN_ERROR,
    _SIN_FLOOR_ERROR,
    PROBLEMS,
    _row_edge,
    _sin_2pi_sqrt_frac,
    _sin_count,
    _sqrt_frac,
)

mpmath = pytest.importorskip("mpmath")

PROBLEM = PROBLEMS["example2"]
STREAMED = dataclasses.replace(PROBLEM, count_rule=None)
TOP = 2**26  # isqrt(2**52), the last row


def stream_arguments(k):
    """fl(fl({sqrt k}) * fl(2*pi)) for the integers k, as the stream forms them."""
    k = np.asarray(k, dtype=np.float64)
    x = _sqrt_frac(k, np.empty(k.size), Workspace(k.size))
    return np.multiply(x, 2.0 * math.pi, out=x)


def rows(rng, size):
    """Rows m in 1..TOP - 1, uniform in log m."""
    return np.unique(np.exp(rng.uniform(0.0, math.log(TOP - 1), size)).astype(np.int64))


def window_edge_points(rng, size):
    """k = m*m + j with u_j next to an end of a level set: u = 0, 1/4, 1/2,
    3/4, and asin(t)/(2*pi) and its mirror images for random t."""
    m = rows(rng, size)
    a = np.arcsin(rng.uniform(-1.0, 1.0, m.size)) / (2 * math.pi)
    ks = []
    for c in (a % 1.0, 0.5 - a, 1.0 + a, np.zeros(m.size), np.full(m.size, 0.25),
              np.full(m.size, 0.5), np.full(m.size, 0.75)):
        j = np.floor(2 * m * c + c * c).astype(np.int64)
        for d in (-1, 0, 1):
            ks.append(m * m + np.clip(j + d, 0, 2 * m))
    return np.concatenate(ks)


class TestStatedBounds:
    def test_sin_is_within_its_bound_at_the_stream_arguments(self):
        rng = np.random.default_rng(11)
        m = rng.integers(1, TOP, 10**5)
        ks = np.concatenate([m * m + rng.integers(0, 2 * m + 1), window_edge_points(rng, 1000)])
        y = stream_arguments(ks)
        got = np.sin(y)
        with mpmath.workdps(40):
            err = max(abs(mpmath.mpf(float(g)) - mpmath.sin(mpmath.mpf(float(v))))
                      for g, v in zip(got, y))
        assert err <= _SIN_ERROR

    def test_sin_is_within_its_floor_bound_next_to_three_halves_pi(self):
        # the arguments within 2**-19 of 3*pi/2, where np.sin can give -1.0:
        # uniform, the floats next to 3*pi/2 and to where sin rounds to -1.0
        # (2**-26.5 off), and the stream's arguments there in rows near
        # 2**24 and 2**26
        rng = np.random.default_rng(14)
        c = 3 * math.pi / 2
        edge = 2.0**-26.5
        x = [c + rng.uniform(-(2.0**-19), 2.0**-19, 20000)]
        x += [a + np.arange(-200, 201) * np.spacing(a) for a in (c, c - edge, c + edge)]
        m = np.concatenate([rng.integers(2**24, 2**24 + 10**4, 2000),
                            rng.integers(TOP - 10**4, TOP, 2000)])
        j = np.floor(1.5 * m + 0.5625).astype(np.int64)
        x.append(stream_arguments(np.concatenate([m * m + j + d for d in (-2, -1, 0, 1, 2)])))
        x = np.concatenate(x)
        assert (abs(x - c) <= 2.0**-19).all()
        got = np.sin(x)
        with mpmath.workdps(40):
            err = max(abs(mpmath.mpf(float(g)) - mpmath.sin(mpmath.mpf(float(v))))
                      for g, v in zip(got, x))
        assert err <= _SIN_FLOOR_ERROR

    def test_arcsin_is_within_a_quarter_of_the_slack(self):
        rng = np.random.default_rng(12)
        near = [1.0 - 2.0**-e for e in range(1, 54)] + [2.0**-e for e in range(1, 1075, 7)]
        near += [5e-324, 1e-300, 0.0, math.nextafter(1.0, 0.0), 1.0]
        near += (1.0 - 10.0 ** -rng.uniform(1, 16, 500)).tolist()
        levels = np.array(near + [-v for v in near] + rng.uniform(-1, 1, 5000).tolist())
        alpha = np.arcsin(levels) / (2.0 * math.pi)
        with mpmath.workdps(40):
            err = max(abs(mpmath.mpf(float(a)) - mpmath.asin(mpmath.mpf(float(v))) / (2 * mpmath.pi))
                      for a, v in zip(alpha, levels))
        assert err <= _ALPHA_SLACK / 4

    def test_sin_lies_in_minus_one_one(self):
        # the rule counts t >= 1 and t < -1 without a point: the points
        # nearest +-1 are those at the arguments next to pi/2 and 3*pi/2
        rng = np.random.default_rng(13)
        m = rng.integers(1, TOP, 10**5)
        ks = np.concatenate([m * m + rng.integers(0, 2 * m + 1), window_edge_points(rng, 5000)])
        # the floats within 20 ulps of each (one binade, so exact)
        near = [c + np.arange(-20, 21) * np.spacing(c) for c in (math.pi / 2, 3 * math.pi / 2)]
        anywhere = np.ldexp(rng.uniform(-1.0, 1.0, 10**5), rng.integers(-1074, 1024, 10**5))
        y = np.concatenate([stream_arguments(ks), *near, anywhere,
                            [np.finfo(float).max, -np.finfo(float).max]])
        s = np.sin(y)
        assert ((s >= -1.0) & (s <= 1.0)).all()
        assert s.max() == 1.0 and s.min() == -1.0


def g_exact(m, c):
    c = Fraction(c)
    return 2 * m * c + c * c


def floats_around(m, j):
    """The floats c just below and just above u_j = sqrt(m*m + j) - m, for
    1 <= j <= 2m (u_j is not a float there)."""
    c = j / (math.sqrt(m * m + j) + m)  # within a few ulps
    while g_exact(m, c) >= j:
        c = math.nextafter(c, -math.inf)
    while g_exact(m, math.nextafter(c, math.inf)) < j:
        c = math.nextafter(c, math.inf)
    return c, math.nextafter(c, math.inf)


class TestRowEdges:
    @pytest.mark.parametrize("scale", [2**10, 2**20, TOP])
    def test_ends_hold_next_to_exact_points(self, scale):
        # c just below u_j: every j' below the down edge has u_j' <= c, so
        # the edge is at most j; c just above u_j: the up edge is past j.
        # g(c) is then within 2m * ulp(c) of an integer, where the rounding
        # of g decides.
        rng = np.random.default_rng(scale)
        m = rng.integers(scale // 2, scale, 600)
        j = np.array([int(rng.integers(1, 2 * mm + 1)) for mm in m.tolist()])
        below, above = np.array([floats_around(mm, jj) for mm, jj in zip(m.tolist(), j.tolist())]).T
        twom, bound = 2.0 * m, 2.0 * m + 1.0
        top = int(m.max())
        down = _row_edge(twom, below, top, bound, np.empty(m.size), True)
        up = _row_edge(twom, above, top, bound, np.empty(m.size), False)
        assert (down <= j).all()
        assert (up >= j + 1).all()
        # and in exact terms, for every c
        for mm, c, e in zip(m.tolist(), below.tolist(), down.tolist()):
            assert e - 1 <= g_exact(mm, c)
        for mm, c, s in zip(m.tolist(), above.tolist(), up.tolist()):
            assert s >= g_exact(mm, c)


class TestPointAlone:
    @pytest.mark.parametrize("n", [3 * CHUNK + 5, 2**52 - 3])
    def test_equals_the_streamed_point(self, n):
        # the stream computes chunks [1 + i*CHUNK, ...) at once; the rule
        # evaluates a few points, first, last or alone in a short array
        rng = np.random.default_rng(n % 1000)
        last = (n - 1) // CHUNK
        for i in (0, 1, last - 1, last):
            a, b = 1 + i * CHUNK, min(1 + (i + 1) * CHUNK, n + 1)
            streamed = PROBLEM.points(n, a, b)
            for k in (a, a + 1, b - 2, b - 1):
                for w in (1, 2, 3, 7, 8, 9, 17):
                    others = rng.integers(1, n + 1, w - 1).tolist()
                    for at in (0, w - 1):
                        ks = np.array(others[:at] + [k] + others[at:], dtype=np.float64)
                        y = _sin_2pi_sqrt_frac(ks, np.empty(w), Workspace(w))
                        assert y[at].tobytes() == streamed[k - a].tobytes(), (n, k, w, at)


def last_row_thresholds(n, M, rng, edges):
    """Ties with points of the rows from M on, the floats next to them, and
    ``edges``."""
    ties = [float(PROBLEM.points(n, k, k + 1)[0]) for k in rng.integers(M * M, n + 1, 8).tolist()]
    up, down = ([math.nextafter(t, d) for t in ties] for d in (math.inf, -math.inf))
    return tuple(edges) + tuple(ties + up + down)


# thresholds within E_m below 1, and near -1, take O(sqrt(E_m) m) gap points
# in a row, the others about none; t >= 1 and t < -1 take no row
EDGES = (0.0, -0.0, 5e-324, 0.3)
EDGES_NEAR_1 = (1.0, -1.0, math.inf, 1 - 2**-53, -(1 - 1e-12))


class TestLastRows:
    def test_count_differences_near_2_40(self):
        # rows above 2**20, where the stream's points are off sin(2*pi*u)
        # by up to 2**-30: a tie lands outside a window that ignores it
        M = 2**20 + 7
        n = M * M + 3 * CHUNK + 5
        ts = last_row_thresholds(n, M, np.random.default_rng(40), EDGES)
        want = STREAMED._stream(n, ts, M * M, n + 1, 1)
        got = PROBLEM.count(n, ts) - PROBLEM.count(M * M - 1, ts, threads=2)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_last_row_near_2_52(self, threads):
        # g reaches 2**27 here, and the points are off by up to 2**-24
        M = TOP - 1
        n = M * M + CHUNK + 3
        ts = last_row_thresholds(n, M, np.random.default_rng(52), EDGES + EDGES_NEAR_1)
        want = STREAMED._stream(n, ts, M * M, n + 1, 1)
        assert _sin_count(PROBLEM, (n,), ts, threads, first_row=M)[0].tolist() == want.tolist()


class TestLevelsOutsideTheRange:
    """t >= 1 counts every point and t < -1 none, without a row; t = -1
    goes by rows, since a point can equal -1.0."""

    OUTSIDE = (1.0, math.nextafter(1.0, 2.0), 1.5, math.inf, -math.inf, -2.0,
               math.nextafter(-1.0, -2.0))

    @pytest.mark.parametrize("n", list(range(1, 40)) + [99, 100, 101, 4097, 123457])
    def test_counts_equal_the_stream(self, n):
        ts = self.OUTSIDE + (-1.0, math.nextafter(-1.0, 0.0), 0.0, 1 - 2**-53)
        assert PROBLEM.count(n, ts).tolist() == STREAMED.count(n, ts).tolist()
        M = math.isqrt(n)
        got = _sin_count(PROBLEM, (n,), ts, 1, first_row=M)[0]
        assert got.tolist() == STREAMED._stream(n, ts, M * M, n + 1, 1).tolist()

    def test_minus_one_counts_the_points_equal_to_it(self):
        # the first row with a point equal to -1.0 is 2**24 + 1, at j below;
        # the stream from that row on to just past it
        M, j = 2**24 + 1, 25165826
        ts = (-1.0, math.nextafter(-1.0, 0.0), -1.0 + 2.0**-40)
        n = M * M + j + 1000
        want = STREAMED._stream(n, ts, M * M, n + 1, 1)
        assert want[0] == 1
        assert _sin_count(PROBLEM, (n,), ts, 1, first_row=M)[0].tolist() == want.tolist()
        for stop, count in ((M * M + j - 1, 0), (M * M + j, 1)):
            assert _sin_count(PROBLEM, (stop,), (-1.0,), 1, first_row=M)[0][0] == count

    @pytest.mark.parametrize("threads", [1, 2])
    def test_minus_one_agrees_with_the_wide_gaps_near_2_52(self, threads, monkeypatch):
        # the gaps of t + E_m, tested against the stream above, hold every
        # point equal to -1.0; the window must find the same ones: one in
        # each row here
        M = TOP - 64
        n = TOP * TOP - 1
        ts = (-1.0, math.nextafter(-1.0, 0.0), 0.0)
        got = _sin_count(PROBLEM, (n,), ts, threads, first_row=M)[0]
        monkeypatch.setattr(problems, "_FLOOR_WINDOW", 1.0)
        wide = _sin_count(PROBLEM, (n,), ts, threads, first_row=M)[0]
        assert got.tolist() == wide.tolist() and got[0] == 64

    def test_minus_one_evaluates_few_points(self, monkeypatch):
        evaluated = []
        kernel = problems._sin_2pi_sqrt_frac

        def counted(k, out, ws):
            evaluated.append(k.size)
            return kernel(k, out, ws)

        monkeypatch.setattr(problems, "_sin_2pi_sqrt_frac", counted)
        assert PROBLEM.count(10**12, (-1.0,))[0] == 0
        # none: row m's window holds the j within about 1.4e-8 m of
        # g(3/4) = 1.5m + 0.5625, at least 1/16 from an integer, below
        # m = 4.6e6; the gaps of t + E_m held 15,915,215
        assert sum(evaluated) == 0

    def test_no_row_is_visited(self, monkeypatch):
        from asymptolim import problems

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was visited")

        monkeypatch.setattr(problems, "map_reduce_int", no_rows)
        n = 10**12
        got = PROBLEM.count(n, self.OUTSIDE)
        assert got.tolist() == [n if t >= 1.0 else 0 for t in self.OUTSIDE]
        with pytest.raises(AssertionError):
            PROBLEM.count(n, (-1.0,))

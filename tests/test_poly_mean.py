"""The polynomial family's sum of a named f by Euler-Maclaurin over P's
monotone runs against its oracles.

The stream, the route of every plain callable, is the oracle of the route:
the sums must lie within the bound that ``polynomial_family`` proves plus
the stream's own, and within a few ulp.  mpmath sums the exact points one by
one at a few (f, P, n).  The bound is computed here apart from the solver's
code: the remainder's majorant and the rule's Bernstein bound from the
run's shifted coefficients.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import problems
from asymptolim.accum import CHUNK
from asymptolim.cli import resolve_function
from asymptolim.problems import (_BLOCK_POINTS, _EM_TERMS, _GAUSS_NODES, PolySpec, _derivative,
                                 _em_runs, _exact_poly, _monotone_runs, _poly_count, _shift,
                                 _poly_eval, _poly_sum, polynomial_family)
from asymptolim.special import BERNOULLI_2J

NAMES = ("sin", "cos", "id", "const1", "poly:0.5,-1.25,2")
U = 2.0**-53

# the golden argv's P: the benchmark's shape, x**2, a nearly linear P, a P
# below 0 over i < 2000, and a cubic whose local maximum, 148,148 at i = 33,
# passes n = 131,071
WORKLOAD = (1.3, 0.7, 0.2)
SQUARE = (1.0, 0.0, 0.0)
LINEAR = (1e-10, 1e6, 0.0)
DIP = (1.0, -2000.0, 1.0)
CUBIC = (1.0, -200.0, 10000.0, 0.0)


def gamma(j):
    return j * U / (1 - j * U)


def spec(P, f):
    return PolySpec(P, len(P) - 1, 1.0, f)


def sums(P, name, n, threads=1):
    """(route, stream): the sum of f(P(i)/n) over i <= N(n), rounded once,
    with the named f and with its plain callback."""
    f = resolve_function(name)
    count = _poly_count(spec(P, f), n)
    return (_poly_sum(spec(P, f), n, count, threads),
            _poly_sum(spec(P, f.fn), n, count, threads))


def runs(P, name, n):
    f = resolve_function(name)
    p, limit = _exact_poly(spec(P, f), n)
    return _em_runs(p, limit, f.analytic, _poly_count(spec(P, f), n))


def ulps(a, b):
    return abs(a - b) / math.ulp(b)


# ---------------------------------------------------------------------------
# the bound stated in polynomial_family's docstring
# ---------------------------------------------------------------------------

def series_power_sum(coeffs, weights, degree):
    """[t**0..degree] of sum_i weights[i] c(t)**i, c(0) = 0, by numpy's
    polynomial products."""
    c = np.polynomial.Polynomial(coeffs[: degree + 1])
    total = np.zeros(degree + 1)
    power = np.polynomial.Polynomial([1.0])
    for i in range(1, degree + 1):
        power = (power * c).cutdeg(degree)
        total[: power.coef.size] += weights[i] * power.coef
    return total


def majorant(G, half):
    """Ghat_k = half**-k sum_{j>=k} C(j, k) |G_j| for the run."""
    q = len(G) - 1
    return [0.0] + [sum(math.comb(j, k) * abs(G[j]) for j in range(k, q + 1)) / half**k
                    for k in range(1, 2 * _EM_TERMS + 3)]


def remainder(A, p, limit, a, b):
    K = _EM_TERMS
    p_ = 2 * K + 2
    Ghat = majorant(_shift(p, limit, a, b).tolist(), (b - a) / 2)
    top = series_power_sum(Ghat, [A[i] / math.factorial(i) for i in range(p_ + 1)], p_)[p_]
    num, den = BERNOULLI_2J[K]
    return 2 * abs(num) / den * (b - a) * top


def rule_truncation(part, G, half):
    best = math.inf
    for k in range(1, 11):
        rho = 2.0**k
        R = (rho + 1 / rho) / 2
        try:
            M = part.disc(sum(abs(c) * R**j for j, c in enumerate(G)))
        except OverflowError:
            break
        best = min(best, half * 64 / 15 * M / ((rho * rho - 1) * rho ** (2 * _GAUSS_NODES)))
    return best


def run_bound(part, p, limit, a, b, G):
    """E_run of polynomial_family's docstring for the run [a, b] and its
    shifted coefficients G."""
    e_f, e_d = part.errors[:2]
    A = part.bounds
    q = len(p) - 1
    G = G.tolist()
    eps = (gamma(2 * q) + U) * sum(map(abs, G)) + U / 2 * sum(k * abs(c) for k, c in enumerate(G))
    rule = (b - a) * 1.01 * (e_f + A[1] * eps) + rule_truncation(part, G, (b - a) / 2)
    K = _EM_TERMS
    Ghat = majorant(_shift(p, limit, a, b).tolist(), (b - a) / 2)
    series = series_power_sum(Ghat, [0.0] + [1 / math.factorial(i) for i in range(1, 2 * K)],
                              2 * K - 1)
    H = sum(abs(num) / (den * 2 * k) * series[2 * k - 1]
            for k, (num, den) in enumerate(BERNOULLI_2J[:K], start=1))
    return (remainder(A, p, limit, a, b) + rule + (b - a) * 1.52 * U * A[0] + e_d
            + A[1] * U / 2 + 2 * (e_d + 60 * U * max(A)) * H)


def stream_bound(part, p, limit, indices):
    """The stream's error over the indices (each point inside [0, 1])."""
    e_f, A1 = part.errors[0], part.bounds[1]
    q = len(p) - 1
    absp = [abs(c) for c in p]
    return sum(e_f + A1 * (gamma(2 * q) * _poly_eval(absp, i) / limit + U) for i in indices)


def stated(P, name, n):
    """(the runs' E_run summed, the stream's bound over the runs' indices,
    the runs' point count)."""
    part = resolve_function(name).analytic
    p, limit = _exact_poly(spec(P, None), n)
    total = stream = points = 0.0
    for a, b, G in runs(P, name, n):
        total += run_bound(part, p, limit, a, b, G)
        # |P| rises on i >= 0, so its largest value is at b
        stream += (b - a + 1) * stream_bound(part, p, limit, [b])
        points += b - a + 1
    return total, stream, points


def random_cases(count, seed):
    """(P, n): signed coefficients of degree 1-4, P(x) = n sum_j beta_j
    (x/X)**j with beta_q > 0, at n up to 1e9 and N(n) up to about 3e6."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = int(rng.integers(1, 5))
        n = int(10 ** rng.uniform(3, 9))
        X = 10 ** rng.uniform(1.5, 6.5)
        beta = rng.normal(size=q + 1)
        beta[q] = abs(beta[q]) + 0.3
        beta[0] = rng.uniform(-0.3, 0.5)
        P = tuple(float(beta[j] * n / X**j) for j in range(q, -1, -1))
        try:
            N = _poly_count(spec(P, None), n)
        except ValueError:
            continue
        if N <= 4 * 10**6:
            out.append((P, n))
    return out


CASES = ([(WORKLOAD, n) for n in (2**17 - 1, 10**6 + 3, 10**9 + 7, 10**12)]
         + [(SQUARE, 2**17 - 1), (LINEAR, 10**9 + 7), (DIP, 10**6 + 3), (DIP, 10**12),
            (CUBIC, 2**17 - 1), (CUBIC, 10**9 + 7)]
         + random_cases(14, 7))

# the points summed by Euler-Maclaurin, per case above, for sin: each run
# from its first point on, and none of the dip's or of the cubic above n
EM_POINTS = {(WORKLOAD, 2**17 - 1): 317, (WORKLOAD, 10**12): 877_057, (SQUARE, 2**17 - 1): 362,
             (DIP, 10**6 + 3): 415, (DIP, 10**12): 999_001, (CUBIC, 10**9 + 7): 1067}


@pytest.mark.parametrize("name", NAMES)
def test_within_the_stated_bound_of_the_stream(name):
    em_points = total_points = 0
    for P, n in CASES:
        route, stream = sums(P, name, n)
        bound, stream_error, points = stated(P, name, n)
        assert abs(route - stream) <= U * (abs(route) + abs(stream)) + bound + stream_error, (P, n)
        if name == "sin" and (P, n) in EM_POINTS:
            assert points == EM_POINTS[P, n], (P, n)
        em_points += points
        total_points += _poly_count(spec(P, None), n)
    # most points went by Euler-Maclaurin, so the bound checked the route
    assert em_points > 0.9 * total_points


@pytest.mark.parametrize("name", NAMES)
def test_within_a_few_ulp_of_the_stream(name):
    # the random P's sums cancel more: the stream's error, and the route's,
    # scale with the sum of |f|
    for j, (P, n) in enumerate(CASES):
        route, stream = sums(P, name, n)
        assert ulps(route, stream) <= (2 if j < 10 else 4), (P, n)


def test_stated_bound_is_a_few_dozen_ulp_at_large_n():
    for name, most in (("sin", 30), ("cos", 30), ("id", 30), ("const1", 10),
                       ("poly:0.5,-1.25,2", 150)):
        for P, n in ((WORKLOAD, 10**12), (SQUARE, 10**12), (DIP, 10**12)):
            route, _ = sums(P, name, n)
            bound, _, _ = stated(P, name, n)
            assert bound + U * abs(route) < most * math.ulp(route), (name, P)


# ---------------------------------------------------------------------------
# the mpmath oracle
# ---------------------------------------------------------------------------

def mp_function(mpmath, name):
    if name in ("sin", "cos"):
        return getattr(mpmath, name)
    c = {"id": [0, 1], "const1": [1]}.get(name) or [
        mpmath.mpf(v) for v in name[len("poly:"):].split(",")]
    return lambda x: mpmath.fsum(v * x**j for j, v in enumerate(c))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("P, n", [(WORKLOAD, 10**7), (SQUARE, 2**17 - 1), (LINEAR, 10**9 + 7),
                                  (CUBIC, 10**9 + 7)])
def test_within_the_stated_bound_of_the_exact_sum(name, P, n):
    mpmath = pytest.importorskip("mpmath")
    part = resolve_function(name).analytic
    p, limit = _exact_poly(spec(P, None), n)
    count = _poly_count(spec(P, None), n)
    with mpmath.workdps(30):
        f = mp_function(mpmath, name)
        exact = mpmath.fsum(f(mpmath.mpf(_poly_eval(p, i)) / limit) for i in range(1, count + 1))
        route, _ = sums(P, name, n)
        bound, _, points = stated(P, name, n)
        em = set()
        for a, b, _ in runs(P, name, n):
            em.update(range(a, b + 1))
        bound += stream_bound(part, p, limit, [i for i in range(1, count + 1) if i not in em])
        assert points > 0
        assert abs(route - exact) <= U * abs(route) + bound
        assert abs(route - exact) <= 2 * math.ulp(route)


# ---------------------------------------------------------------------------
# the runs, threads and the points that stream
# ---------------------------------------------------------------------------

def test_monotone_runs_are_monotone_in_real_x():
    # (x - 5.5)**2 turns between two integers; the derivative of the fourth
    # is 200 (x - 5.3)(x - 5.6)(x + 1), two of whose roots lie between 5 and 6,
    # with no sign change of P' at the integers
    rng = np.random.default_rng(3)
    polys = [[4, -44, 121], [1, 0, 0], [1, -200, 10000, 0], [50, -660, 1878, 5936, 0]]
    polys += [[int(v) for v in rng.integers(-50, 50, size=q + 1)] for q in (2, 3, 4, 5, 6) * 4]
    for p in polys:
        out = _monotone_runs(p, 1, 40)
        assert [a for a, _ in out] == [1] + [b + 1 for _, b in out[:-1]] and out[-1][1] == 40
        d = _derivative(p)
        for a, b in out:
            signs = {(v > 0) - (v < 0) for v in (
                _poly_eval(d, Fraction(16 * a + k, 16)) for k in range(16 * (b - a) + 1))}
            assert not {1, -1} <= signs, (p, a, b)
    assert _monotone_runs([4, -44, 121], 1, 40) == [(1, 5), (6, 40)]
    assert all(b <= 5 or a >= 6 for a, b in _monotone_runs([50, -660, 1878, 5936, 0], 1, 40))


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_threads_give_the_same_bits(name):
    # the dip streams 1,999 points, then one run fills 8 chunks
    assert _poly_count(spec(DIP, None), 10**12) > 7 * CHUNK
    for P in (DIP, WORKLOAD):
        bits = {sums(P, name, 10**12, threads=t)[0].hex() for t in (1, 2, 4)}
        assert len(bits) == 1


def streamed(monkeypatch, P, f, n):
    """The indices that go through ``_poly_chunk``."""
    calls = []
    kernel = problems._poly_chunk

    def counted(coeffs, n, a, b, out=None):
        calls.append((a, b))
        return kernel(coeffs, n, a, b, out=out)

    monkeypatch.setattr(problems, "_poly_chunk", counted)
    polynomial_family(spec(P, f), n)
    monkeypatch.undo()
    return [i for a, b in calls for i in range(a, b)]


def test_a_named_f_streams_only_what_lies_outside_its_runs(monkeypatch):
    sin = resolve_function("sin")
    # the benchmark's shape streams no point
    assert streamed(monkeypatch, WORKLOAD, sin, 10**12) == []
    assert len(streamed(monkeypatch, WORKLOAD, sin.fn, 10**12)) == 877_057
    # the dip streams exactly its i with P(i) < 0
    assert streamed(monkeypatch, DIP, sin, 10**12) == list(range(1, 2000))
    # the cubic streams the i where P(i) > n, those past its first run and
    # its short runs
    for n in (2**17 - 1, 10**6 + 3):
        got = set(streamed(monkeypatch, CUBIC, sin, n))
        p, limit = _exact_poly(spec(CUBIC, None), n)
        count = _poly_count(spec(CUBIC, None), n)
        above = {i for i in range(1, count + 1) if _poly_eval(p, i) > limit}
        assert above <= got
        if n == 2**17 - 1:
            assert above
    # a run of _BLOCK_POINTS + 1 points and more goes by Euler-Maclaurin
    assert all(b - a >= _BLOCK_POINTS for a, b, _ in runs(CUBIC, "id", 10**6 + 3))


def test_a_plain_callable_streams_as_before():
    # the stream's bits: np.polyval at each index over n, summed exactly
    n = 10**6 + 3
    for P in (WORKLOAD, DIP, CUBIC):
        count = _poly_count(spec(P, None), n)
        i = np.arange(1, count + 1, dtype=np.float64)
        values = np.sin(np.polyval(np.asarray(P), i) / n)
        assert sums(P, "sin", n)[1] == math.fsum(values.tolist())


def test_n_beyond_two_to_the_52_is_rejected():
    with pytest.raises(ValueError, match="2\\*\\*52"):
        polynomial_family(PolySpec((1.0, 0.0), 1, 1.0, resolve_function("sin")), 2**53)

"""The counts of a whole sweep in one call, ``Problem.counts``.

Every count rule takes the sweep's n-list at once, in one call, and each
threshold in one exact form: an int, another rational as given, or a float.
canonical-uniform and example1 count in closed form, example2 walks its
rows once for every n, and example3 takes each block's boundary in closed
form, from a float guess where no integer lies near it and in Python ints
where one does.  The
oracle is the stream of each n alone, the same problem with
``count_rule=None``, at 1 and 2 threads.  example2's rows rest on np.sin's
stated bound (test_sin_count.py), so CI runs this file on numpy's AVX2
dispatch too.
"""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import problems
from asymptolim.convergence import DEFAULT_GRID, cdf_sequence_probe
from asymptolim.problems import PROBLEMS

# t <= 0 and t >= 1 for every problem, -1 and below for example2, and 0.3 as
# a float32, a float and a Fraction
EDGES = (0.0, -0.0, -0.5, 1.0, 1.5, -1.0, -1.5, math.inf, -math.inf, 5e-324,
         math.nextafter(1.0, 0.0), Fraction(1, 3), Fraction(1, 2), Fraction(-1, 7),
         Fraction(7, 5), np.float32(0.3), 0.3, Fraction(3, 10))


def streamed(name, ns, ts):
    problem = dataclasses.replace(PROBLEMS[name], count_rule=None)
    return [problem.count(n, ts).tolist() for n in ns]


def ties(name, ns, rng):
    """Thresholds equal to points of the sweep's n and the floats next to
    them, and for example3 the exact points too, as Fractions."""
    out = []
    for n in ns:
        i = int(rng.integers(1, n + 1))
        x = float(PROBLEMS[name].points(n, i, i + 1)[0])
        out += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        if name == "example3":
            out.append(Fraction(n % i, i))
    return out


def thresholds(name, ns, rng):
    """Drawn values, unsorted and with a duplicate, ties and the edges."""
    lo = -1.0 if name == "example2" else 0.0
    drawn = rng.uniform(lo, 1.0, 5).tolist()
    ts = drawn + [drawn[0]] + ties(name, ns, rng) + list(EDGES)
    return [ts[j] for j in rng.permutation(len(ts))]


def assert_counts_are_the_stream(name, ns, ts):
    want = streamed(name, ns, ts)
    for threads in (1, 2):
        got = PROBLEMS[name].counts(ns, ts, threads)
        assert got.dtype == np.int64 and got.shape == (len(ns), len(ts))
        assert got.tolist() == want, (name, ns, ts, threads)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", PROBLEMS)
def test_random_increasing_n_lists(name, seed):
    rng = np.random.default_rng(seed)
    ns = sorted(set(rng.integers(1, 200_000, 6).tolist()))
    assert_counts_are_the_stream(name, ns, thresholds(name, ns, rng))


@pytest.mark.parametrize("name", PROBLEMS)
def test_small_n_and_n_that_share_a_row(name):
    # m*m and m*m + 2m share example2's last row m, whole at m*m + 2m
    ns = [1, 2, 3, 4, 5, 8, 9, 1023, 1024, 1025, 1088, 1089, 3 * 2**17 + 5]
    rng = np.random.default_rng(len(name))
    assert_counts_are_the_stream(name, ns, thresholds(name, ns, rng))


@pytest.mark.parametrize("name", PROBLEMS)
def test_unsorted_n_with_a_duplicate(name):
    ns = [50_000, 7, 50_000, 1, 30_000]
    assert_counts_are_the_stream(name, ns, (0.3, Fraction(1, 2), -0.25, 1.0))


@pytest.mark.parametrize("name", PROBLEMS)
def test_one_n_is_a_row_of_the_sweep(name):
    ns = (1000, 720720, 1000003)
    sweep = PROBLEMS[name].counts(ns, DEFAULT_GRID)
    for n, row in zip(ns, sweep):
        assert PROBLEMS[name].count(n, DEFAULT_GRID).tolist() == row.tolist()


def recording(name):
    """PROBLEMS[name] with its count rule wrapped to record the n-list and
    the thresholds of each call, and the list of those calls."""
    problem = PROBLEMS[name]
    calls = []

    def recorded(p, ns, ts, threads):
        calls.append((ns, ts))
        return problem.count_rule(p, ns, ts, threads)

    return dataclasses.replace(problem, count_rule=recorded), calls


def test_the_probe_counts_a_sweep_in_one_call():
    probe, calls = recording("example3")
    cdf_sequence_probe(probe, probe.limit(), n_list=(10, 1000, 720720))
    assert [ns for ns, _ in calls] == [(10, 1000, 720720)]


# rationals, which a rule sees as given (a numpy integer as an int), and
# other reals, which it sees as floats
GIVEN = (0, 1, -3, Fraction(1, 3), Fraction(-1, 7), Fraction(7, 5), Fraction(1, 2))
AS_INTS = (np.int64(0), np.uint8(0), np.int8(1))
AS_FLOATS = (np.float32(0.3), np.float64(0.3), Decimal("0.3"), np.float64(-0.0), 0.25, math.inf)


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_rule_takes_a_whole_sweep_once_in_exact_forms(name):
    ns = (10, 1000, 720720)
    problem, calls = recording(name)
    cdf_sequence_probe(problem, problem.limit(), n_list=ns)
    assert [seen for seen, _ in calls] == [ns]
    calls.clear()
    ts = GIVEN + AS_INTS + AS_FLOATS
    got = problem.counts(ns, ts)
    [(seen, forms)] = calls
    assert seen == ns
    assert all(form is t for form, t in zip(forms, GIVEN))
    ints = forms[len(GIVEN) : len(GIVEN) + len(AS_INTS)]
    assert [type(form) for form in ints] == [int] * len(AS_INTS) and ints == AS_INTS
    floats = forms[len(GIVEN) + len(AS_INTS) :]
    assert [type(form) for form in floats] == [float] * len(AS_FLOATS)
    assert [form.hex() for form in floats] == [float(t).hex() for t in AS_FLOATS]
    assert got.tolist() == streamed(name, ns, ts)


# n where many {n/i} are 1/4, 1/2 and 3/4 (720720 = 2**4 3**2 5 7 11 13), a
# power of two and a prime
TIE_NS = (720720, 2**20, 10**6 + 3)


def test_example3_exact_boundaries_give_the_same_counts(monkeypatch):
    # with a margin of 1 every cell's interval holds an integer, so every
    # boundary is taken in Python ints
    ts = DEFAULT_GRID + (Fraction(1, 3), Fraction(2, 7), 1 / 3, 2 / 7)
    fast = PROBLEMS["example3"].counts(TIE_NS, ts)
    monkeypatch.setattr(problems, "_BOUNDARY_MARGIN", 1.0)
    exact = PROBLEMS["example3"].counts(TIE_NS, ts)
    assert exact.tolist() == fast.tolist() == streamed("example3", TIE_NS, ts)



@pytest.mark.parametrize("name", ["example2", "example3"])
def test_sweeps_that_span_chunks_equal_their_rows(name):
    # 200 thresholds: example2 walks 655 - 8 rows a chunk, so these last
    # rows fall on, next to and between chunk edges; example3 steps 655
    # blocks a chunk.  Each n alone is checked against the stream above.
    rng = np.random.default_rng(9)
    lo = -1.0 if name == "example2" else 0.0
    ts = tuple(rng.uniform(lo, 1.0, 200).tolist())
    width = 2**17 // 200 - 8
    ns = sorted({1, (width + 1) ** 2 - 1, (width + 1) ** 2, (width + 2) ** 2 + 5,
                 (2 * width) ** 2 + 3, (2 * width + 1) ** 2, 3 * width * 3 * width + 7, 10**7})
    assert len(ns) == 8
    rows = [PROBLEMS[name].count(n, ts).tolist() for n in ns]
    for threads in (1, 2):
        assert PROBLEMS[name].counts(ns, ts, threads).tolist() == rows

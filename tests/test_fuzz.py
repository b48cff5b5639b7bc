"""Fuzz gate of the command line: argv drawn from the CLI's own tables.

Every run must exit 0, 2 or 3, print no traceback, and return within
``BOUND_S`` seconds (``signal.alarm``, in-process).  The index n is drawn up
to 2**52, the largest n accepted, where the work is O(log n) (the closed-form
counts of canonical-uniform and example1), up to 1e12 where it is O(1) or
O(sqrt n) (solve example2 and example3, dirichlet, sweep example3), and
elsewhere at or below 1e6, apart from values that must be rejected at once.
Sweeps of example2 stay at 1e6: their grid lists have no length cap.
"""

import contextlib
import io
import math
import signal

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from asymptolim.cli import INTEGRATE, SOLVE, SPECIAL, main  # noqa: E402
from asymptolim.problems import CDFS, PROBLEMS  # noqa: E402

BOUND_S = 10

# routes whose work grows at most like log(n): the closed-form counts; and
# like sqrt(n): row and block counts and the hyperbola identity (harmonic is
# O(1) above 2**20)
LOG_SWEEP = ("canonical-uniform", "example1")
SQRT_SOLVE = ("example2", "example3", "dirichlet")
SQRT_SWEEP = ("example3",)
HUGE, BIG, SMALL = 2**52, 10**12, 10**6

REJECTED_N = (0, -1, 2**52 + 1, 10**18)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.inf,
               -math.inf, 1e308, -1e308, math.nan)
PLAIN_FLOATS = (0.5, 1.0, 1.5, 2.0, -1.0, 3.0)


@st.composite
def mostly(draw, usual, rare):
    """A draw of ``usual``, or one in four times of ``rare``."""
    return draw(rare if draw(st.integers(0, 3)) == 0 else usual)


edges = st.sampled_from(EDGE_FLOATS)
floats = mostly(st.floats(-1.5, 1.5), edges)
# polynomial coefficients stay off tiny values, which would make N(n) huge
coefficients = mostly(st.sampled_from(PLAIN_FLOATS), edges)


def index(top: int, rejected=REJECTED_N):
    """An index in 1..top, or one in four times a value to be rejected."""
    return mostly(st.integers(1, top), st.sampled_from(rejected))


def text(values) -> str:
    return ",".join(map(repr, values))


@st.composite
def polynomial(draw):
    """Coefficients, highest first; the leading one is mostly positive."""
    lead = draw(mostly(st.sampled_from(PLAIN_FLOATS[:4]), edges))
    return text([lead] + draw(st.lists(coefficients, max_size=3)))


function_names = st.one_of(st.sampled_from(("sin", "cos", "id", "const1")),
                           polynomial().map(lambda c: "poly:" + c))


@st.composite
def options(draw, flags, always=()):
    """``--flag=value`` for the flags in ``always`` and a random subset of the
    others; the ``=`` form lets a value such as -inf reach the program rather
    than read as a flag."""
    return [f"{flag}={draw(values)}" for flag, values in flags.items()
            if flag in always or draw(st.booleans())]


@st.composite
def solve_argv(draw):
    problem = draw(st.sampled_from(tuple(SOLVE)))
    # poly takes any n: its cost is N(n), which it bounds by 2**52
    n = draw(index(SMALL, (0, -1)) if problem == "poly" else
             index(BIG if problem in SQRT_SOLVE else SMALL))
    return ["solve", problem, f"--n={n}"] + draw(options({
        "--f": function_names, "--lo": floats, "--hi": floats, "--t": floats,
        "--poly-p": polynomial(), "--poly-r": st.integers(-1, 4), "--poly-b": floats,
    }))


@st.composite
def sweep_argv(draw):
    problem = draw(st.sampled_from(tuple(PROBLEMS)))
    top = HUGE if problem in LOG_SWEEP else BIG if problem in SQRT_SWEEP else SMALL
    n_list = draw(mostly(st.lists(st.integers(1, top), min_size=1, max_size=3, unique=True)
                         .map(sorted), st.lists(index(top), min_size=1, max_size=3)))
    support = PROBLEMS[problem].limit().support
    inside = st.floats(support.lower[0], support.upper[0], exclude_min=True, exclude_max=True)
    grid = mostly(st.lists(inside, min_size=1, max_size=5), st.lists(floats, min_size=1))
    ranged = st.tuples(floats, floats, floats).map(lambda r: ":".join(map(repr, r)))
    return ["sweep", problem, "--n=" + ",".join(map(str, n_list))] + draw(options({
        "--grid": mostly(grid.map(text), ranged),
    }))


@st.composite
def integrate_argv(draw):
    roots = mostly(st.integers(1, 10), st.sampled_from((-1, 0, 10**6, 10**400))).map(
        lambda q: f"root:{q}")
    phi = draw(st.one_of(st.sampled_from(tuple(CDFS)), roots))
    return ["integrate", f"--f={draw(function_names)}", f"--phi={phi}"] + draw(options({
        "--lower": floats, "--upper": floats, "--method": st.sampled_from(tuple(INTEGRATE)),
        "--levels": mostly(st.integers(1, 12), st.sampled_from((-1, 0, 23, 40))),
    }))


@st.composite
def special_argv(draw):
    name = draw(st.sampled_from(tuple(SPECIAL)))
    return ["special", name] + draw(options({
        "--x": mostly(st.floats(-10.0, 1e6), edges), "--s": mostly(st.floats(-2.0, 40.0), edges),
        "--t": floats, "--n": index(BIG),
        "--k-max": mostly(st.integers(0, 2000), st.sampled_from((-1, 10**5 + 1, 10**18))),
    }, always=("--x", "--s", "--t", "--n")))


common = options({
    "--tol": mostly(st.sampled_from((1e-6, 1e-9, 1e-11, 1e-13)), edges),
    "--format": st.sampled_from(("json", "csv")),
    "--threads": st.sampled_from((1, 2)),
})

argvs = st.tuples(st.one_of(solve_argv(), sweep_argv(), integrate_argv(), special_argv()),
                  common).map(lambda parts: parts[0] + parts[1])


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the program
    can swallow it."""


def _alarm(signum, frame):
    raise Hang


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_every_argv_exits_cleanly_and_in_time(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(BOUND_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Hang:
        pytest.fail(f"no answer within {BOUND_S} s: {argv}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert (code == 0) == (out.getvalue() != ""), (argv, err.getvalue())

"""Write tests/data/golden_argv.json: the CLI's exit code, stdout and stderr
for a fixed list of argv, with the report timestamp masked, and the counts
``PROBLEMS[name].counts(ns, ts)`` of every problem at fixed indices and
thresholds.

``test_golden_argv.py`` replays every argv in the file and compares the
bytes, and recomputes every count.  The reports hold values of numpy's sin
and cos and of libm's functions, whose last bits depend on the CPU and the
library versions, so the file also holds a digest of those functions at
fixed points, and the bytes of an argv that computes a value are compared
only where the digest matches; an argv that exits 2 or prints help is
compared everywhere.  Regenerate the file only for a change that alters a
report on purpose, and say so where the change is recorded:

    PYTHONPATH=src python tests/make_golden_argv.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np

from test_kernels import THRESHOLDS

PATH = Path(__file__).resolve().parent / "data" / "golden_argv.json"

TIMESTAMP = re.compile(r'(timestamp"?[:,] ?"?)[0-9T:.+-]+')

PHIS = ("uniform", "sqrt", "root:3", "frac-limit", "arcsin")
FS = ("sin", "cos", "id", "poly:0.5,-1.25,2")

# support of each named CDF; the extra oracle windows sit inside it and
# reach past it
SUPPORT = {"uniform": (0.0, 1.0), "sqrt": (0.0, 1.0), "root:3": (0.0, 1.0),
           "frac-limit": (0.0, 1.0), "arcsin": (-1.0, 1.0)}

# edge values of the special functions: signed zeros, the least subnormal,
# tiny, 1 - 2**-53 and 1, the recurrence threshold 6, outside the domain,
# and infinities (the CLI rejects NaN before any call)
CDF_TS = ("0", "-0.0", "5e-324", "1e-300", "1e-17", "0.25", "0.5", "0.75",
          "0.9999999999999999", "0.99999999999999989", "1", "1.5", "-1", "inf", "-inf")
DIGAMMA_XS = ("5e-324", "1e-300", "1e-8", "0.5", "1", "1.0000000000000002", "1.5", "2",
              "5.999999999999999", "6", "7.25", "1e6", "1e300", "inf", "0", "-1")

# H_n outside the domain, at the first values, on either side of the exact
# sum's cutoff 256 and of the old ones 1024 and 2**20, and far out
HARMONIC_NS = (0, 1, 2, 3, 4, 255, 256, 257, 1024, 1025, 2000, 2**20 - 1, 2**20, 2**20 + 1,
               10**12, 10**18, 10**400)

# example4's identity mean, H_n - D(n)/n: the same cutoffs, the stream's
# chunk edges 2**17 +- 1, primes and the largest n
IDENTITY_NS = (1, 2, 7, 256, 257, 1024, 1025, 2**17 - 1, 2**17 + 1, 10**6 + 3, 10**9 + 7,
               2**52 - 1)

# example1's means of the named f: every row streamed (n < 32**2) and row 32
# summed by Euler-Maclaurin (n = 32**2 + 1), either side of the stream's
# chunk edge 2**17, a prime past a million and the benchmark's n
MEAN_FS = ("sin", "cos", "id", "const1", "poly:0.5,-1.25,2")
MEAN_NS = (1, 2, 3, 7, 32**2 - 1, 32**2 + 1, 2**17 - 1, 2**17 + 1, 10**6 + 3, 10**7)

# example4's means of the named f: the same n, and either side of the first
# n at which a quotient block is summed by Euler-Maclaurin: 32 for const1,
# 212 for id, 286 for the polynomial and 346 for sin and cos
BLOCK_NS = (1, 2, 3, 7, 31, 32, 211, 212, 285, 286, 345, 346, 1000, 2**17 - 1, 2**17 + 1,
            10**6 + 3, 10**7)

# the polynomial family: the benchmark's shape, x**2, a P nearly linear over
# its N(n) = 999,999 indices (none at n < 1e6, so the CLI rejects it), a P
# below 0 over i < 2000, and a cubic whose local maximum, 148,148 at i = 33,
# passes n before it falls to 0 at i = 100; each at q = r (the default r),
# q > r (r = 1) and q < r (r = 4)
POLY_PS = ("1.3,0.7,0.2", "1,0,0", "1e-10,1000000,0", "1,-2000,1", "1,-200,10000,0")
POLY_NS = (1000, 2**17 - 1, 2**17 + 1, 10**6 + 3, 10**9 + 7, 10**12)
POLY_RS = ((None, ("sin", "cos", "id", "const1", "poly:0.5,-1.25,2"), POLY_NS),
           (1, ("sin", "poly:0.5,-1.25,2"), (1000, 10**6 + 3, 10**12)),
           (4, ("sin", "poly:0.5,-1.25,2"), (1000, 10**6 + 3, 10**12)))

# example3's sweep: 720720 has many points at 1/2 and 1/4, 999983 is prime;
# the grid holds 1/3 as a float
SWEEP3_NS = "1000,720720,999983,10000000"
SWEEP3_GRID = "0.01,0.2,0.25,0.3333333333333333,0.5,0.99"

# sweeps of every problem: the benchmark's shape (7 half-decade n up to 1e6,
# with 15 drawn grid values), the default grid (its 0.25, 0.5 and 0.75 are
# ties for example3 at 720720), and n that share a last row, m*m and
# m*m + 2m, with n = 1, 2, 3
SWEEP_PROBLEMS = ("canonical-uniform", "example1", "example2", "example3")
SWEEP_BENCH_NS = "1027,3089,9731,30555,97342,308761,986516"
SWEEP_DEFAULT_NS = "1000,720720,1000003,1048576"
SWEEP_ROW_NS = "1,2,3,4,8,1024,1088,1000000,1002000"


# example2's interval proportion (the default window, a point, the whole
# range and the level 0), example3's CDF (ties at 1/4 and 1/2, 1/3 as a
# float, the float below 1, and 1) and the divisor sum, at small n, the
# stream's chunk edges 2**17 +- 1, many ties (720720), primes and, for the
# divisor sum, the largest n
WINDOWS = ((), ("--lo=-1", "--hi=-1"), ("--lo=-1", "--hi=1"), ("--lo=0", "--hi=0"))
CDF3_TS = ("0", "0.25", "0.5", repr(1 / 3), repr(math.nextafter(1.0, 0.0)), "1")
INDEX_NS = (1, 2, 7, 1000, 2**17 - 1, 2**17 + 1, 720720, 10**6 + 3, 10**9 + 7)

# the oracle at either side of the level at which its midpoints outgrow one
# chunk of 2**17 values (levels 1-16 fill 2**17 - 2); a window whose finest
# step is subnormal from level 9 on (where sin's products underflow to 0 and
# the polynomial's, near 0.5, do not), a point, and a width that overflows
ORACLE_PHIS = ("uniform", "frac-limit")
ORACLE_FS = ("sin", "poly:0.5,-1.25,2")
ORACLE_LEVELS = (1, 16, 17, 18)
ORACLE_WINDOWS = (("--lower=0", "--upper=1e-305", "--levels=18"),
                  ("--lower=0.5", "--upper=0.5"),
                  ("--lower=-1e308", "--upper=1e308"))

# argv that exit 2 (an unknown or malformed f, n outside 1..2**52, a
# decreasing sweep) or 3 (a quadrature that cannot meet its tolerance)
REJECTED = (["solve", "example1", "--f=tan", "--n=1000"],
            ["solve", "example1", "--f=poly:a", "--n=1000"],
            ["solve", "example1", "--n=0"],
            ["solve", "example1", f"--n={2**52 + 1}"],
            ["sweep", "example1", "--n=1000,10"],
            ["solve", "example1", "--n=1000", "--f=poly:1e6"],
            ["solve", "example4", "--n=1000", "--f=poly:1e300,1,-1"])

# argv that argparse itself rejects or reshapes: an unknown option, a
# trailing extra positional, a missing --n, a bad --method choice, an option
# before the command, no argv, an unknown command, help after a command and
# alone, an abbreviated option, the space form, "--" before a positional and
# before an option, and the probe alias; usage and help are wrapped at
# COLUMNS characters
PARSED = (["integrate", "--f=sin", "--phi=uniform", "--bogus=1"],
          ["special", "digamma", "--x=1", "extra"],
          ["solve", "example1"],
          ["integrate", "--f=sin", "--phi=uniform", "--method=simpson"],
          ["--threads=2", "special", "digamma", "--x=1"],
          [],
          ["solv", "example1", "--n=10"],
          ["special", "-h"],
          ["--help"],
          ["integrate", "--f=sin", "--phi=uniform", "--method=oracle", "--lev=3"],
          ["solve", "dirichlet", "--n", "10"],
          ["special", "--x=1", "--", "digamma"],
          ["special", "digamma", "--", "--x=1"],
          ["probe", "example3", "--n=100,1000", "--grid=0.25,0.5"])
COLUMNS = "80"

# the counts section: every problem's counts at these indices and thresholds
COUNT_NS = (1, 2, 3, 1024, 720720, 10**6 + 3)
COUNT_TS = (*THRESHOLDS, -1.0, math.inf, -math.inf, 0.25)


def threshold_text(t) -> str:
    """A threshold as text: a Fraction as "p/q", a float by repr."""
    return f"{t.numerator}/{t.denominator}" if isinstance(t, Fraction) else repr(t)


def threshold_value(text: str):
    """The threshold of ``threshold_text``."""
    return Fraction(text) if "/" in text else float(text)


def count_cases() -> list[dict]:
    from asymptolim.problems import PROBLEMS

    return [{"problem": name, "ns": list(COUNT_NS),
             "ts": [threshold_text(t) for t in COUNT_TS],
             "counts": PROBLEMS[name].counts(COUNT_NS, COUNT_TS).tolist()}
            for name in PROBLEMS]


def sweep_grid(problem: str) -> str:
    """15 sorted grid values drawn inside the problem's grid domain."""
    lo, hi = (-1.0, 1.0) if problem == "example2" else (0.0, 1.0)
    u = np.sort(np.random.default_rng(1).random(15))
    return ",".join(repr(float(v)) for v in lo + (hi - lo) * (0.01 + 0.98 * u))


def sweep_argvs() -> list[list[str]]:
    out = []
    for problem in SWEEP_PROBLEMS:
        for flags in ([f"--n={SWEEP_BENCH_NS}", f"--grid={sweep_grid(problem)}"],
                      [f"--n={SWEEP_DEFAULT_NS}"], [f"--n={SWEEP_ROW_NS}"]):
            out += [["sweep", problem, *flags, f"--format={fmt}", f"--threads={t}"]
                    for fmt in ("json", "csv") for t in (1, 2)]
    return out


def argvs() -> list[list[str]]:
    out = []
    for method in ("density", "parts", "oracle"):
        for phi in PHIS:
            for f in FS:
                out.append(["integrate", f"--f={f}", f"--phi={phi}", f"--method={method}"])
    for phi in PHIS:
        lo, hi = SUPPORT[phi]
        width = hi - lo
        windows = ((lo + 0.125 * width, hi - 0.3 * width, "14"),
                   (lo - 0.5 * width, hi + 0.25 * width, "10"))
        for a, b, levels in windows:
            out.append(["integrate", "--f=sin", f"--phi={phi}", "--method=oracle",
                        f"--lower={a!r}", f"--upper={b!r}", f"--levels={levels}"])
    out += [["special", "frac-limit-cdf", f"--t={t}"] for t in CDF_TS]
    out += [["special", "digamma", f"--x={x}"] for x in DIGAMMA_XS]
    out += [["special", "harmonic", f"--n={n}"] for n in HARMONIC_NS]
    out += [["solve", "example4", f"--n={n}"] for n in IDENTITY_NS]
    out += [["solve", "example1", f"--f={f}", f"--n={n}"] for f in MEAN_FS for n in MEAN_NS]
    out += [["solve", "example4", f"--f={f}", f"--n={n}"] for f in MEAN_FS for n in BLOCK_NS]
    for r, fs, ns in POLY_RS:
        flags = [] if r is None else [f"--poly-r={r}"]
        out += [["solve", "poly", f"--poly-p={P}", *flags, f"--f={f}", f"--n={n}"]
                for P in POLY_PS for f in fs for n in ns]
    out += [["sweep", "example3", f"--n={SWEEP3_NS}", f"--grid={SWEEP3_GRID}", f"--threads={t}"]
            for t in (1, 2)]
    out += sweep_argvs()
    out += [["solve", "example2", *window, f"--n={n}"] for window in WINDOWS for n in INDEX_NS]
    out += [["solve", "example3", f"--t={t}", f"--n={n}"] for t in CDF3_TS for n in INDEX_NS]
    out += [["solve", "dirichlet", f"--n={n}"] for n in (*INDEX_NS, 2**52 - 1)]
    out += [["integrate", "--f=const1", f"--phi={phi}", f"--method={method}"]
            for method in ("density", "parts", "oracle") for phi in PHIS]
    out += [["integrate", f"--f={f}", f"--phi={phi}", "--method=oracle", f"--levels={levels}"]
            for phi in ORACLE_PHIS for f in ORACLE_FS for levels in ORACLE_LEVELS]
    out += [["integrate", f"--f={f}", "--phi=uniform", "--method=oracle", *window]
            for window in ORACLE_WINDOWS for f in ORACLE_FS]
    return out + list(REJECTED) + list(PARSED)


def platform_digest() -> str:
    """sha256 of the elementary functions the argv reach, at fixed points:
    numpy's sin and cos (the callbacks), and math's sin, asin, pow and log
    (the quantiles and limit CDFs)."""
    x = np.linspace(-4.0, 4.0, 20_001)
    u = np.linspace(0.0, 1.0, 20_001)[1:]
    values = [np.sin(x), np.cos(x), list(map(math.sin, x.tolist())),
              list(map(math.asin, (x / 4.0).tolist())),
              list(map(math.pow, u.tolist(), repeat(1.0 / 3.0))),
              list(map(math.pow, u.tolist(), repeat(0.5))),
              list(map(math.log, (u + 6.0).tolist()))]
    digest = hashlib.sha256()
    for v in values:
        digest.update(np.asarray(v, dtype=np.float64).tobytes())
    return digest.hexdigest()


def run(argv: list[str]) -> dict:
    from asymptolim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": TIMESTAMP.sub(r"\1T", out.getvalue()),
            "stderr": err.getvalue()}


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    PATH.parent.mkdir(exist_ok=True)
    cases = [run(argv) for argv in argvs()]
    PATH.write_text(json.dumps({"digest": platform_digest(), "cases": cases,
                                "counts": count_cases()}, indent=1) + "\n")
    print(f"{len(cases)} argv written to {PATH}", file=sys.stderr)

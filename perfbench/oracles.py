"""Independent checks of every op's output.

Nothing here imports asymptolim.  Solves are recomputed with plain numpy
(exact integer equality for the counting problems), sweeps by searchsorted on
a sorted copy of the points, closed forms, integrals and special functions
with mpmath, and library step integrals by brute-force loops over the atoms.
``check`` returns None when the output is right, else the reason it is not.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from workloads import step_inputs, uniform_charfn

mp.mp.dps = 20

SOLVE_TOL = 1e-9  # the CLI's default quadrature tolerance for closed forms
MEAN_TOL = 1e-12  # fsum means against numpy's pairwise sums
CDF_TOL = 1e-12
SPECIAL_RTOL = 1e-12
STEP_TOL = 1e-12
EPS = 2.0**-52
GL_NODES = 20


def _quad(g, a, b):
    """Gauss-Legendre with GL_NODES nodes at mpmath precision.  Every integrand
    here is analytic on a neighbourhood of [a, b] (singular densities are
    substituted away first), where the rule's error is far below 1e-16."""
    if not hasattr(_quad, "rule"):
        _quad.rule = mp.gauss_quadrature(GL_NODES, "legendre")
    a, b = mp.mpf(a), mp.mpf(b)
    mid, half = (a + b) / 2, (b - a) / 2
    nodes, weights = _quad.rule
    return half * mp.fsum(w * g(mid + half * x) for x, w in zip(nodes, weights))


def _numpy_f(spec: str):
    if spec.startswith("poly:"):
        c = [float(v) for v in spec[5:].split(",")]
        return lambda x: np.polynomial.polynomial.polyval(x, c)
    return {"sin": np.sin, "cos": np.cos, "id": lambda x: x}[spec]


def _mp_f(spec: str):
    if spec.startswith("poly:"):
        c = [mp.mpf(v) for v in spec[5:].split(",")]
        return lambda x: sum(ck * x**k for k, ck in enumerate(c))
    return {"sin": mp.sin, "cos": mp.cos, "id": lambda x: x}[spec]


def _lipschitz(spec: str, a: float, b: float) -> float:
    """An upper bound of |f'| on [a, b]."""
    if spec.startswith("poly:"):
        c = [float(v) for v in spec[5:].split(",")]
        return max(abs(c[1] + 2.0 * c[2] * x) for x in (a, b))
    return 1.0


def _sup_abs(spec: str) -> float:
    """An upper bound of |f| on [0, 1]."""
    if spec.startswith("poly:"):
        return sum(abs(float(v)) for v in spec[5:].split(","))
    return 1.0


def _off(value, ref, tol) -> str | None:
    if not (isinstance(value, (int, float)) and abs(value - ref) <= tol):
        return f"got {value!r}, oracle {float(ref)!r} (tolerance {tol:.3g})"
    return None


def _first(*problems):
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _frac_sqrt(lo: int, hi: int) -> np.ndarray:
    """{sqrt k} for k in [lo, hi)."""
    root = np.sqrt(np.arange(lo, hi, dtype=np.float64))
    return root - np.floor(root)


def _remainders(n: int, lo: int, hi: int):
    i = np.arange(lo, hi, dtype=np.int64)
    return i, n % i


def _blockwise(n: int, fn) -> list:
    """``fn(lo, hi)`` over blocks covering 1..n, which keeps the working set
    small; the caller adds the results up."""
    block = 1 << 20
    return [fn(lo, min(lo + block, n + 1)) for lo in range(1, n + 1, block)]


def check_solve(p: dict, res: dict) -> str | None:
    problem, n = p["problem"], p["n"]
    emp, closed = res["empirical"], res["closed_form"]
    if res["n"] != n:
        return f"echoed n {res['n']} != {n}"
    if res["abs_error"] != abs(emp - closed):
        return "abs_error is not |empirical - closed_form|"
    if problem == "example1":
        f = p["f"]
        F = _numpy_f(f)
        ref = math.fsum(_blockwise(n, lambda a, b: float(np.sum(F(_frac_sqrt(a, b)))))) / n
        return _first(_off(emp, ref, MEAN_TOL),
                      _off(closed, _quad(_mp_f(f), 0, 1), SOLVE_TOL))
    if problem == "example2":
        def count_in(a, b):
            s = np.sin(2.0 * math.pi * _frac_sqrt(a, b))
            return int(np.count_nonzero((s >= p["lo"]) & (s <= p["hi"])))

        count = sum(_blockwise(n, count_in))
        ref_closed = (mp.asin(p["hi"]) - mp.asin(p["lo"])) / mp.pi
        return _first(_off(emp, count / n, 0.0), _off(closed, ref_closed, SOLVE_TOL))
    if problem == "example3":
        def count_below(a, b):
            i, r = _remainders(n, a, b)
            return int(np.count_nonzero(r <= p["t"] * i))

        count = sum(_blockwise(n, count_below))
        ref_closed = mp.digamma(p["t"] + 1) + mp.euler
        return _first(_off(emp, count / n, 0.0), _off(closed, ref_closed, SOLVE_TOL))
    if problem == "example4":
        f = p["f"]
        F = _numpy_f(f or "id")

        def block_sum(a, b):
            i, r = _remainders(n, a, b)
            return float(np.sum(F(r / i)))

        ref = math.fsum(_blockwise(n, block_sum)) / n
        if f is None:
            ref_closed = 1 - mp.euler
        else:
            mf = _mp_f(f)
            ref_closed = _quad(lambda t: mf(t) * mp.psi(1, t + 1), 0, 1)
        return _first(_off(emp, ref, MEAN_TOL), _off(closed, ref_closed, SOLVE_TOL))
    if problem == "dirichlet":
        total = sum(_blockwise(n, lambda a, b: int(np.sum(n // np.arange(a, b, dtype=np.int64)))))
        return _first(_off(emp, total / n - math.log(n), 0.0),
                      _off(closed, 2 * mp.euler - 1, SOLVE_TOL))
    if problem == "poly":
        count = p["count"]
        if f"N(n) = {count}" not in res["meta"]:
            return f"meta {res['meta']!r} does not report N(n) = {count}"
        a, b, c = p["poly_p"]
        i = np.arange(1, count + 1, dtype=np.float64)
        values = _numpy_f(p["f"])(((a * i + b) * i + c) / n)
        ref = float(np.sum(values)) / (n / p["poly_b"]) ** 0.5
        mf = _mp_f(p["f"])
        ref_closed = mp.sqrt(mp.mpf(p["poly_b"]) / a) * _quad(lambda u: mf(u * u), 0, 1)
        return _first(_off(emp, ref, MEAN_TOL * max(1.0, abs(ref))),
                      _off(closed, ref_closed, SOLVE_TOL))
    return f"no oracle for solve {problem!r}"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_points(problem: str, n: int) -> np.ndarray:
    if problem == "canonical-uniform":
        return np.arange(1, n + 1, dtype=np.float64) / n
    if problem == "example1":
        return _frac_sqrt(1, n + 1)
    if problem == "example2":
        return np.sin(2.0 * math.pi * _frac_sqrt(1, n + 1))
    i, r = _remainders(n, 1, n + 1)
    return r / i


def limit_cdf(problem: str, t: float):
    if problem == "example2":
        return mp.asin(t) / mp.pi + mp.mpf(0.5)
    if problem == "example3":
        return mp.digamma(t + 1) + mp.euler
    return mp.mpf(t)


def check_sweep(p: dict, res: dict) -> str | None:
    problem, n_list, grid = p["problem"], p["n_list"], p["grid"]
    if res["n_list"] != n_list or res["grid"] != grid:
        return "echoed n_list or grid differs from the request"
    if res["excluded"]:
        return f"grid points {res['excluded']} excluded, but the limit CDF is continuous"
    targets = [limit_cdf(problem, t) for t in grid]
    for got, ref in zip(res["target_values"], targets):
        if why := _off(got, ref, CDF_TOL):
            return f"target value: {why}"
    sups = []
    for n, row in zip(n_list, res["cdf_values"]):
        ordered = np.sort(sweep_points(problem, n))
        ref = np.searchsorted(ordered, grid, side="right") / n
        for got, want in zip(row, ref):
            if why := _off(got, want, CDF_TOL):
                return f"CDF at n={n}: {why}"
        sups.append(max(abs(float(r) - float(t)) for r, t in zip(ref, targets)))
    for got, want in zip(res["sup_errors"], sups):
        if why := _off(got, want, 2 * CDF_TOL):
            return f"sup error: {why}"
    s = res["sup_errors"]
    if res["monotone_decay"] != [b <= a for a, b in zip(s, s[1:])]:
        return "monotone_decay disagrees with sup_errors"
    return None


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def stieltjes_integral(f: str, phi: str, a: float, b: float):
    """The integral of f against the named CDF over [a, b], after the
    substitution that removes the density's singularity at the support's edge."""
    mf = _mp_f(f)
    if phi == "uniform":
        return _quad(mf, a, b)
    if phi in ("sqrt", "root:3"):
        q = 2 if phi == "sqrt" else 3
        return _quad(lambda u: mf(u**q), mp.root(a, q), mp.root(b, q))
    if phi == "arcsin":
        return _quad(lambda th: mf(mp.sin(th)), mp.asin(a), mp.asin(b)) / mp.pi
    return _quad(lambda t: mf(t) * mp.psi(1, t + 1), a, b)


def phi_value(phi: str, x: float):
    if phi == "uniform":
        return mp.mpf(x)
    if phi in ("sqrt", "root:3"):
        return mp.root(mp.mpf(x), 2 if phi == "sqrt" else 3)
    if phi == "arcsin":
        return mp.asin(x) / mp.pi + mp.mpf(0.5)
    return mp.digamma(x + 1) + mp.euler


def check_integrate(p: dict, res: dict) -> str | None:
    a, b = p["lower"], p["upper"]
    ref = stieltjes_integral(p["f"], p["phi"], a, b)
    if p["method"] != "oracle":
        if not 0.0 <= res["error_estimate"] <= p["tol"]:
            return f"error estimate {res['error_estimate']!r} above tol {p['tol']!r}"
        slack = 8 * EPS * (1.0 + abs(float(ref)))
        if p["phi"] == "frac-limit":
            # The program integrates its own frac-limit CDF or density, which
            # check_special accepts to SPECIAL_RTOL; on [0, 1] the density is
            # below 2, so they move the value by at most this beyond --tol.
            slack += SPECIAL_RTOL * (2.0 * _sup_abs(p["f"]) + _lipschitz(p["f"], a, b))
        return _off(res["value"], ref, p["tol"] + slack)
    # A midpoint Riemann-Stieltjes sum on 2**L pieces is within
    # sup|f'| * h / 2 * (phi(b) - phi(a)) of the integral.
    levels = res["levels"]
    if res["value"] != levels[-1]:
        return "value is not the finest level's sum"
    mass = float(phi_value(p["phi"], b) - phi_value(p["phi"], a))
    lip = _lipschitz(p["f"], a, b)
    for level, got in enumerate(levels, start=1):
        bound = lip * (b - a) / 2.0 ** (level + 1) * mass + 1e-12
        if why := _off(got, ref, bound):
            return f"level {level}: {why}"
    return None


# ---------------------------------------------------------------------------
# special
# ---------------------------------------------------------------------------

def check_special(p: dict, res: dict) -> str | None:
    name = p["function"]
    if name == "digamma":
        ref = mp.digamma(p["x"])
    elif name == "trigamma":
        ref = mp.psi(1, p["x"])
    elif name == "hurwitz":
        ref = mp.zeta(p["s"], p["x"])
    elif name == "harmonic":
        ref = mp.harmonic(p["n"])
    elif name == "frac-limit-cdf":
        ref = mp.digamma(p["t"] + 1) + mp.euler
    elif name == "frac-limit-density":
        ref = mp.psi(1, p["t"] + 1)
    elif name == "frac-limit-series":
        t, k_max = mp.mpf(p["t"]), p["k_max"]
        ref = mp.fsum((-1) ** (k + 1) * mp.zeta(k + 1) * t**k for k in range(1, k_max + 1))
        bound = mp.zeta(k_max + 2) * t ** (k_max + 1)
        limit = mp.digamma(t + 1) + mp.euler
        return _first(
            # a subnormal bound is only good to the spacing of floats there
            _off(res["truncation_bound"], bound,
                 max(1e-9 * float(bound), math.ulp(float(bound)))),
            _off(res["value"], limit, float(bound) * (1 + 1e-9) + SPECIAL_RTOL),
            _off(res["value"], ref, SPECIAL_RTOL * max(1.0, abs(float(ref)))))
    else:
        return f"no oracle for special {name!r}"
    return _off(res["value"], ref, SPECIAL_RTOL * max(1.0, abs(float(ref))))


# ---------------------------------------------------------------------------
# library step integrals
# ---------------------------------------------------------------------------

def check_step(lib: str, p: dict, res: dict) -> str | None:
    points, f = step_inputs(lib, p)
    if lib == "pushforward":
        n = p["n"]
        images = [(n % i) / i for i in range(1, n + 1)]
        ref = math.fsum(f(y) for y in images) / n
        if res["atoms"] != len(set(images)):
            return f"{res['atoms']} image atoms, brute force folds to {len(set(images))}"
        return _off(res["value"], ref, STEP_TOL)
    if lib == "integrate_step":
        ref = math.fsum(math.sin(x) for x in points.tolist()) / len(points)
        return _off(res["value"], ref, STEP_TOL)
    if lib == "charfn":
        worst = 0.0
        for t in p["t_list"]:
            re = math.fsum(np.cos(t * points).tolist()) / len(points)
            im = math.fsum(np.sin(t * points).tolist()) / len(points)
            worst = max(worst, abs(complex(re, im) - uniform_charfn(t)))
        return _off(res["value"], worst, STEP_TOL)
    return f"no oracle for library op {lib!r}"


def check(op: dict, outcome: dict) -> str | None:
    """None if the op ran and its output matches the oracle, else why not."""
    if outcome["rc"] != 0 or outcome["result"] is None:
        return outcome["error"] or f"exit {outcome['rc']}"
    p, res = op["params"], outcome["result"]
    try:
        if "lib" in op:
            return check_step(op["lib"], p, res)
        command = op["argv"][0]
        if command == "solve":
            return check_solve(p, res)
        if command == "sweep":
            return check_sweep(p, res)
        if command == "integrate":
            return check_integrate(p, res)
        return check_special(p, res)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report does not have the expected shape: {exc!r}"

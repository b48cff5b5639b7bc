"""Seeded op lists for the benchmark workloads.

An op is a plain JSON-able dict:

* ``id`` -- position in the run's op list;
* ``kind`` -- the op's label, the same for every pass (``solve example1 sin``);
* ``argv`` -- the arguments handed to ``asymptolim.cli.main``, or ``lib`` --
  the name of a library step-integral op run by ``worker.run_lib``;
* ``params`` -- the drawn values, which the oracles read.  ``argv`` is built
  from ``params`` and carries every float as its ``repr``, so the program
  parses back the very value the oracle uses;
* ``indices`` -- the op's index count n (every n of a sweep; the atom count of
  a step integral; 0 for ``integrate`` and ``special``).

A run is a number of passes over a fixed list of op kinds.  Every pass has the
same kinds in the same proportions; only continuous parameters are drawn.  The
j-th draw of a kind is the j-th point of a randomly shifted R-sequence
(Roberts' additive recurrence with the generalised golden ratio), so a few
passes already cover each parameter's range evenly and a run's total work
varies little from seed to seed, while no two ops are identical.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction

import numpy as np

WORKLOADS = ("solve-1t", "sweep", "integrate")

# Untraced seconds per pass on the reference machine (README.md).  A run makes
# round(seconds / NOMINAL_PASS_S) passes, so its op count, and with it the
# percentile that op_p90_ms can support, is fixed by --seconds.
NOMINAL_PASS_S = {"solve-1t": 5.1, "sweep": 5.5, "integrate": 0.59}

SOLVE_N = 10**7
SOLVE_N_SPREAD = 10**5
POLY_N = 10**12
STEP_ATOMS = (10**3, 3 * 10**4)
FUNCS = ("sin", "cos", "poly")
PHIS = ("uniform", "sqrt", "root:3", "frac-limit", "arcsin")
PHI_SUPPORT = {"uniform": (0.0, 1.0), "sqrt": (0.0, 1.0), "root:3": (0.0, 1.0),
               "frac-limit": (0.0, 1.0), "arcsin": (-1.0, 1.0)}
SWEEP_DOMAIN = {"canonical-uniform": (0.0, 1.0), "example1": (0.0, 1.0),
                "example2": (-1.0, 1.0), "example3": (0.0, 1.0)}
SWEEP_GRID_POINTS = 15


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _rng(seed: int, *labels) -> np.random.Generator:
    return np.random.default_rng([seed] + [zlib.crc32(str(x).encode()) for x in labels])


def r_sequence(seed: int, kind: str, dim: int, count: int) -> np.ndarray:
    """``count`` points in [0, 1)^dim: a shifted R-sequence for one op kind."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = (1.0 / g) ** np.arange(1, dim + 1)
    shift = _rng(seed, "shift", kind).random(dim)
    return (shift + np.outer(np.arange(1, count + 1), alpha)) % 1.0


def _poly_spec(u) -> str:
    return "poly:" + ",".join(repr(float(2.0 * v - 1.0)) for v in u)


def _flag(name, value) -> str:
    # --name=value keeps argparse from reading a negative value as an option
    return f"--{name}={float(value)!r}" if isinstance(value, float) else f"--{name}={value}"


def _cli_op(kind, command, params, flags, indices=0, positional=()):
    argv = [command, *positional] + [_flag(k, v) for k, v in flags.items()]
    return {"kind": kind, "argv": argv, "params": params, "indices": int(indices)}


# ---------------------------------------------------------------------------
# solve-1t
# ---------------------------------------------------------------------------

def poly_count(coeffs, n: int) -> int:
    """Greatest i >= 1 with a*i^2 + b*i + c <= n, in exact rational arithmetic."""
    a, b, c = (Fraction(float(v)) for v in coeffs)
    i = max(1, math.isqrt(int(n / a)))
    while i > 1 and a * i * i + b * i + c > n:
        i -= 1
    while a * (i + 1) ** 2 + b * (i + 1) + c <= n:
        i += 1
    return i


def _solve_kinds(scale):
    def n_at(u):
        return max(100, int(SOLVE_N * scale) + int(u * SOLVE_N_SPREAD * scale))

    def op(kind, problem, params, flags=None, indices=None):
        n = params["n"]
        flags = dict(flags or params, threads=1)
        return _cli_op(kind, "solve", dict(params, problem=problem), flags,
                       n if indices is None else indices, (problem,))

    def example1(f):
        def make(u, j, rng):
            spec = _poly_spec(rng.random(3)) if f == "poly" else f
            return op(f"solve example1 {f}", "example1", {"n": n_at(u[0]), "f": spec})
        return f"example1-{f}", 1, make

    def example2(u, j, rng):
        lo, hi = sorted(float(v) for v in 2.0 * rng.random(2) - 1.0)
        return op("solve example2", "example2", {"n": n_at(u[0]), "lo": lo, "hi": hi})

    def example3(u, j, rng):
        return op("solve example3", "example3", {"n": n_at(u[0]), "t": 0.02 + 0.96 * rng.random()})

    def example4_id(u, j, rng):
        n = n_at(u[0])
        return op("solve example4 id", "example4", {"n": n, "f": None}, {"n": n})

    def example4_f(u, j, rng):
        f = FUNCS[j % len(FUNCS)]
        spec = _poly_spec(rng.random(3)) if f == "poly" else f
        return op("solve example4 f", "example4", {"n": n_at(u[0]), "f": spec})

    def dirichlet(u, j, rng):
        return op("solve dirichlet", "dirichlet", {"n": n_at(u[0])})

    def poly(u, j, rng):
        # N(n) ~ sqrt(n / a): the leading coefficient sets the op's index count
        n = max(10**4, int(POLY_N * scale * (1.0 + 0.01 * rng.random())))
        coeffs = (0.5 + 1.5 * float(u[0]), 2.0 * rng.random(), 2.0 * rng.random())
        norm_b = 0.5 + 1.5 * rng.random()
        f = ("sin", "cos", "id", "poly")[j % 4]
        spec = _poly_spec(rng.random(3)) if f == "poly" else f
        count = poly_count(coeffs, n)
        params = {"n": n, "poly_p": list(coeffs), "poly_b": norm_b, "f": spec, "count": count}
        flags = {"n": n, "poly-p": ",".join(repr(c) for c in coeffs), "poly-r": 2,
                 "poly-b": norm_b, "f": spec}
        return op("solve poly", "poly", params, flags, count)

    return [example1("sin"), example1("cos"), example1("poly"),
            ("example2", 1, example2), ("example3", 1, example3),
            ("example4-id", 1, example4_id), ("example4-f", 1, example4_f),
            ("dirichlet", 1, dirichlet), ("poly", 1, poly)]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_n_list(u, lo_exp: int, hi_exp: int, scale: float) -> list[int]:
    """Indices at half-decade anchors from 10**lo_exp to 10**hi_exp, each
    drawn within 5% of its anchor and inside [10**lo_exp, 10**hi_exp]."""
    anchors = np.arange(lo_exp, hi_exp + 0.25, 0.5)
    out: list[int] = []
    for k, e in enumerate(anchors):
        jitter = 1.0 + 0.05 * u[k] if k == 0 else 1.0 - 0.05 * u[k]
        n = max(2, int(round(10.0**e * jitter * scale)))
        out.append(max(n, out[-1] + 1) if out else n)
    return out


def _sweep_kinds(scale):
    def make_kind(problem, lo_exp, hi_exp):
        def make(u, j, rng):
            # the largest index sets the op's cost, so it takes the even draw
            jitter = rng.random(2 * (hi_exp - lo_exp) + 1)
            jitter[-1] = u[0]
            n_list = sweep_n_list(jitter, lo_exp, hi_exp, scale)
            lo, hi = SWEEP_DOMAIN[problem]
            grid = [float(v) for v in lo + (hi - lo) * (0.01 + 0.98 * np.sort(
                rng.random(SWEEP_GRID_POINTS)))]
            params = {"problem": problem, "n_list": n_list, "grid": grid}
            flags = {"n": ",".join(map(str, n_list)), "grid": ",".join(map(repr, grid))}
            return _cli_op(f"sweep {problem}", "sweep", params, flags, sum(n_list), (problem,))

        return f"sweep-{problem}", 1, make

    # three of each sweep to 1e6 per sweep to 1e7, which alone takes ~3 s
    return [(*make_kind("example3", 3, 6), 3), (*make_kind("example2", 3, 6), 3),
            (*make_kind("canonical-uniform", 3, 6), 3), (*make_kind("example1", 4, 7), 1)]


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def _integrate_kind(phi, f, method):
    def make(u, j, rng):
        lo, hi = PHI_SUPPORT[phi]
        width = hi - lo
        tol = 10.0 ** (-13.0 + 4.0 * float(u[0]))
        # half the draws keep each end of the window on the support's edge,
        # where the sqrt, root:3 and arcsin densities are singular.  The
        # density method misses --tol on the root:3 and arcsin singularities
        # (known_defect_ops), so its windows there stay 1e-3 of the width
        # or more inside the support.
        inside = method == "density" and phi in ("root:3", "arcsin")

        def inset(v):
            v = float(v)
            return width * (0.001 + 0.399 * v if inside else 0.4 * max(0.0, 2.0 * v - 1.0))

        lower, upper = lo + inset(u[1]), hi - inset(u[2])
        spec = _poly_spec(rng.random(3)) if f == "poly" else f
        params = {"f": spec, "phi": phi, "method": method, "tol": tol,
                  "lower": lower, "upper": upper}
        return _cli_op(f"integrate {method}", "integrate", params, params)

    return f"integrate-{phi}-{f}-{method}", 3, make


def known_defect_ops() -> list[dict]:
    """Fixed integrate ops on a defect of the program: with the density
    method, a window that ends on the point where the arcsin or root:3 density
    is unbounded gives a value off by more than --tol, while the error
    estimate it reports is below --tol.  The workload's draws keep off those
    points, so that its runs can be correct; run.py runs these ops, untimed,
    on every integrate run and lists each one that is still wrong."""
    cases = [("cos", "arcsin", 1e-10, -1.0, 1.0), ("id", "arcsin", 1e-11, -1.0, 0.58),
             ("cos", "root:3", 9.3709442554331e-10, 0.0, 1.0)]
    ops = []
    for i, (f, phi, tol, lower, upper) in enumerate(cases):
        params = {"f": f, "phi": phi, "method": "density", "tol": tol,
                  "lower": lower, "upper": upper}
        ops.append(dict(_cli_op("known defect", "integrate", params, params), id=i))
    return ops


def _special_kind(name):
    def log_uniform(v, lo, hi):
        return float(lo * (hi / lo) ** float(v))

    def make(u, j, rng):
        if name in ("digamma", "trigamma"):
            params = {"x": log_uniform(u[0], 1e-6, 1e6)}
        elif name == "hurwitz":
            params = {"s": log_uniform(u[0], 1.05, 12.0), "x": log_uniform(rng.random(), 1e-3, 1e3)}
        elif name == "harmonic":
            params = {"n": int(log_uniform(u[0], 1.0, 2e4))}
        elif name == "frac-limit-series":
            params = {"t": 0.9 * float(u[0]) + 1e-3, "k_max": int(rng.integers(20, 121))}
        else:
            params = {"t": 0.001 + 0.998 * float(u[0])}
        flags = {k.replace("_", "-"): v for k, v in params.items()}
        return _cli_op(f"special {name}", "special", dict(params, function=name), flags,
                       positional=(name,))

    return f"special-{name}", 1, make


def _step_kind(lib, scale):
    def make(u, j, rng):
        lo, hi = STEP_ATOMS
        n = max(10, int(lo * (hi / lo) ** float(u[0]) * scale))
        params = {"n": n, "array_seed": int(rng.integers(2**31)), "f": ("id", "sin", "poly")[j % 3],
                  "coeffs": [float(v) for v in 2.0 * rng.random(3) - 1.0],
                  "t_list": [float(v) for v in 0.5 + 19.5 * rng.random(5)]}
        return {"kind": f"step {lib}", "lib": lib, "params": params, "indices": n}

    return f"step-{lib}", 1, make


def _integrate_kinds(scale):
    """One pass: 60 integrate (45%), 47 special (35%) and 27 step-integral
    (20%) ops."""
    kinds = [(*_integrate_kind(phi, f, m), 1)
             for phi in PHIS for f in ("sin", "cos", "id", "poly")
             for m in ("density", "parts", "oracle")]
    kinds += [(*_special_kind(name), reps) for name, reps in (
        ("digamma", 12), ("trigamma", 12), ("hurwitz", 8), ("harmonic", 4),
        ("frac-limit-cdf", 4), ("frac-limit-density", 4), ("frac-limit-series", 3))]
    kinds += [(*_step_kind(lib, scale), 9) for lib in ("pushforward", "integrate_step", "charfn")]
    return kinds


# ---------------------------------------------------------------------------

def build_ops(workload: str, seed: int, passes: int, scale: float = 1.0) -> list[dict]:
    """The op list of ``passes`` passes of a workload, drawn from ``seed``.

    A kind is ``(name, dim, make, reps)``: ``make(u, j, rng)`` builds the
    kind's j-th op from ``u``, the j-th point of the kind's R-sequence in
    [0, 1)^dim (the parameters that set the op's cost), and ``rng``, a
    generator of its own for the remaining parameters."""
    if workload == "solve-1t":
        kinds = [(*k, 1) for k in _solve_kinds(scale)]
    elif workload == "sweep":
        kinds = _sweep_kinds(scale)
    elif workload == "integrate":
        kinds = _integrate_kinds(scale)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    draws = {name: r_sequence(seed, name, dim, passes * reps) for name, dim, _, reps in kinds}
    ops: list[dict] = []
    for j in range(passes):
        batch = []
        for name, _, make, reps in kinds:
            for r in range(reps):
                k = j * reps + r
                batch.append(make(draws[name][k], k, _rng(seed, "op", name, k)))
        if workload == "integrate":
            order = _rng(seed, "order", j).permutation(len(batch))
            batch = [batch[i] for i in order]
        ops.extend(batch)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def setup_op(workload: str, seed: int) -> list[str]:
    """argv of the small first op whose cost, with the import, is setup_s."""
    u = float(_rng(seed, "setup").random())
    if workload == "solve-1t":
        return ["solve", "example1", f"--n={1000 + int(1000 * u)}", "--f=sin"]
    if workload == "sweep":
        return ["sweep", "example3", f"--n={100 + int(100 * u)},{1000 + int(1000 * u)}"]
    return ["integrate", "--f=sin", "--phi=uniform", f"--tol={1e-10 * (1 + u)!r}"]


def step_inputs(lib: str, params: dict):
    """Points and scalar callback of a library step-integral op, shared by the
    worker, which times the library on them, and by the oracle."""
    n = params["n"]
    c0, c1, c2 = params["coeffs"]
    f = {"id": lambda y: y, "sin": math.sin,
         "poly": lambda y: c0 + y * (c1 + y * c2)}[params["f"]]
    if lib == "pushforward":
        return np.arange(1, n + 1, dtype=np.float64) / n, f
    u = np.random.default_rng(params["array_seed"]).random(n)
    if lib == "integrate_step":
        # quantised to 2**-12 so that duplicate points fold in from_points
        return np.floor(u * 4096.0) / 4096.0, f
    return u, f


def uniform_charfn(t: float) -> complex:
    """Characteristic function of the uniform law on [0, 1]."""
    return (complex(math.cos(t), math.sin(t)) - 1.0) / complex(0.0, t)

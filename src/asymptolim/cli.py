"""Command-line frontend.

Subcommands: ``solve`` runs a named problem at one index, ``sweep`` (alias
``probe``) drives the CDF convergence probe across an index list,
``integrate`` evaluates Stieltjes integrals against named CDFs, and
``special`` evaluates the special-function kernel.  Reports are JSON or CSV,
echo the full configuration, and are byte-identical for identical
configurations except for the timestamp field.

Each accepted name lives in one table: sweep problems in
``problems.PROBLEMS``, the rest below.  Entries call library functions
through module globals, so rebinding a function on its module takes effect.

Exit codes: 0 success, 2 validation error, 3 numerical failure (including
arithmetic overflow and non-finite results).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .accum import MAX_THREADS
from .convergence import DEFAULT_GRID, cdf_sequence_probe
from .problems import (
    PROBLEMS,
    Analytic,
    PolySpec,
    _horner,
    _poly_eval,
    _poly_part,
    _trig_part,
    arcsin_cdf,
    dirichlet_weak,
    frac_limit_smooth_cdf,
    frac_n_over_i_cdf,
    frac_n_over_i_mean,
    interval_proportion_sin,
    polynomial_family,
    root_cdf,
    sequence_average,
    uniform_cdf,
)
from .special import (
    SeriesValue,
    digamma,
    frac_limit_cdf,
    frac_limit_cdf_series,
    frac_limit_density,
    harmonic,
    hurwitz_zeta,
    trigamma,
)
from .stieltjes import (
    HyperBox,
    QuadratureError,
    VariationError,
    integrate_by_parts,
    integrate_smooth,
    riemann_stieltjes_oracle,
)

SCHEMA_VERSION = 1
THREADS_ENV = "ASYMPTOLIM_THREADS"

# Most grid values a start:stop:step range may expand to.
MAX_GRID = 10_000


class CliError(ValueError):
    """Invalid configuration or arguments (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Normalized run configuration; echoed verbatim into every report."""

    command: str
    problem: Optional[str] = None
    n: Optional[int] = None
    n_list: Optional[tuple[int, ...]] = None
    grid: Optional[tuple[float, ...]] = None
    f: Optional[str] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    t: Optional[float] = None
    x: Optional[float] = None
    s: Optional[float] = None
    k_max: Optional[int] = None
    poly_p: Optional[tuple[float, ...]] = None
    poly_r: Optional[int] = None
    poly_b: Optional[float] = None
    phi: Optional[str] = None
    lower: Optional[float] = None
    upper: Optional[float] = None
    method: Optional[str] = None
    levels: Optional[int] = None
    tolerance: float = 1e-9
    output_format: str = "json"
    output_path: Optional[str] = None
    threads: int = 1

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        hints = get_type_hints(cls)
        kwargs: dict = {}
        for key, value in data.items():
            if key not in hints:
                raise CliError(f"unknown config field {key!r}")
            kwargs[key] = None if value is None else _coerce(hints[key], value)
        return cls(**kwargs)


def _coerce(hint, value):
    """Convert a JSON or CSV config value to the annotated field type; CSV
    renders tuples as ``;``-separated text."""
    kind = get_args(hint)[0] if get_origin(hint) is Union else hint
    if get_origin(kind) is tuple:
        if isinstance(value, str):
            value = value.split(";")
        return tuple(get_args(kind)[0](v) for v in value)
    return kind(value)


# ---------------------------------------------------------------------------
# Named callbacks and CDFs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedFunction:
    """A named callback and its derivative; calling it calls ``fn``.  Where
    example1's mean of f has a route by rows, example4's one by quotient
    blocks and the polynomial family's one by P's monotone runs,
    ``analytic`` holds what they need (``problems.Analytic``), built by
    ``make_analytic`` on first use, as no other command needs it; where it
    is None all three stream."""

    fn: Callable
    derivative: Callable
    make_analytic: Callable[[], Optional[Analytic]] = lambda: None

    @functools.cached_property
    def analytic(self) -> Optional[Analytic]:
        return self.make_analytic()

    def __call__(self, t):
        return self.fn(t)


def _polynomial(c: Sequence[float]) -> Callable:
    """t -> ``np.polynomial.polynomial.polyval(t, c)``, bit for bit, by one
    Horner rule on the float64 coefficients, in a tuple, which a quadrature's
    scalar calls iterate faster than an array: ``problems._horner`` for a 1-D
    float64 array, in one new array, ``problems._poly_eval`` otherwise."""
    descending = tuple(np.asarray(c, dtype=np.float64)[::-1])

    def p(t):
        if isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == np.float64:
            return _horner(descending, t, np.empty(t.shape))
        return _poly_eval(descending, t)

    return p


# name -> (callback, derivative, maker of the analytic part)
_FUNCTIONS = {
    "sin": (np.sin, np.cos, lambda: _trig_part(0)),
    "cos": (np.cos, lambda t: -np.sin(t), lambda: _trig_part(1)),
    "id": (lambda t: t, _polynomial((1.0,)), lambda: _poly_part((0.0, 1.0))),
    "const1": (_polynomial((1.0,)), _polynomial((0.0,)), lambda: _poly_part((1.0,))),
}


def resolve_function(name: str) -> NamedFunction:
    """Look up a callback by registry name.

    Known names: ``sin``, ``cos``, ``id``, ``const1`` and
    ``poly:c0,c1,...`` (ascending coefficients).
    """
    if name in _FUNCTIONS:
        return NamedFunction(*_FUNCTIONS[name])
    if name.startswith("poly:"):
        try:
            coeffs = [float(c) for c in name[len("poly:") :].split(",")]
        except ValueError as exc:
            raise CliError(f"bad polynomial spec {name!r}") from exc
        dc = np.asarray(coeffs[1:]) * np.arange(1, len(coeffs))
        return NamedFunction(_polynomial(coeffs), _polynomial(dc if dc.size else (0.0,)),
                             functools.partial(_poly_part, coeffs))
    raise CliError(f"unknown function {name!r}")


# name -> limit CDF; ``root:q`` is parsed by resolve_cdf
CDFS = {
    "uniform": lambda: uniform_cdf(),
    "sqrt": lambda: root_cdf(2),
    "frac-limit": lambda: frac_limit_smooth_cdf(),
    "arcsin": lambda: arcsin_cdf(),
}


def resolve_cdf(name: str):
    if name.startswith("root:"):
        try:
            return root_cdf(int(name[len("root:") :]))
        except ValueError as exc:
            raise CliError(f"bad root spec {name!r}") from exc
    return _lookup(CDFS, name, "unknown cdf {!r}")()


def _lookup(table: dict, key, message: str):
    """``table[key]``, or a CliError with ``message`` formatted on the key."""
    if key not in table:
        raise CliError(message.format(key))
    return table[key]


def _default(value, fallback):
    return fallback if value is None else value


def _require(value, flag: str):
    if value is None:
        raise CliError(f"{flag} is required here")
    return value


# ---------------------------------------------------------------------------
# Problem tables
# ---------------------------------------------------------------------------

def _poly_spec(c: RunConfig) -> PolySpec:
    coeffs = _default(c.poly_p, (1.0, 0.0, 0.0))
    return PolySpec(
        coeffs,
        _default(c.poly_r, len(coeffs) - 1),
        _default(c.poly_b, 1.0),
        resolve_function(c.f or "id"),
    )


# problem -> solver call with the CLI defaults
SOLVE = {
    "example1": lambda c: sequence_average(
        c.n, resolve_function(c.f or "sin"), threads=c.threads, tol=c.tolerance
    ),
    "example2": lambda c: interval_proportion_sin(
        c.n, _default(c.lo, -0.5), _default(c.hi, 0.5), threads=c.threads
    ),
    "example3": lambda c: frac_n_over_i_cdf(c.n, _default(c.t, 0.5), threads=c.threads),
    "example4": lambda c: frac_n_over_i_mean(
        c.n, resolve_function(c.f) if c.f else None, threads=c.threads, tol=c.tolerance
    ),
    "dirichlet": lambda c: dirichlet_weak(c.n, threads=c.threads),
    "poly": lambda c: polynomial_family(_poly_spec(c), c.n, threads=c.threads, tol=c.tolerance),
}

# name -> special-function call; a float or a SeriesValue
SPECIAL = {
    "digamma": lambda c: digamma(_require(c.x, "--x")),
    "trigamma": lambda c: trigamma(_require(c.x, "--x")),
    "hurwitz": lambda c: hurwitz_zeta(_require(c.s, "--s"), _require(c.x, "--x")),
    "harmonic": lambda c: harmonic(_require(c.n, "--n")),
    "frac-limit-cdf": lambda c: frac_limit_cdf(_require(c.t, "--t")),
    "frac-limit-density": lambda c: frac_limit_density(_require(c.t, "--t")),
    "frac-limit-series": lambda c: frac_limit_cdf_series(
        _require(c.t, "--t"), _default(c.k_max, 80)
    ),
}

# method -> (f, phi, lower, upper, config) -> QuadratureResult or oracle sums
INTEGRATE = {
    "density": lambda f, phi, a, b, c: integrate_smooth(
        f.fn, phi, HyperBox(a, b), tol=c.tolerance
    ),
    "parts": lambda f, phi, a, b, c: integrate_by_parts(
        f.fn, f.derivative, phi.value, (a, b), tol=c.tolerance
    ),
    "oracle": lambda f, phi, a, b, c: riemann_stieltjes_oracle(
        f.fn, phi.value, (a, b), levels=_default(c.levels, 12)
    ),
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _real(text: str) -> float:
    """argparse type of the float options: a NaN would pass every range check."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymptolim",
        description="Solvers, convergence probes, Stieltjes integrals and "
        "special functions for asymptotic limit problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every dest is a RunConfig field name
    def add_common(p):
        p.add_argument("--tol", type=_real, default=1e-9, dest="tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        p.add_argument("--output", default=None, dest="output_path", metavar="OUTPUT",
                       help="output file (default stdout)")
        p.add_argument("--threads", type=int, default=None)

    p_solve = sub.add_parser("solve", help="run one problem at a single index")
    p_solve.add_argument("problem", choices=tuple(SOLVE))
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--f", default=None, help="callback name (sin, cos, id, const1, poly:c0,c1,...)")
    p_solve.add_argument("--lo", type=_real, default=None)
    p_solve.add_argument("--hi", type=_real, default=None)
    p_solve.add_argument("--t", type=_real, default=None)
    p_solve.add_argument("--poly-p", default=None, help="coefficients of P, descending, comma separated")
    p_solve.add_argument("--poly-r", type=int, default=None)
    p_solve.add_argument("--poly-b", type=_real, default=None)
    add_common(p_solve)

    p_sweep = sub.add_parser(
        "sweep", aliases=["probe"], help="CDF convergence probe across an index list"
    )
    p_sweep.add_argument("problem", choices=tuple(PROBLEMS))
    p_sweep.add_argument("--n", required=True, dest="n_list", metavar="N",
                         help="comma-separated increasing indices")
    p_sweep.add_argument("--grid", default=None,
                         help="t1,t2,... or start:stop:step; a list that starts with a "
                              "negative value needs the = form, --grid=-0.9,0.5")
    add_common(p_sweep)

    p_int = sub.add_parser("integrate", help="Stieltjes integral of f against a named CDF")
    p_int.add_argument("--f", required=True)
    p_int.add_argument("--phi", required=True, help="uniform, sqrt, root:q, frac-limit, arcsin")
    p_int.add_argument("--lower", type=_real, default=None)
    p_int.add_argument("--upper", type=_real, default=None)
    p_int.add_argument("--method", choices=tuple(INTEGRATE), default="density")
    p_int.add_argument("--levels", type=int, default=12)
    add_common(p_int)

    p_special = sub.add_parser("special", help="evaluate a special function")
    p_special.add_argument("problem", choices=tuple(SPECIAL))
    p_special.add_argument("--x", type=_real, default=None)
    p_special.add_argument("--s", type=_real, default=None)
    p_special.add_argument("--t", type=_real, default=None)
    p_special.add_argument("--n", type=int, default=None)
    p_special.add_argument("--k-max", type=int, default=None)
    add_common(p_special)

    return parser


def _parse_poly_p(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(c) for c in text.split(","))
    except ValueError as exc:
        raise CliError("bad --poly-p coefficient list") from exc


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        n_list = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise CliError("bad --n index list") from exc
    if not n_list:
        raise CliError("--n must list at least one index")
    return n_list


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError("grid range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise CliError("grid range needs stop >= start and step > 0")
        # floor(span) + 1 values; a NaN or infinite span fails the bound too
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID:
            raise CliError(f"grid range must have at most {MAX_GRID} values")
        return tuple(start + j * step for j in range(int(span) + 1))
    pts = tuple(float(p) for p in text.split(",") if p.strip())
    if not pts:
        raise CliError("grid must not be empty")
    return pts


# RunConfig fields given as text on the command line, parsed in this order
_TEXT_FIELDS = {"poly_p": _parse_poly_p, "n_list": _parse_n_list, "grid": _parse_grid}


def _resolve_threads(explicit: Optional[int]) -> int:
    if explicit is None:
        env = os.environ.get(THREADS_ENV)
        if env is None:
            return 1
        try:
            explicit = int(env)
        except ValueError as exc:
            raise CliError(f"{THREADS_ENV} must be an integer") from exc
    if not 1 <= explicit <= MAX_THREADS:
        raise CliError(f"threads must be in 1..{MAX_THREADS}")
    return explicit


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    values["command"] = "sweep" if args.command == "probe" else args.command
    values["threads"] = _resolve_threads(args.threads)
    if values["tolerance"] <= 0:
        raise CliError("tolerance must be positive")
    for key, parse in _TEXT_FIELDS.items():
        if values.get(key) is not None:
            values[key] = parse(values[key])
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _run_solve(config: RunConfig) -> dict:
    _require(config.n, "--n")
    return dict(vars(_lookup(SOLVE, config.problem, "unknown solve problem {!r}")(config)))


def _run_sweep(config: RunConfig) -> dict:
    problem = _lookup(PROBLEMS, config.problem, "problem {!r} does not support sweep")
    n_list = _require(config.n_list, "--n")
    # the grid domain is the limit CDF's support
    phi = problem.limit()
    domain = (phi.support.lower[0], phi.support.upper[0])
    fallback = DEFAULT_GRID if domain == (0.0, 1.0) else tuple(-0.9 + 0.1 * j for j in range(19))
    grid = _default(config.grid, fallback)
    if any(not (domain[0] < t < domain[1]) for t in grid):
        raise CliError(f"grid must lie strictly inside {domain}")
    report = cdf_sequence_probe(problem, phi, grid=grid, n_list=n_list, threads=config.threads)
    return dict(vars(report))


def _run_integrate(config: RunConfig) -> dict:
    named = resolve_function(_require(config.f, "--f"))
    phi = resolve_cdf(_require(config.phi, "--phi"))
    lower = _default(config.lower, phi.support.lower[0])
    upper = _default(config.upper, phi.support.upper[0])
    if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
        raise CliError("need finite --lower <= --upper")
    method = _lookup(INTEGRATE, config.method or "density", "unknown method {!r}")
    res = method(named, phi, lower, upper, config)
    if isinstance(res, list):
        return {"levels": [float(s) for s in res], "value": float(res[-1])}
    return {"value": float(res.value), "error_estimate": float(res.error)}


def _run_special(config: RunConfig) -> dict:
    res = _lookup(SPECIAL, config.problem, "unknown special function {!r}")(config)
    values = res._asdict() if isinstance(res, SeriesValue) else {"value": res}
    return {key: float(v) for key, v in values.items()}


COMMANDS = {
    "solve": _run_solve,
    "sweep": _run_sweep,
    "integrate": _run_integrate,
    "special": _run_special,
}


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def execute(config: RunConfig) -> dict:
    """Run the configured command and assemble the full report; a
    non-finite result field raises FloatingPointError (exit code 3)."""
    result = _lookup(COMMANDS, config.command, "unknown command {!r}")(config)
    for key, value in result.items():
        if not _finite(value):
            raise FloatingPointError(f"non-finite value in result field {key!r}")
    return {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "result": result,
    }


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def render_report(report: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output_format == "csv":
        return _render_csv(report)
    raise CliError(f"unknown output format {output_format!r}")


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerow(("schema", _fmt(report["schema"])))
    writer.writerow(("version", report["version"]))
    writer.writerow(("timestamp", report["timestamp"]))
    for key in sorted(report["config"]):
        writer.writerow((f"config.{key}", _fmt(report["config"][key])))
    result = report["result"]
    if report["config"]["command"] == "sweep":
        for key in ("grid", "target_values", "sup_errors", "monotone_decay", "excluded"):
            writer.writerow((f"result.{key}", _fmt(result[key])))
        writer.writerow(())
        writer.writerow(
            ["n"] + [f"phi@{_fmt(t)}" for t in result["grid"]] + ["sup_error"]
        )
        for n, row, sup in zip(
            result["n_list"], result["cdf_values"], result["sup_errors"]
        ):
            writer.writerow([_fmt(n)] + [_fmt(v) for v in row] + [_fmt(sup)])
    else:
        for key in sorted(result):
            writer.writerow((f"result.{key}", _fmt(result[key])))
    return buf.getvalue()


def parse_config_from_report(text: str, output_format: str) -> RunConfig:
    """Recover the echoed RunConfig from a rendered report."""
    if output_format == "json":
        return RunConfig.from_dict(json.loads(text)["config"])
    raw: dict = {}
    for row in csv.reader(io.StringIO(text)):
        if len(row) == 2 and row[0].startswith("config."):
            raw[row[0][len("config.") :]] = row[1]
    return RunConfig.from_dict(raw)


def write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output to {path!r}: {exc}") from exc


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, as argparse keeps
    no state from one parse to the next."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = config_from_args(args)
        # fsum and execute's check already exit 3 on what numpy would warn of
        with np.errstate(all="ignore"):
            report = execute(config)
        text = render_report(report, config.output_format)
        write_output(text, config.output_path)
    except (QuadratureError, VariationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

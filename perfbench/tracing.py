"""Spans and counters around the calls into each asymptolim module.

``Tracer.install()`` replaces the traced library functions with wrappers.  A
name bound by ``from .accum import fsum_array`` is a copy of the binding, so
every ``asymptolim`` module that holds the original function gets the wrapper,
not only the module that defines it.

A span is ``(id, name, start, end, parent id, op id)``.  Each thread keeps its
own span stack, records and counters; a chunk kernel that ``_map_ordered``
runs on a pool thread takes the calling ``map_reduce_*`` span as its parent.
Spans stay in memory until ``save()`` writes them out at the end of the run.

A span's self time is its duration minus the part of it that its child spans
cover; children on different threads may overlap, so their union is taken.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter

import numpy as np

SPECIAL = ("digamma", "trigamma", "hurwitz_zeta", "harmonic", "frac_limit_cdf",
           "frac_limit_density", "frac_limit_cdf_series")
SOLVERS = ("sequence_average", "interval_proportion_sin", "frac_n_over_i_cdf",
           "frac_n_over_i_mean", "dirichlet_weak", "polynomial_family", "sqrt_frac_cdf")

# span name -> layer whose self time it adds to
LAYER = {
    "problems._sqrt_frac_chunk": "problems.generate_s",
    "problems._remainder_chunk": "problems.generate_s",
    **{f"problems.{name}": "problems.solve_s" for name in SOLVERS},
    "accum.fsum_array": "accum.fsum_s",
    "accum.apply_to_array": "accum.apply_s",
    "accum.map_reduce_fsum": "accum.map_reduce_s",
    "accum.map_reduce_int": "accum.map_reduce_s",
    "accum.chunk": "accum.map_reduce_s",
    "accum.anchored_cumsum": "accum.cumsum_s",
    "measure.from_points": "measure.from_points_s",
    "measure.pushforward": "measure.eval_s",
    "measure.expectation": "measure.eval_s",
    "stieltjes.adaptive_quadrature": "stieltjes.quad_s",
    "stieltjes.integrate_smooth": "stieltjes.quad_s",
    "stieltjes.integrate_by_parts": "stieltjes.quad_s",
    "stieltjes.StepCdf.__init__": "stieltjes.stepcdf_s",
    "stieltjes.StepCdf.__call__": "stieltjes.stepcdf_s",
    "stieltjes.riemann_stieltjes_oracle": "stieltjes.oracle_s",
    "stieltjes.integrate_step": "stieltjes.step_integral_s",
    **{f"special.{name}": "special.s" for name in SPECIAL},
    "convergence.cdf_sequence_probe": "convergence.probe_s",
    "convergence.charfn_compare": "convergence.charfn_s",
    "convergence.empirical_charfn": "convergence.charfn_s",
    # cli.main's self time excludes cli.execute: parser build, parse, render
    "cli.main": "cli.self_s",
    "cli.execute": None,
}

COUNTS = ("problems.points", "accum.fsum_values", "accum.apply_values", "accum.chunks",
          "measure.atoms_in", "measure.atoms_out", "stieltjes.quad_calls",
          "stieltjes.quad_evals", "special.calls", "cli.ops")

LAYER_TIMES = tuple(dict.fromkeys(v for v in LAYER.values() if v))


def _points(args, kwargs, result):
    return (("problems.points", args[-1] - args[-2]),)


def _sized(key, index):
    """Count the values in positional argument ``index``."""
    def count(args, kwargs, result):
        values = args[index]
        if isinstance(values, np.ndarray):
            return ((key, values.size),)
        return ((key, len(values)),) if hasattr(values, "__len__") else ()
    return count


def _atoms(args, kwargs, result):
    return (("measure.atoms_in", result.source_count), ("measure.atoms_out", len(result)))


def _one(key):
    pair = ((key, 1),)
    return lambda args, kwargs, result: pair


# (module, attribute, counter) for every traced function
TARGETS = (
    [("problems", "_sqrt_frac_chunk", _points), ("problems", "_remainder_chunk", _points)]
    + [("problems", name, None) for name in SOLVERS]
    + [("accum", "fsum_array", _sized("accum.fsum_values", 0)),
       ("accum", "apply_to_array", _sized("accum.apply_values", 1)),
       ("accum", "map_reduce_fsum", None), ("accum", "map_reduce_int", None),
       ("accum", "anchored_cumsum", None),
       ("measure", "from_points", _atoms), ("measure", "pushforward", None),
       ("measure", "expectation", None),
       ("stieltjes", "integrate_smooth", None), ("stieltjes", "integrate_by_parts", None),
       ("stieltjes", "riemann_stieltjes_oracle", None), ("stieltjes", "integrate_step", None),
       ("convergence", "cdf_sequence_probe", None), ("convergence", "charfn_compare", None),
       ("convergence", "empirical_charfn", None),
       ("cli", "main", _one("cli.ops")), ("cli", "execute", None)]
    + [("special", name, _one("special.calls")) for name in SPECIAL]
)


class Tracer:
    def __init__(self):
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, list, Counter]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], Counter())  # span stack, finished spans, counts
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name, fn, count=None, parent=None):
        """``fn`` recording a span per call; ``parent`` fixes the parent span
        (for calls that run on another thread than their caller)."""
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, counts = self._state()
            sid = next(ids)
            up = parent if parent is not None else (stack[-1] if stack else -1)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, up, self.op_id))
            if count is not None:
                for key, value in count(args, kwargs, result):
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every ``asymptolim`` module."""
        import asymptolim
        from asymptolim import accum, stieltjes

        modules = [m for name, m in sys.modules.items()
                   if name == "asymptolim" or name.startswith("asymptolim.")]
        for mod_name, attr, count in TARGETS:
            original = getattr(getattr(asymptolim, mod_name), attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        map_ordered = accum._map_ordered

        def traced_map_ordered(kernel, ranges, threads):
            stack, _, _ = self._state()
            chunk = self.wrap("accum.chunk", kernel, _one("accum.chunks"),
                              parent=stack[-1] if stack else -1)
            return map_ordered(chunk, ranges, threads)

        accum._map_ordered = traced_map_ordered

        quadrature = stieltjes.adaptive_quadrature

        def counted_quadrature(g, *args, **kwargs):
            evals = [0]

            def counted_g(x):
                evals[0] += 1
                return g(x)

            try:
                return quadrature(counted_g, *args, **kwargs)
            finally:
                counts = self._state()[2]
                counts["stieltjes.quad_calls"] += 1
                counts["stieltjes.quad_evals"] += evals[0]

        stieltjes.adaptive_quadrature = self.wrap("stieltjes.adaptive_quadrature",
                                                  counted_quadrature)
        for method in ("__init__", "__call__"):
            setattr(stieltjes.StepCdf, method,
                    self.wrap(f"stieltjes.StepCdf.{method}", getattr(stieltjes.StepCdf, method)))

    def spans(self) -> dict:
        """All finished spans as arrays, with the index of their thread."""
        rows = [(*span, tid) for tid, (_, spans, _) in enumerate(self._threads) for span in spans]
        names = sorted({r[1] for r in rows})
        code = {name: i for i, name in enumerate(names)}
        return {
            "names": np.array(names),
            "id": np.array([r[0] for r in rows], dtype=np.int64),
            "name": np.array([code[r[1]] for r in rows], dtype=np.int32),
            "start": np.array([r[2] for r in rows]),
            "end": np.array([r[3] for r in rows]),
            "parent": np.array([r[4] for r in rows], dtype=np.int64),
            "op": np.array([r[5] for r in rows], dtype=np.int64),
            "thread": np.array([r[6] for r in rows], dtype=np.int32),
        }

    def counts(self) -> Counter:
        total: Counter = Counter()
        for _, _, counts in self._threads:
            total.update(counts)
        return total

    def save(self, path) -> None:
        np.savez_compressed(path, **self.spans())


def self_times(spans: dict) -> np.ndarray:
    """Self time of every span: its duration minus the union of its children."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    n = start.size
    if n == 0:
        return np.zeros(0)
    # ids are dense 0..n-1 once every span has ended; map them to rows anyway
    row = np.full(int(spans["id"].max()) + 1, -1, dtype=np.int64)
    row[spans["id"]] = np.arange(n)
    dur = end - start
    has_parent = parent >= 0
    prow = row[parent[has_parent]]
    covered = np.bincount(prow, weights=dur[has_parent], minlength=n)
    # children of one parent on two threads may overlap: take their union
    tid = spans["thread"][has_parent]
    lo = np.full(n, np.iinfo(np.int32).max)
    hi = np.full(n, -1)
    np.minimum.at(lo, prow, tid)
    np.maximum.at(hi, prow, tid)
    children = np.flatnonzero(has_parent)
    for p in np.flatnonzero((hi >= 0) & (lo != hi)):
        kids = children[prow == p]
        union, reach = 0.0, start[p]
        for s, e in sorted(zip(start[kids], end[kids])):
            s, e = max(s, reach), min(e, end[p])
            if e > s:
                union += e - s
                reach = e
        covered[p] = union
    return dur - covered


def layer_metrics(spans: dict, own: np.ndarray, counts: Counter | None = None,
                  keep: np.ndarray | None = None) -> dict:
    """Per-layer self seconds (over the spans where ``keep`` holds) and, when
    ``counts`` is given, the per-layer counts."""
    names = spans["names"]
    if keep is None:
        keep = np.ones(own.size, dtype=bool)
    by_name = np.bincount(spans["name"][keep], weights=own[keep], minlength=len(names))
    out = dict.fromkeys(LAYER_TIMES, 0.0)
    for name, seconds in zip(names, by_name):
        layer = LAYER[str(name)]
        if layer:
            out[layer] += float(seconds)
    if counts is not None:
        out.update({key: int(counts.get(key, 0)) for key in COUNTS})
    return out

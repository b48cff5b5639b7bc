"""Runs one workload's ops in a fresh interpreter and reports what they returned.

``run.py`` starts one worker per run, so that its peak resident set is the
high-water mark of this workload alone.  The worker reads a job from stdin:

    {"ops": [...], "warmup": [...], "trace": false, "rerun_threads2": [ids],
     "known_defects": [...], "spans_path": null}

runs the untimed warm-up ops, then the ops in order, one at a time (a closed
loop with one client), timing each.  With ``trace`` it runs the same ops a
second time with the tracer installed.  ``rerun_threads2`` names ops that are
run once more, untimed, with ``--threads=2``, the only path through the
library's thread pool.  ``known_defects`` are ops run once, untimed, after
the others (workloads.known_defect_ops).  The last stdout line is the
outcome as JSON.  The oracles live in ``run.py``'s process, so that neither
their time nor their memory shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import asymptolim  # noqa: E402
import asymptolim.cli  # noqa: E402
from workloads import step_inputs, uniform_charfn  # noqa: E402


def run_lib(lib: str, points: np.ndarray, f, params: dict) -> dict:
    """A library step-integral op, through the names the README documents."""
    al = asymptolim
    if lib == "pushforward":
        image = al.pushforward(al.from_points(points), al.problems.reciprocal_frac_map(params["n"]))
        return {"value": float(al.expectation(image, f)), "atoms": len(image)}
    if lib == "integrate_step":
        return {"value": float(al.integrate_step(np.sin, al.StepCdf(al.from_points(points))))}
    if lib == "charfn":
        return {"value": float(al.charfn_compare(al.from_points(points), uniform_charfn,
                                                 params["t_list"]))}
    raise ValueError(f"unknown library op {lib!r}")


def run_op(op: dict, argv=None) -> dict:
    """Run one op; only the library call itself is timed."""
    out = {"id": op["id"], "rc": None, "latency_s": None, "result": None, "error": None}
    if "lib" in op:
        points, f = step_inputs(op["lib"], op["params"])
        start = time.perf_counter()
        try:
            out["result"] = run_lib(op["lib"], points, f, op["params"])
            out["rc"] = 0
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out["error"] = f"raised {exc!r}"
        out["latency_s"] = time.perf_counter() - start
        return out
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            out["rc"] = asymptolim.cli.main(argv or op["argv"])
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out["error"] = f"raised {exc!r}"
        out["latency_s"] = time.perf_counter() - start
    if out["rc"] == 0:
        try:
            out["result"] = json.loads(stdout.getvalue())["result"]
        except (ValueError, KeyError, TypeError) as exc:
            out["rc"], out["error"] = None, f"unparsable report: {exc}"
    elif out["rc"] is not None:
        out["error"] = f"exit {out['rc']}: {stderr.getvalue().strip()[-300:]}"
    return out


def peak_rss_mb() -> float:
    """VmHWM, the high-water resident set of this process's own memory.
    ``ru_maxrss`` would not do: Linux carries the parent's resident set over
    the vfork and exec that start a subprocess into the child's
    ``ru_maxrss``, so it would count run.py's memory too."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_all(ops, tracer=None) -> tuple[list[dict], float]:
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["id"]
        results.append(run_op(op))
    return results, time.perf_counter() - start


def main() -> int:
    job = json.load(sys.stdin)
    ops = job["ops"]
    run_all(job["warmup"])
    results, wall = run_all(ops)
    outcome = {"results": results, "wall_s": wall,
               "peak_rss_mb": peak_rss_mb()}
    by_id = {op["id"]: op for op in ops}
    outcome["rerun_threads2"] = [
        run_op(by_id[i], [a.replace("--threads=1", "--threads=2") for a in by_id[i]["argv"]])
        for i in job["rerun_threads2"]]
    outcome["known_defects"] = [run_op(op) for op in job["known_defects"]]
    if job["trace"]:
        from tracing import Tracer, layer_metrics, self_times

        tracer = Tracer()
        tracer.install()
        traced, traced_wall = run_all(ops, tracer)
        spans = tracer.spans()
        if job["spans_path"]:
            tracer.save(job["spans_path"])
        own = self_times(spans)
        kinds = sorted({op["kind"] for op in ops})
        kind_of_op = np.array([kinds.index(op["kind"]) for op in ops] + [-1])
        kind_of_span = kind_of_op[spans["op"]]  # op -1 (outside any op) maps to -1
        outcome.update(
            traced=traced, traced_wall_s=traced_wall,
            layers=layer_metrics(spans, own, tracer.counts()),
            layers_by_kind={k: layer_metrics(spans, own, keep=kind_of_span == i)
                            for i, k in enumerate(kinds)})
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The asymptolim benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload solve-1t --seed 1 --seconds 15 --trace 0

Run from a checkout that holds ``src/asymptolim``.  A run draws its ops from
the seed (workloads.py), times them in a fresh worker process (worker.py),
checks every output against an independent oracle (oracles.py) and prints a
summary, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same ops
once untraced and once traced and reports the per-layer metrics (tracing.py).
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 9
WARMUP_SCALE = 0.01
WORKER_TIMEOUT_S = 120  # leaves time for the oracles within a 180 s run
# solve example1 at n = 1e7, one thread, in the ROADMAP's ad-hoc baseline table
ROADMAP_EXAMPLE1_MS = 838


def tail_percentile(samples: int) -> int:
    """90, or the highest whole percentile with at least 10 samples above it
    (never below the median)."""
    if samples <= 20:
        return 50
    return min(90, math.floor(100 * (samples - 10) / samples))


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds of import plus first op over fresh interpreters, in the
    environment the benchmark was started in; one launch before them,
    untimed, fills the byte-code and file caches."""
    argv = workloads.setup_op(workload, seed)
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def run_worker(job: dict) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_ops(ops, outcome) -> dict[int, str]:
    """Oracle failures, by op id, of the untimed checks of one run."""
    failures = {}
    for op, res in zip(ops, outcome["results"]):
        if why := oracles.check(op, res):
            failures[op["id"]] = why
    for again in outcome["rerun_threads2"]:
        first = outcome["results"][again["id"]]
        if (again["rc"], again["result"]) != (first["rc"], first["result"]):
            failures.setdefault(again["id"], "--threads=2 result differs from --threads=1")
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        ops: list[dict] | None = None) -> dict:
    """One benchmark run; returns the result object (plus ``summary`` lines)."""
    if not (ROOT / "src" / "asymptolim" / "__init__.py").is_file():
        raise SystemExit(f"no asymptolim sources under {ROOT / 'src'}")
    if ops is None:
        passes = workloads.passes_for(workload, seconds / 2 if trace else seconds)
        ops = workloads.build_ops(workload, seed, passes, scale)
    warmup = workloads.build_ops(workload, seed + 1, 1, scale * WARMUP_SCALE)
    # the first op of each solve kind runs again, untimed, with two threads
    first_of_kind: dict[str, int] = {}
    for op in ops:
        if "--threads=1" in op.get("argv", ()):
            first_of_kind.setdefault(op["kind"], op["id"])
    job = {"ops": ops, "warmup": warmup, "trace": trace,
           "rerun_threads2": list(first_of_kind.values()), "spans_path": None,
           "known_defects": workloads.known_defect_ops() if workload == "integrate" else []}
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        job["spans_path"] = str(HERE / "out" / f"spans-{workload}-seed{seed}.npz")
    setup_s = None if trace else measure_setup(workload, seed)
    outcome = run_worker(job)
    failures = check_ops(ops, outcome)
    summary = [f"workload {workload}, seed {seed}, {len(ops)} ops"]
    if first_of_kind:
        summary.append(f"{len(first_of_kind)} ops rerun with --threads=2 for bit equality")

    if trace:
        # a traced op fails if it fails untraced or returns something else
        traced_failures = {}
        for first, again in zip(outcome["results"], outcome["traced"]):
            if (again["rc"], again["result"]) != (first["rc"], first["result"]):
                traced_failures[first["id"]] = "traced result differs from the untraced one"
            elif first["id"] in failures:
                traced_failures[first["id"]] = "traced too: " + failures[first["id"]]
        summary += [f"FAILED traced op {i} {_describe(ops[i])}: {why}"
                    for i, why in sorted(traced_failures.items()) if i not in failures]
        failed = len(failures) + len(traced_failures)
        layers = outcome["layers"]
        layers["trace.overhead_frac"] = outcome["traced_wall_s"] / outcome["wall_s"] - 1.0
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
        attempted = 2 * len(ops)
        summary += _layer_summary(outcome, ops)
        summary += _cross_check(workload)
    else:
        latencies = np.array([r["latency_s"] for r in outcome["results"]]) * 1e3
        indexed = np.array([op["indices"] > 0 for op in ops])
        pct = tail_percentile(len(ops))
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(ops) / outcome["wall_s"],
            # over the time of the ops that carry an index count: on integrate
            # only the step integrals do
            "indices_per_s": sum(op["indices"] for op in ops) / float(latencies[indexed].sum() / 1e3),
            "op_p50_ms": float(np.quantile(latencies, 0.5)),
            "op_p90_ms": float(np.quantile(latencies, pct / 100)),
            "peak_rss_mb": outcome["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
        failed, attempted = len(failures), len(ops)
        summary.append(f"latency samples {len(ops)}; op_p90_ms is the p{pct}")
        summary += _kind_summary(ops, outcome)
        summary += _cross_check(workload)
    summary.append(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    summary += [f"FAILED op {i} {_describe(ops[i])}: {why}" for i, why in sorted(failures.items())]
    summary += _defect_summary(job["known_defects"], outcome["known_defects"])
    for name, m in metrics.items():
        summary.append(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "summary": summary}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "special.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _describe(op: dict) -> str:
    return " ".join(op["argv"]) if "argv" in op else f"{op['lib']} {op['params']}"


def _kind_summary(ops, outcome) -> list[str]:
    by_kind: dict[str, list[float]] = {}
    for op, res in zip(ops, outcome["results"]):
        by_kind.setdefault(op["kind"], []).append(res["latency_s"] * 1e3)
    return [f"median latency of {kind}: {statistics.median(ms):.1f} ms over {len(ms)} ops"
            for kind, ms in sorted(by_kind.items())]


def _defect_summary(ops, results) -> list[str]:
    """The known-defect ops that still miss their oracle; they are not timed
    and not counted in ``failed`` (workloads.known_defect_ops)."""
    if not ops:
        return []
    wrong = [f"KNOWN DEFECT {_describe(op)}: {why}"
             for op, res in zip(ops, results) if (why := oracles.check(op, res))]
    return [f"known-defect ops still wrong: {len(wrong)} of {len(ops)} "
            "(untimed, not counted in failed)"] + wrong


def _cross_check(workload: str) -> list[str]:
    if workload != "solve-1t":
        return []
    return [f"cross-check: the ROADMAP's ad-hoc table has solve example1 at n=1e7 at "
            f"{ROADMAP_EXAMPLE1_MS} ms; compare the example1 lines above"]


def _layer_summary(outcome, ops) -> list[str]:
    lines = [f"untraced wall {outcome['wall_s']:.3f} s, traced wall "
             f"{outcome['traced_wall_s']:.3f} s"]
    for kind, layers in sorted(outcome["layers_by_kind"].items()):
        count = sum(op["kind"] == kind for op in ops)
        busy = ", ".join(f"{k} {1e3 * v / count:.1f}" for k, v in layers.items() if v > 0)
        lines.append(f"{kind}: self ms per op: {busy}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("summary"):
        print("# " + line)
    print(f"# run took {time.perf_counter() - start:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

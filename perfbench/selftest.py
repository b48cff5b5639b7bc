"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json appears with its unit for
every workload, that the per-layer counts repeat exactly across two traced
runs with one seed, and that an op whose oracle value is deliberately wrong is
counted as failed.  Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from tracing import COUNTS

TINY = {"solve-1t": 1e-4, "sweep": 1e-3, "integrate": 1e-3}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.WORKLOADS:
            result = run.run(workload, seed=3, seconds=1, trace=trace, scale=TINY[workload])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} {group} metrics {got} != {wanted}")
            expect(result["attempted"] >= 1, f"{workload}: no op attempted")
            if trace:
                again = run.run(workload, seed=3, seconds=1, trace=True, scale=TINY[workload])
                for key in COUNTS:
                    first, second = result["metrics"][key]["value"], again["metrics"][key]["value"]
                    expect(first == second, f"{workload} count {key}: {first} then {second}")
            print(f"selftest: {workload} {group} ok")

    # One op whose params (what the oracle reads) disagree with its argv (what
    # the program runs): the oracle's value is wrong, so the op must fail.
    ops = workloads.build_ops("integrate", seed=5, passes=1, scale=TINY["integrate"])[:6]
    planted = {"kind": "special digamma", "argv": ["special", "digamma", "--x=2.0"],
               "params": {"function": "digamma", "x": 3.0}, "indices": 0}
    ops.append(planted)
    for i, op in enumerate(ops):
        op["id"] = i
    result = run.run("integrate", seed=5, seconds=1, trace=False, ops=ops)
    listed = [line for line in result["summary"] if line.startswith(f"FAILED op {planted['id']} ")]
    expect(result["failed"] >= 1 and listed, "the planted wrong oracle value was not counted")
    expect(f"fail_frac {result['failed'] / result['attempted']:.6g} ratio" in
           "\n".join(result["summary"]), "fail_frac line missing")
    print("selftest: planted failure counted in fail_frac ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

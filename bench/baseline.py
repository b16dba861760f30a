"""Run every workload on several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 10 --out bench/baseline.json

Each workload runs with ``--trace 0`` on seeds 1..N, then once with
``--trace 1`` on seed 0.  For each end-to-end metric the summary gives
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
their distance as a share of the median (``spread``), which should stay
below a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, machine

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} commands failed")
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, 0) for seed in range(1, args.seeds + 1)]
        e2e = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            e2e[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bound,
                "values": values,
            }
            print(f"{name:8s} {metric:12s} median {median:.4f}  spread {e2e[metric]['spread']:.4f}"
                  f"  (bound/3 {bound / 3:.4f})", flush=True)
        traced = bench(name, 0, 1)
        summary["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

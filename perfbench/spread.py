"""Run-to-run spread of the benchmark, one seed per run.

    python3 perfbench/spread.py --workloads train-toy verify --seeds 1 2 3 4 5 --seconds 30 [--trace 1]

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
from the repository root. For each metric it prints the median, the
quartiles and the spread (quartile distance / median), next to the bound
in BENCHMARK.json. With ``--trace 1`` it checks instead that every count
metric reads the same on every seed. Exits 1 when a run fails, is not
correct, or a count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    ok = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        for seed, r in zip(args.seeds, results):
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if args.trace:
                if name in COUNTS and len(set(values)) > 1:
                    ok = False
                    print(f"{workload} {name}: differs between seeds: {values}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:10s} {name:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
            print(f"{'':10s} {'':14s} runs " + " ".join(f"{v:.5g}" for v in values))
        if args.trace:
            print(f"{workload}: {len(results)} traced runs, counts checked")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

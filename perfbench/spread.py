#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

Runs run.py `--runs` times on every workload (seeds 0 .. runs-1, workloads
interleaved), then prints for each end-to-end metric its median, its
quartiles and its spread: the distance between the quartiles, as
statistics.quantiles(values, n=4) gives them, as a share of the median.  A
spread above a third of the metric's bound in BENCHMARK.json is flagged.
With `--trace`, one traced run per workload (seed 0) is added.  With `--out`,
everything, with the machine metadata, is written as JSON: that file is the
baseline a later change is compared against.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, metadata  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} was not correct:\n{res.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    meta = metadata()
    started = time.monotonic()
    values = {w: [] for w in args.workloads}
    for seed in range(args.runs):
        for workload in args.workloads:
            values[workload].append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in values[workload][-1].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload, runs in values.items():
        summary[workload] = {}
        for name, bound in bounds.items():
            series = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
            print(f"{workload:12s} {name:12s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
                  f"  spread {spread:.3f} (bound {bound}){flag}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": series}
    traced = {}
    if args.trace:
        for workload in args.workloads:
            traced[workload] = run_once(workload, 0, args.seconds, 1)
    if args.out:
        record = {"meta": meta, "runs": args.runs, "seconds": args.seconds,
                  "elapsed_s": time.monotonic() - started, "end_to_end": summary,
                  "per_layer_seed0": traced}
        args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()

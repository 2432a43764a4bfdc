"""Run the benchmark over several seeds and report each end-to-end
metric's median and run-to-run spread (interquartile range over median).

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--json FILE]

--json writes the medians, quartiles and spreads with the machine's
processor count, CPU model and Python version (perfbench/baseline.json
was written this way).

Runs one after another, never in parallel, with the run length from
BENCHMARK.json.  Seeds are 1..runs.  A spread above a third of the
metric's bound (setup_s excepted) is marked with "!".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write medians and spreads here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    bad = 0
    for workload in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"]:
                bad += 1
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = " !" if metric["name"] != "setup_s" and spread > metric["bound"] / 3 else ""
            print(f"  {workload:12s} {metric['name']:12s} median {med:.6g} "
                  f"{metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f} "
                  f"(bound {metric['bound']}){mark}", flush=True)
            summary[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": metric["unit"], "runs": len(vals)}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"machine": machine(), "run_seconds": spec["run_seconds"],
                       "workloads": summary}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

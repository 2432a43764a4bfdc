"""Smoke test of the benchmark: every workload at minimal size (one round),
untraced and traced, plus the refusal to run without the sources.

    python3 perfbench/smoke.py

Exits 0 when every run emits exactly the metrics BENCHMARK.json lists,
every end-to-end metric is nonzero, and no request failed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(cwd, workload, trace):
    cmd = [sys.executable, RUN if cwd == ROOT else os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "0.1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    errors = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            want = [m["name"] for m in spec[key]]
            if sorted(result["metrics"]) != sorted(want):
                errors.append(f"{tag}: metrics {sorted(result['metrics'])} != {sorted(want)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                errors.append(f"{tag}: {result['failed']} of {result['attempted']} failed\n"
                              + "\n".join(lines[:-1]))
            for name, value in result["metrics"].items():
                v = value["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v) or (
                        trace == 0 and v == 0):
                    errors.append(f"{tag}: metric {name} = {v!r}")
            if trace == 0:
                printed = " ".join(lines[:-1])
                names = ["failed_ratio 0.0000"] + (
                    ["hit_ms_p50"] if workload == "repeat-cache" else [])
                errors += [f"{tag}: no '{n}' line" for n in names if n not in printed]
            print(f"ok {tag}: {result['attempted']} items")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, "spectral-p", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("run without src/ did not fail cleanly")
        else:
            print("ok refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for err in errors:
        print(f"FAILED {err}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write perfbench/golden.json: the sha256 of render_json for every request
any workload can send.

    python3 perfbench/make_golden.py

Run it from the root of a checkout whose reports are known to be right;
the benchmark then fails any report that differs byte for byte.  Each
report must also pass the benchmark's other checks, or nothing is written.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from brieskorn.report import build_analysis, render_json  # noqa: E402


def main() -> int:
    golden, bad = {}, []
    requests = sorted(workloads.all_requests(), key=lambda r: r.key)
    for req in requests:
        text = render_json(build_analysis(req.a, req.b, req.c, req.p))
        golden[req.key] = workloads.digest(text)
        problems = workloads.check_report(req, json.loads(text), text, golden)
        if problems:
            bad.append(f"{req.label}: {'; '.join(problems)}")
    for line in bad:
        print(f"FAILED {line}")
    if bad:
        return 1
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

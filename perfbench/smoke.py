#!/usr/bin/env python3
"""Smoke check of the benchmark harness at a tiny input size.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` once
untraced and once traced, and checks that the last stdout line is the
result object, that the outputs passed their checks, and that the
untraced run reports every ``end_to_end`` metric and the traced run every
``per_layer`` metric, each by name with the unit BENCHMARK.json gives it.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"FAIL {label}: result keys {sorted(result)}")
                return 1
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"FAIL {label}: outputs failed their checks\n{proc.stderr}")
                return 1
            got = {name: m["unit"] for name, m in result["metrics"].items()
                   if isinstance(m["value"], (int, float))}
            want = {m["name"]: m["unit"] for m in wanted[trace]}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                print(f"FAIL {label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
                return 1
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at a tiny size, untraced and
traced.  Asserts that every metric BENCHMARK.json names prints with its
unit and a finite value, and that every correctness check passes.

    python3 perfbench/smoke.py      # from the repository root; ~2 minutes
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            tag = f"{wl} trace={trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']} attempted={res['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metric names differ: "
                                f"{sorted(set(want) ^ set(got))}")
            for name, m in got.items():
                if m["unit"] != want.get(name) or not math.isfinite(m["value"]):
                    problems.append(f"{tag}: {name} = {m}")
            status = "ok  " if len(problems) == before else "FAIL"
            print(f"{status} {tag}: {len(got)} metrics, "
                  f"attempted={res['attempted']}", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

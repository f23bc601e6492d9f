#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
library plus the driver (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls only re-check the build.

--trace 0 runs the workload once with tracing off and prints every
end-to-end metric of BENCHMARK.json.  --trace 1 runs it twice, untraced and
traced, each in its own process, and prints every per-layer metric, with
trace.overhead = untraced ops_per_s / traced ops_per_s - 1.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Build output and diagnostics go to stderr.  Exit status is nonzero, with no
result line, when the build or a run fails or a metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Hermetic runs: the library reads these from the environment.
CLEARED_ENV = ("NEXUS_THREADS", "NEXUS_TRACE", "NEXUS_FLIGHT_DIR", "NEXUS_LOG")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "nexus_bench",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "nexus_bench"


def run_once(binary, args, trace):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def expected(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke size: one short episode (perfbench/smoke.py)")
    args = ap.parse_args()

    try:
        binary = build()
        plain = run_once(binary, args, trace=False)
        result = plain
        metrics = dict(plain["metrics"])
        if args.trace:
            result = run_once(binary, args, trace=True)
            metrics = dict(result["metrics"])
            base = plain["metrics"]["ops_per_s"]["value"]
            traced = metrics["ops_per_s"]["value"]
            metrics["trace.overhead"] = {"value": base / traced - 1.0,
                                         "unit": "ratio"}
            result["correct"] = result["correct"] and plain["correct"]
    except (subprocess.SubprocessError, RuntimeError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1

    out = {}
    for name, unit in expected(args.trace):
        if name not in metrics or metrics[name]["unit"] != unit:
            log(f"metric {name} [{unit}] missing from the driver's output")
            return 1
        out[name] = metrics[name]
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

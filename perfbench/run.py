#!/usr/bin/env python3
"""Build and run the FreeFlow live-stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload relay_rpc --seed 1 --seconds 10 --trace 0

builds `perfbench/` (a Cargo package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`) and runs one measurement.
Build output goes to stderr; the benchmark's own output goes to stdout,
and its last line is the JSON result.

    python3 perfbench/run.py --steadiness [--runs 10] [--seconds 10]
                             [--workloads relay_rpc,socket_kv] [--seed-base 1]

runs every workload (or the listed ones) `--runs` times, each with its
own seed, and prints for every end-to-end metric the median, the
quartiles and the spread between runs next to the metric's bound from
`BENCHMARK.json`, plus a fingerprint of the host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "Cargo.toml"
SPEC = HERE.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark; exit non-zero (printing no result) on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    exe = target_dir() / "release" / "freeflow-perfbench"
    if not exe.is_file():
        print(f"error: {exe} missing after the build", file=sys.stderr)
        sys.exit(1)
    return exe


def run_once(exe, workload, seed, seconds, trace, capture):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--span-dir", str(target_dir() / "perfbench-spans")]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=RUN_TIMEOUT_S)


def fingerprint():
    cpu = "unknown"
    mem_gb = 0.0
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_gb = int(line.split()[1]) / 1024 / 1024
                break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"kernel={platform.release()} mem_gb={mem_gb:.1f}")


def steadiness(args):
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    exe = build()
    print(f"# host {fingerprint()}")
    print(f"# {args.runs} runs per workload, {seconds} s each, "
          f"seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
    summary = {}
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            done = run_once(exe, workload, seed, seconds, 0, capture=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})")
                print("\n".join(lines[-5:]))
                sys.exit(1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        print(f"\n## {workload}")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'/3':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            if name == "setup_s":
                flag = "setup"
            else:
                flag = "ok" if spread < bound / 3 else (
                    "WIDE" if spread > bound else "near")
                worst = max(worst, spread / bound if bound else 0.0)
            print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound:>6.3f} {flag:>6}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bound,
                                       "values": vals}
    print()
    print(json.dumps({"host": fingerprint(), "seconds": seconds,
                      "worst_spread_over_bound": worst,
                      "workloads": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args()
    if args.steadiness:
        if args.runs < 4:
            p.error("--steadiness needs --runs of at least 4 for quartiles")
        steadiness(args)
        return
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    exe = build()
    sys.stdout.flush()
    done = run_once(exe, args.workload, args.seed, args.seconds, args.trace,
                    capture=False)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

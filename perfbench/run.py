#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n|default> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default .bench_build), then run once. Its report is
passed through; the last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics". Metric names are checked
against BENCHMARK.json: a timed run (--trace 0) must report exactly the
end-to-end metrics; a traced run (--trace 1) reports the per-layer metrics,
with 0 for the layers its workload does not run.

With --workload all, every workload runs in turn and the last line sums
their counts, with each metric prefixed by its workload. --seed default
gives each workload its default seed from perfbench/map.json (the seeds at
which the golden figures are checked).

Exits non-zero without printing a result when the build, the run or the
checks fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The workloads of BENCHMARK.json. The binary also runs `routing`, which
# the contract leaves out (see perfbench/README.md).
WORKLOADS = ["figures", "fleet", "traffic"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_contract():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "map.json")) as f:
        mapping = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    if sorted(mapping["per_layer"]) != sorted(layers):
        fail("perfbench/map.json and BENCHMARK.json list different per-layer metrics")
    if sorted(mapping["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        fail("perfbench/map.json and BENCHMARK.json list different workloads")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = {w: m["default_seed"] for w, m in mapping["workloads"].items()}
    return e2e, layers, units, seeds


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, target_dir, workload, seed, args, e2e, layers, units):
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", os.path.join(target_dir, "traces"),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out")
    if done.returncode != 0:
        fail(f"{workload} exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no result line")
    metrics = result["metrics"]
    expected = layers if args.trace else e2e
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail(f"{workload} reported metrics not in BENCHMARK.json: {unknown}")
    if args.trace:
        # Layers this workload does not run did no work in it.
        for name in layers:
            metrics.setdefault(name, {"value": 0, "unit": units[name]})
    else:
        missing = sorted(set(e2e) - set(metrics))
        if missing:
            fail(f"{workload} did not report {missing}")
        zero = [n for n in e2e if not metrics[n]["value"] > 0]
        if zero:
            fail(f"{workload} reported non-positive end-to-end metrics {zero}")
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            fail(f"{workload}: {name} in {m['unit']}, BENCHMARK.json says {units[name]}")
    result["metrics"] = {n: metrics[n] for n in expected}
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed != "default" and not args.seed.isdigit():
        fail("--seed must be a non-negative integer or 'default'")

    e2e, layers, units, seeds = load_contract()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        seed = seeds[w] if args.seed == "default" else int(args.seed)
        text, result = run_one(binary, target_dir, w, seed, args, e2e, layers, units)
        print("\n".join(text), flush=True)
        results.append((w, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{n}": m for w, r in results for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()

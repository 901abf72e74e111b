#!/usr/bin/env python3
"""Builds and runs the IVN benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream", "campaign", "inventory", "figures")
# Every process this script starts is killed if it outlives this.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd):
    """Runs `cmd` with stdout captured; returns (exit code, stdout, peak
    RSS in MiB of that process alone)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in the working directory: {e}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "ivn-perfbench")

    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "stream":
        # The whole-buffer oracle holds the full period in memory: run it
        # in its own process so the timed process's peak RSS excludes it.
        code, out, _ = run_child([binary, "oracle"])
        if code != 0:
            fail(f"oracle exited with {code}")
        cmd += ["--oracle", out.strip()]

    code, out, rss_mib = run_child(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with {code}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    problems = []
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    # Equal seeds must give equal outputs in every run of one checkout,
    # timed or traced: the first run at a seed records its digest.
    store = os.path.join(target, "perfbench-digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{args.workload}-{args.seed}.txt")
    if digest is None:
        problems.append("the benchmark printed no outputs digest")
    elif os.path.exists(path):
        with open(path) as f:
            seen = f.read().strip()
        if seen != digest:
            problems.append(f"outputs digest {digest} differs from {seen} of an earlier run")
    else:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            f.write(digest + "\n")
        os.replace(tmp, path)

    metrics = result["metrics"]
    if args.trace:
        # Layers the workload bypasses read 0.
        for name, unit in units.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    else:
        attempted = max(result["attempted"], 1)
        metrics["ok_frac"] = {"value": 1.0 - result["failed"] / attempted, "unit": "ratio"}
        metrics["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != units:
        problems.append(f"metrics {got} differ from BENCHMARK.json {units}")
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in units if name in metrics},
    }))


if __name__ == "__main__":
    main()

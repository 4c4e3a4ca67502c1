#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (IQR / median), against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 perfbench/tools/spread.py --workload serve-mixed --seeds 1-10
    python3 perfbench/tools/spread.py --all --seeds 1-10 --out .perfbench_out/spread.json

A spread under a third of the metric's bound is steady; `setup_s` is
reported but not held to its bound (it is compared by median only).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(bench, workload, seed, trace=0, extra=()):
    """One benchmark run; returns (result dict, wall seconds)."""
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
        *extra,
    ]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(p.stdout)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = manifest()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    summary = {}
    ok = True
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            result, wall = run(bench, w, seed)
            values_now = "  ".join(f"{n} {m['value']:.6g}" for n, m in result["metrics"].items())
            print(f"{w} seed {seed}: {wall:.1f} s  {values_now}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[w] = {}
        for name, vs in values.items():
            med, sp = spread(vs)
            steady = name == "setup_s" or sp < bounds[name] / 3
            ok &= steady
            summary[w][name] = {"median": med, "spread": sp, "bound": bounds[name], "values": vs}
            flag = "ok" if steady else "WIDE"
            print(f"  {w:13} {name:18} median {med:14.4f}  spread {sp:7.4f}  bound {bounds[name]:.2f}  {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

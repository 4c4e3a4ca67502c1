#!/usr/bin/env python3
"""Sensitivity check: a delay injected inside the benchmark must move the
matching end-to-end metric past its bound, leave every other workload
within its bounds, and pass again once removed.

Run from the repository root:

    python3 perfbench/tools/sensitivity.py --seeds 1-3

Phases, each run on every workload and seed:
  base     no delay
  unit     --inject-unit-sleep-ms (a sleep per unit in the runner closure):
           throughput_per_s and latency_ms_p50 must regress on the batch
           workloads only
  batch    --inject-batch-sleep-us (a sleep per batch in the closed-loop
           serve-ingest generator): throughput_per_s must regress on
           serve-ingest only (its latency_ms_p50, the round trip from
           send to ack, excludes the generator's sleep before sending)
  removed  no delay again: everything within bounds of base
"""

import argparse
import statistics
import sys

from spread import manifest, run, seeds_of

BATCH_MOVES = {"throughput_per_s", "latency_ms_p50"}
PHASES = [
    ("base", [], {}),
    ("unit", ["--inject-unit-sleep-ms", "1000"], {"sweep-geant": BATCH_MOVES, "scale-as10k": BATCH_MOVES}),
    ("batch", ["--inject-batch-sleep-us", "4000"], {"serve-ingest": {"throughput_per_s"}}),
    ("removed", [], {}),
]


def worse_by(better, base, value):
    """Relative worsening of `value` against `base` (positive = worse)."""
    return (base - value) / base if better == "higher" else (value - base) / base


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-3")
    args = ap.parse_args()
    bench = manifest()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    # Phases run back to back per seed, so a drift in host speed between
    # phases of one seed stays small.
    vals = {}
    for w in workloads:
        for seed in seeds_of(args.seeds):
            for phase, extra, _ in PHASES:
                result, wall = run(bench, w, seed, extra=extra)
                values = "  ".join(f"{n} {m['value']:.6g}" for n, m in result["metrics"].items())
                print(f"{phase:8} {w} seed {seed}: {wall:.1f} s  {values}", flush=True)
                for name, m in result["metrics"].items():
                    vals.setdefault((phase, w), {}).setdefault(name, []).append(m["value"])
    medians = {k: {n: statistics.median(v) for n, v in ms.items()} for k, ms in vals.items()}
    ok = True
    for phase, _, expect in PHASES[1:]:
        for w in workloads:
            for name, value in medians[(phase, w)].items():
                if name == "setup_s":
                    continue
                m = e2e[name]
                d = worse_by(m["better"], medians[("base", w)][name], value)
                should_move = name in expect.get(w, set())
                passed = d > m["bound"] if should_move else d <= m["bound"]
                ok &= passed
                verdict = "moved past bound" if d > m["bound"] else "within bound"
                want = "expected" if passed else "UNEXPECTED"
                print(f"{phase:8} {w:13} {name:18} worse by {d:+.3f} (bound {m['bound']:.2f}): {verdict}, {want}")
    print("sensitivity check:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

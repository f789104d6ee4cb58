#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare each end-to-end
metric's spread with the bound fixed in BENCHMARK.json.

    python3 perfbench/steady.py --workloads serve-hot --seeds 1,2 --repeats 3 --sets 2
    python3 perfbench/steady.py --seeds 1-10 --repeats 1 --sets 2

Every set runs each seed `--repeats` times. For each workload, metric and
set it prints the median, the quartiles (`statistics.quantiles(n=4)`) and
the spread, the inter-quartile distance as a share of the median, next to
the metric's bound. A metric fails when its spread exceeds the bound
(`setup_s` excepted) or when a later set's median is worse than the first
set's by more than the bound. The exit code is 1 when anything fails.
Raw results are written to `.bench_out/steady.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    meta = [json.loads(l[5:]) for l in lines if l.startswith("meta ")]
    result["host_steal_frac"] = meta[0].get("host_steal_frac") if meta else None
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]

    raw = {}
    failed = False
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.repeats):
                # Alternate the seed order between repeats.
                for seed in (seeds if (s + r) % 2 == 0 else list(reversed(seeds))):
                    res = run_once(workload, seed, args.seconds, 0)
                    runs.append({"seed": seed, **res})
                    print(f"  {workload} set {s + 1} seed {seed}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                          + f" host_steal_frac={res['host_steal_frac']}",
                          file=sys.stderr, flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}: {len(seeds)} seed(s) x {args.repeats} repeat(s) x {args.sets} set(s)")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, sp = spread(values)
                verdict, bad = [], False
                if name != "setup_s" and sp > bound:
                    verdict.append("SPREAD>BOUND")
                    bad = True
                elif name != "setup_s" and sp > bound / 3:
                    verdict.append("spread>bound/3")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    verdict.append(f"vs set 1 {worse:+.3f}")
                    if worse > bound:
                        verdict.append("DISAGREES")
                        bad = True
                failed |= bad
                print(f"  {name:<18} {k + 1:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>8.4f} {bound:>6.2f}  {' '.join(verdict) or 'ok'}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

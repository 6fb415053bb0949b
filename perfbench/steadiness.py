#!/usr/bin/env python3
"""Checks that the benchmark repeats: two sets of runs of the same build.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Run from the root of a checkout. Every run gets its own seed (set s, run r
uses seed 1000 * (s + 1) + r). For each workload and end-to-end metric it
prints each set's spread (the distance between the first and third
quartile of the runs, as a share of their median) and how far the second
set's median moved from the first, beside the metric's bound in
BENCHMARK.json, and checks that every set fails the same share of
operations. A spread or shift over its bound is marked FAIL. Raw results
go to .bench_build/steadiness.json and each run's stderr (set-up times per
repeat, check summary) to .bench_build/steadiness-logs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, logs):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    with open(os.path.join(logs, f"{workload}-seed{seed}.err"), "w") as err:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "steadiness.json")
    logs = os.path.join(os.path.dirname(out), "steadiness-logs")
    os.makedirs(logs, exist_ok=True)
    raw = {}
    ok = True
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                res = run_once(spec, name, 1000 * (s + 1) + r, logs)
                if not res["correct"]:
                    sys.exit(f"{name}: incorrect result")
                runs.append(res)
            sets.append(runs)
        raw[name] = sets
        with open(out, "w") as f:
            json.dump(raw, f)
        shares = {tuple(sorted({r["failed"] / r["attempted"] for r in runs})) for runs in sets}
        print(f"\n{name}: failed share per set {sorted(shares)}")
        if len(shares) != 1 or len(next(iter(shares))) != 1:
            ok = False
            print("  FAIL: failed share differs between runs")
        print(f"  {'metric':22s} {'bound':>6s} " +
              " ".join(f"{'spread' + str(s + 1):>8s}" for s in range(args.sets)) +
              f" {'shift':>7s} {'median1':>12s}")
        for m in spec["end_to_end"]:
            bound = m["bound"]
            stats = [spread([r["metrics"][m["name"]]["value"] for r in runs]) for runs in sets]
            med1, med2 = stats[0][1], stats[-1][1]
            worse = (med2 - med1) / med1 if m["better"] == "lower" else (med1 - med2) / med1
            flags = []
            if any(sp > bound for sp, _ in stats):
                flags.append("spread")
            if worse > bound:
                flags.append("shift")
            ok = ok and not flags
            print(f"  {m['name']:22s} {bound:6.3f} " +
                  " ".join(f"{sp:8.4f}" for sp, _ in stats) +
                  f" {worse:7.4f} {med1:12.5g}" + ("  FAIL " + ",".join(flags) if flags else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

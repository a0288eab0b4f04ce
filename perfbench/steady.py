"""Steadiness check for the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py [--workloads report,oracles] [--seed 100]
    python3 perfbench/steady.py --counts [--workloads ...] [--seed 7]

The first form runs, for each workload, two sets of ten runs of
BENCHMARK.json's run_seconds (set A on seeds seed..seed+9, set B on the
next ten, alternating A and B) and prints for every end-to-end metric each
set's median, quartiles and spread (interquartile distance over the median,
from statistics.quantiles(n=4)), the spread against the metric's bound in
BENCHMARK.json, and how far B's median moved from A's.  It exits 1 when a
run is not correct, a spread exceeds its bound, a median worsens by more
than its bound, or the share of failed operations differs between the
sets.

--counts runs the traced run twice on one seed per workload, prints the
first run's per-layer metrics, and exits 1 unless every count metric
repeats exactly.

Run it from the root of the checkout; raw results go to
.bench_build/perfbench/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
RUNS = 10                  # runs in each set


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def steadiness(spec, workloads, seed, seconds) -> bool:
    ok = True
    record = {}
    for wl in workloads:
        sets = {"A": [], "B": []}
        for k in range(RUNS):
            for name, base in (("A", seed), ("B", seed + RUNS)):
                res = bench(wl, base + k, seconds, 0)
                sets[name].append(res)
                print(f"  {wl} set {name} seed {base + k}: "
                      f"{res['elapsed_s']:.1f} s, correct={res['correct']}, "
                      f"{res['failed']}/{res['attempted']} failed",
                      flush=True)
        record[wl] = sets
        print(f"{wl}:")
        for name, runs_ in sets.items():
            if not all(r["correct"] for r in runs_):
                print(f"  set {name}: a run is not correct")
                ok = False
        shares = {name: [r["failed"] / r["attempted"] for r in runs_]
                  for name, runs_ in sets.items()}
        if len(set(shares["A"] + shares["B"])) != 1:
            print(f"  failed shares differ: {shares}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s, runs_ in sets.items():
                stats[s] = spread([r["metrics"][name]["value"] for r in runs_])
            a, b = stats["A"], stats["B"]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b[1] - a[1]) / a[1]
            print(f"  {name:16s} A: {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}] "
                  f"spread {a[3]:.3f}   B: {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] "
                  f"spread {b[3]:.3f}   bound {bound}  B worse by {worse:+.3f}")
            if max(a[3], b[3]) > bound:
                print("    spread above the bound")
                ok = False
            elif max(a[3], b[3]) > bound / 3:
                print("    spread above a third of the bound")
            if worse > bound:
                print("    median worsened by more than the bound")
                ok = False
    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    path = os.path.join(".bench_build", "perfbench",
                        f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"raw results: {path}")
    return ok


def counts_repeat(spec, workloads, seed, seconds) -> bool:
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ok = True
    for wl in workloads:
        first = bench(wl, seed, seconds, 1)
        second = bench(wl, seed, seconds, 1)
        diffs = [n for n in counted
                 if first["metrics"].get(n) != second["metrics"].get(n)
                 or n not in first["metrics"]]
        print(f"{wl}: " + json.dumps({n: m["value"] for n, m in
                                      first["metrics"].items()}))
        if diffs or not (first["correct"] and second["correct"]):
            print(f"  counts that differ or are absent: {diffs}; correct: "
                  f"{first['correct']}, {second['correct']}")
            ok = False
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    if args.counts:
        ok = counts_repeat(spec, workloads, args.seed, seconds)
    else:
        ok = steadiness(spec, workloads, args.seed, seconds)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json in two sets of ten runs, each run
with its own seed, and prints for each end-to-end metric the worst
spread within a set (quartile distance over the median) and the change
of the second set's median from the first's, next to the metric's bound.
Run it from the repository root:

    python3 perfbench/steady.py

Exits 1 if a run fails or reports incorrect output, if the share of
failed operations differs between the sets, if any spread (setup_s
included) exceeds a tenth, or if a second median is worse by more than
its bound.
"""
import json
import statistics
import subprocess
import sys

RUNS = 10          # runs per set
SETS = 2           # sets of runs per workload
FIRST_SEED = 1     # seeds count up from here across every run
MAX_SPREAD = 0.1   # run-to-run spread every end-to-end metric must stay within


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    steal = [line.split("steal=")[1] for line in proc.stdout.splitlines() if "steal=" in line]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
    print(f"    seed {seed}: steal={','.join(steal)} {vals}", flush=True)
    return res


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    seed = FIRST_SEED
    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            print(f"{wl}: set {s + 1}", flush=True)
            runs = []
            for _ in range(RUNS):
                res = run_once(bench["command"], wl, seed, bench["run_seconds"])
                if not res["correct"]:
                    print(f"    seed {seed}: INCORRECT output")
                    ok = False
                seed += 1
                runs.append(res)
            sets.append(runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        print(f"{wl}: failed share per set {shares}")
        if len(set(shares)) > 1:
            ok = False
        print(f"  {'metric':18} {'median':>12} {'spread':>8} {'change':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals))
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (meds[1] - meds[0]) / meds[0]
            worst = max(spreads)
            flag = ""
            if worst > MAX_SPREAD or change > bound:
                flag = "  OVER"
                ok = False
            print(f"  {name:18} {meds[0]:12.5g} {worst:8.4f} {change:+8.4f} {bound:6.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

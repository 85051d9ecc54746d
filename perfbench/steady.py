#!/usr/bin/env python3
"""Prove (or re-prove) the benchmark's bounds: two sets of runs, apart in time.

    python3 perfbench/steady.py [--runs 10] [--gap 120] [--first-seed 1]
                                [--workloads offline-scan,daemon-mixed]

It runs two sets, --gap seconds apart. Each set runs every chosen workload
--runs times, each run with another seed, through perfbench/run.py
(untraced). For every end-to-end metric in BENCHMARK.json it prints, per
set, every run's value, the median and quartiles and the spread
(Q3 - Q1) / median, then how far the second set's median moved from the
first's (positive = worse), against the metric's bound. A spread above its
bound, a set-to-set move in either direction larger than the bound, a
failed-operation share that differs between sets, or an incorrect run makes
it exit 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def one_set(workloads, runs, seconds, first_seed):
    out = {}
    for w in workloads:
        out[w] = []
        for i in range(runs):
            res = run(w, first_seed + i, seconds)
            print("  %s seed %d: %s" % (w, first_seed + i,
                                        "ok" if res and res["correct"] else "FAILED"),
                  file=sys.stderr, flush=True)
            out[w].append(res)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=120, help="seconds between sets")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [
        w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(2):
        if s:
            time.sleep(a.gap)
        print("set %d" % (s + 1), file=sys.stderr, flush=True)
        sets.append(one_set(workloads, a.runs, bench["run_seconds"],
                            a.first_seed + 1000 * s))

    ok = True
    for w in workloads:
        print("\n%s" % w)
        shares = []
        for st in sets:
            if any(r is None or not r["correct"] for r in st[w]):
                print("  a run failed or was incorrect")
                ok = False
                shares.append(None)
                continue
            shares.append(sum(r["failed"] for r in st[w]) /
                          sum(r["attempted"] for r in st[w]))
        if None in shares:
            continue
        if len(set(shares)) > 1:
            print("  failed share differs between sets: %s" % shares)
            ok = False
        print("  %-22s %6s %12s %12s %12s %8s   %s" %
              ("metric", "set", "Q1", "median", "Q3", "spread", "bound"))
        for m in bench["end_to_end"]:
            meds = []
            for i, st in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r in st[w]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                flag = ""
                if spread > m["bound"]:
                    flag, ok = "  SPREAD > BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "  (above a third of the bound)"
                print("  %-22s %6d %12.6g %12.6g %12.6g %7.1f%%   %.2f%s" %
                      (m["name"], i + 1, q1, med, q3, 100 * spread, m["bound"], flag))
                print("      runs: " + " ".join("%.4g" % v for v in vals))
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            flag = ""
            if abs(worse) > m["bound"]:
                flag, ok = "  MOVED MORE THAN BOUND", False
            print("  %-22s   set 2 vs set 1: %+.1f%% worse (bound %.0f%%)%s" %
                  ("", 100 * worse, 100 * m["bound"], flag))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

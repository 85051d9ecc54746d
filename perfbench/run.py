#!/usr/bin/env python3
"""calib's end-to-end benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all          # every workload, one table

Builds calib (Release) and the perfbench binary from the source tree this
file sits in, into $CARGO_TARGET_DIR/perfbench (default .bench_build/), then
runs it. The last line of stdout is the binary's JSON result. With
--trace 1 the span file is kept at <build dir>/perfbench-trace.json and its
per-layer self times are printed (to stderr) by a CalQL query run through
cali-query --json-input. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["offline-scan", "offline-groupby", "daemon-mixed", "runtime-annotate"]
TRACE_QUERY = ("AGGREGATE sum(exclusive_us),count() GROUP BY name "
               "ORDER BY name FORMAT table")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then an incremental build (a no-op when current)."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench"])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                sys.exit(2)


def run_one(bdir, workload, seed, seconds, trace):
    """Run the binary once; returns (exit code, last stdout line)."""
    work = os.path.join(bdir, "run-%d" % os.getpid())
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           # relative to the checkout: unix socket paths stay short
           "--dir", os.path.relpath(work, ROOT)]
    span_file = os.path.join(bdir, "perfbench-trace.json")
    if trace:
        cmd += ["--trace-file", span_file]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return 3, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if trace and p.returncode == 0:
        q = subprocess.run([os.path.join(bdir, "calib", "src", "cali-query"),
                            "--json-input", "-q", TRACE_QUERY, span_file],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        sys.stderr.write("per-layer self time (us), via cali-query --json-input:\n")
        sys.stderr.write(q.stdout)
    return p.returncode, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    if a.workload != "all":
        code, last = run_one(bdir, a.workload, a.seed, a.seconds, a.trace)
        if last:
            print(last)
        return code

    results, code = {}, 0
    for w in WORKLOADS:
        c, last = run_one(bdir, w, a.seed, a.seconds, a.trace)
        code = code or c
        results[w] = json.loads(last) if c == 0 and last else None
    for w, res in results.items():
        if res is None:
            print("%-18s FAILED" % w)
            continue
        print("%-18s correct=%s attempted=%d failed=%d" %
              (w, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            print("    %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())

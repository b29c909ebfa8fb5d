#!/usr/bin/env python3
"""Steadiness report: is the benchmark repeatable enough to judge a change?

    python3 perfbench/steadiness.py [--workloads fig3_grid,churn_resume]
                                    [--runs 10]

Runs perfbench/run.py in two sets of --runs runs per workload (seeds
1..runs, the same seeds in both sets) and prints, for each end-to-end
metric of BENCHMARK.json and each set, the median, quartiles, min and max
over the runs and the spread: the interquartile distance as a share of the
median, with quartiles from statistics.quantiles(values, n=4). It flags

  SPREAD     a spread above the metric's bound
  UNSTEADY   a spread above a third of the bound (printed, not a failure)
  SHORT      a timed metric whose median is under 1 ms: too short to time
             reliably on a shared machine
  DRIFT      a second-set median worse than the first by more than the
             bound
  FAILED     a run that exited non-zero, reported correct=false or failed
             operations, or ran on a different machine fingerprint

Exit status 1 when anything is flagged. Raw results go to
$CARGO_TARGET_DIR/steadiness.json (default .bench_build/).
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
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def one_run(workload, seed, seconds, trace):
    """Returns (result dict or None, fingerprint or None, host seconds)."""
    t0 = time.monotonic()
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    dt = time.monotonic() - t0
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-2000:])
        return None, None, dt
    lines = res.stdout.strip().splitlines()
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
            fingerprint.pop("git_sha", None)
    return json.loads(lines[-1]), fingerprint, dt


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    flags = []
    raw = {}
    fingerprints = set()
    for w in workloads:
        for s in range(2):
            values = {m["name"]: [] for m in metrics}
            for seed in range(1, args.runs + 1):
                result, fp, dt = one_run(w, seed, bench["run_seconds"], 0)
                ok = (result is not None and result["correct"] and
                      result["failed"] == 0)
                print("%-13s set %d seed %-4d %6.1f s  %s" % (
                    w, s + 1, seed, dt, "ok" if ok else "FAILED"),
                    flush=True)
                if not ok:
                    flags.append("FAILED %s seed %d" % (w, seed))
                    continue
                fingerprints.add(json.dumps(fp, sort_keys=True))
                for m in metrics:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            raw.setdefault(w, []).append(values)
    if len(fingerprints) > 1:
        flags.append("FAILED runs came from %d machine fingerprints"
                     % len(fingerprints))

    print("\n%-13s %-17s %4s %12s %12s %12s %12s %12s %7s %6s  flags" % (
        "workload", "metric", "set", "median", "q1", "q3", "min", "max",
        "spread", "bound"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, values in enumerate(raw[w]):
                v = values[name]
                if len(v) < 2:
                    continue
                med, q1, q3, sp = spread(v)
                medians.append(med)
                marks = []
                if sp > bound:
                    marks.append("SPREAD")
                elif sp > bound / 3:
                    marks.append("UNSTEADY")
                if m["unit"] in TIME_UNITS and \
                        med * TIME_UNITS[m["unit"]] < 1e-3:
                    marks.append("SHORT")
                print("%-13s %-17s %4d %12.6g %12.6g %12.6g %12.6g %12.6g "
                      "%7.4f %6.3f  %s" % (w, name, s + 1, med, q1, q3,
                                           min(v), max(v), sp, bound,
                                           " ".join(marks)))
                flags += ["%s %s %s" % (f, w, name) for f in marks
                          if f != "UNSTEADY"]
            if len(medians) == 2:
                a, b = medians
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print("%-13s %-17s drift %+.4f of the first median%s" % (
                    w, name, worse, "  DRIFT" if worse > bound else ""))
                if worse > bound:
                    flags.append("DRIFT %s %s" % (w, name))

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = out_dir if os.path.isabs(out_dir) else os.path.join(ROOT,
                                                                  out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump({"runs": args.runs, "raw": raw, "flags": flags}, f,
                  indent=1)
    print("\n" + ("flagged: " + "; ".join(flags) if flags else
                  "steady: no metric flagged"))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

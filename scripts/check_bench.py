#!/usr/bin/env python3
"""Compare a perf_suite run against a checked-in baseline.

Usage:
    check_bench.py --baseline bench/BENCH_core.quick.json \
                   --current BENCH_core.json [--tolerance 0.2]

Exit status is non-zero when any workload regresses:

  * throughput (events_per_sec; sim_s_per_s where meaningful) below
    (1 - tolerance) x baseline — wall-clock-derived, so the tolerance
    absorbs machine noise (default 20%, the CI gate);
  * allocs_per_event above the baseline by more than an epsilon —
    allocation counts are deterministic, so any real increase means the
    zero-allocation work is eroding;
  * observability overhead: when the current run carries the
    fig3_full_run (metrics off) / fig3_obs_run (metrics on) pair, the
    instrumented run must keep at least (1 - OBS_OVERHEAD_LIMIT) of the
    uninstrumented throughput. This is an intra-run ratio — same machine,
    same moment — so its limit is much tighter than --tolerance.
  * result-cache speedup: the fig3_cached_rerun workload's cold_warm_ratio
    (cold simulation wall over warm cache-served wall, measured within one
    run) must stay >= MIN_CACHED_SPEEDUP. Like the obs pair this is an
    intra-run ratio, so it gates on any machine.

The fig_scale_nN rows (large-N throughput probes) are deliberately absent
from the checked-in baseline, so they are not gated.

Absolute wall_ms and RSS are reported but never gated: they say more
about the machine than the code.
"""

import argparse
import json
import sys

# Deterministic metrics get a tiny epsilon (counter jitter from the runtime
# is possible on the scenario workloads); throughput uses --tolerance.
ALLOC_EPSILON = 0.05

# Target for the metrics layer is < 3% (tests/test_zero_alloc.cpp and the
# design doc); the CI gate allows 5% to absorb scheduler noise within a run.
OBS_OVERHEAD_LIMIT = 0.05
OBS_PAIR = ("fig3_full_run", "fig3_obs_run")

# A warm (cache-served) fig3 re-run must beat the cold simulation by at
# least this factor — the result cache's reason to exist.
MIN_CACHED_SPEEDUP = 10.0
CACHED_RERUN = "fig3_cached_rerun"

THROUGHPUT_KEYS = ("events_per_sec", "sim_s_per_s")


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "workloads" not in doc and "after" in doc:
        doc = doc["after"]  # before/after document: gate on the after side
    schema = doc.get("schema", "")
    if schema and not schema.startswith("manet-perf-core/"):
        sys.exit(f"{path}: unexpected schema {schema!r}")
    return {w["name"]: w for w in doc["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional throughput drop (default 0.2)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue

        for key in THROUGHPUT_KEYS:
            b, c = base.get(key, 0.0), cur.get(key, 0.0)
            if b <= 0.0:
                continue  # not meaningful for this workload
            floor = (1.0 - args.tolerance) * b
            verdict = "FAIL" if c < floor else "ok"
            print(f"{name:22s} {key:16s} {b:12.4g} -> {c:12.4g}  "
                  f"({c / b:6.2%} of baseline) {verdict}")
            if c < floor:
                failures.append(
                    f"{name}: {key} {c:.4g} below floor {floor:.4g} "
                    f"(baseline {b:.4g}, tolerance {args.tolerance:.0%})")

        b_alloc = base.get("allocs_per_event", 0.0)
        c_alloc = cur.get("allocs_per_event", 0.0)
        alloc_ok = c_alloc <= b_alloc + ALLOC_EPSILON
        print(f"{name:22s} {'allocs_per_event':16s} {b_alloc:12.4g} -> "
              f"{c_alloc:12.4g}  {'ok' if alloc_ok else 'FAIL'}")
        if not alloc_ok:
            failures.append(
                f"{name}: allocs_per_event rose {b_alloc:.4g} -> {c_alloc:.4g}")

        print(f"{name:22s} {'wall_ms (info)':16s} "
              f"{base.get('wall_ms', 0.0):12.4g} -> "
              f"{cur.get('wall_ms', 0.0):12.4g}")

    off, on = (current.get(name) for name in OBS_PAIR)
    if off and on and off.get("events_per_sec", 0.0) > 0.0:
        ratio = on["events_per_sec"] / off["events_per_sec"]
        overhead = 1.0 - ratio
        verdict = "FAIL" if overhead > OBS_OVERHEAD_LIMIT else "ok"
        print(f"{'obs_overhead':22s} {'events_per_sec':16s} "
              f"{off['events_per_sec']:12.4g} -> {on['events_per_sec']:12.4g}  "
              f"({overhead:6.2%} overhead) {verdict}")
        if overhead > OBS_OVERHEAD_LIMIT:
            failures.append(
                f"obs overhead {overhead:.2%} exceeds "
                f"{OBS_OVERHEAD_LIMIT:.0%} ({OBS_PAIR[1]} vs {OBS_PAIR[0]})")

    rerun = current.get(CACHED_RERUN)
    if rerun is not None:
        ratio = rerun.get("cold_warm_ratio", 0.0)
        verdict = "FAIL" if ratio < MIN_CACHED_SPEEDUP else "ok"
        print(f"{CACHED_RERUN:22s} {'cold_warm_ratio':16s} "
              f"{MIN_CACHED_SPEEDUP:12.4g} <= {ratio:12.4g}  {verdict}")
        if ratio < MIN_CACHED_SPEEDUP:
            failures.append(
                f"{CACHED_RERUN}: cold/warm speedup {ratio:.4g} below "
                f"{MIN_CACHED_SPEEDUP:.4g}")

    if failures:
        print("\nPerformance regressions detected:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nAll workloads within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

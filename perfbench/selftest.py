#!/usr/bin/env python3
"""The benchmark's self-test, at tiny sizes (seconds, not minutes).

    python3 perfbench/selftest.py

Checks that
  - every BENCHMARK.json metric is reported with its unit, end-to-end
    metrics with --trace 0 and per-layer metrics with --trace 1, on every
    workload, and the runs pass their own checks;
  - the workload digest is the same at jobs 1 and jobs 2;
  - a corrupted prefilled cache cell is recomputed: counted in the cache's
    corrupt count and as a failed operation, with the digest unchanged;
  - a wrong expected digest counts as a failed operation;
  - without src/ next to perfbench/, run.py exits non-zero and prints no
    result.
Exit status 1 when any check fails.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

FAILURES = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def tiny(binary, workload, trace=0, *extra):
    code, out = run.run_binary(binary, [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny"] + list(extra))
    result = None
    lines = out.strip().splitlines()
    if code == 0 and lines:
        result = json.loads(lines[-1])
    return code, out, result


def digest(out):
    m = re.search(r"digest ([0-9a-f]{16})", out)
    return m.group(1) if m else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()

    for w in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = tiny(binary, w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = ({} if result is None else
                   {k: v["unit"] for k, v in result["metrics"].items()})
            check(code == 0 and got == want,
                  "%s --trace %d reports every %s metric with its unit"
                  % (w, trace, key))
            check(result is not None and result["correct"] and
                  result["failed"] == 0 and result["attempted"] > 0,
                  "%s --trace %d passes its checks" % (w, trace))

    for w in ("fig3_grid", "churn_resume"):
        d = [digest(tiny(binary, w, 0, "--jobs", j)[1]) for j in ("1", "2")]
        check(d[0] is not None and d[0] == d[1],
              "%s digest equal at jobs 1 and 2" % w)

    _, clean, _ = tiny(binary, "churn_resume")
    code, out, result = tiny(binary, "churn_resume", 0, "--corrupt-prefill")
    check(code == 0 and "corrupt 1" in out and result is not None and
          result["failed"] > 0 and not result["correct"] and
          digest(out) == digest(clean),
          "corrupted prefilled cell recomputed, counted corrupt and failed, "
          "digest unchanged")

    code, out, result = tiny(binary, "fig3_grid", 0, "--wrong-digest")
    check(code == 0 and result is not None and result["failed"] > 0 and
          not result["correct"],
          "wrong expected digest counts as a failed operation")

    # A checkout holding only BENCHMARK.json and perfbench/.
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    check(res.returncode != 0 and '"correct"' not in res.stdout,
          "without src/ run.py exits non-zero with no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("\n%d check(s) failed" % len(FAILURES) if FAILURES else
          "\nall checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

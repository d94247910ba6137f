#!/usr/bin/env python3
"""Build and run the served-path benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload cold_search|clustered_hot|paper_sweep|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
`anc_e2e` in Release mode from the repository's sources into the
directory named by $CARGO_TARGET_DIR (default `.bench_build`); later runs
only rebuild what changed. For one workload the benchmark's own output
is passed through, so the last line is its JSON result. `--workload all`
runs the three workloads one after another, each in its own process,
and prints one row per workload and a combined JSON line.

Exit status: 0 when every check passed, 1 when the oracle, the
determinism guard or the replay check failed, 2 when the benchmark could
not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_search", "clustered_hot", "paper_sweep"]
# A run must end within 180 s; the benchmark itself stops after
# --seconds plus at most one pass and its checks.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "anc_e2e"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            code = subprocess.run(cmd, stdout=sys.stderr).returncode
        except OSError as e:
            code = "%s" % e
        if code != 0:
            print("perfbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def command(bdir, workload, args):
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    return [os.path.join(bdir, "anc_e2e"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--samples", os.path.join(ROOT, "tools", "samples"),
            "--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (workload, args.seed))]


def run_one(bdir, workload, args, capture):
    try:
        p = subprocess.run(command(bdir, workload, args), cwd=ROOT,
                           stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 2, ""
    return p.returncode, p.stdout or ""


def run_all(bdir, args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    rows = []
    for w in WORKLOADS:
        code, out = run_one(bdir, w, args, capture=True)
        lines = out.strip().splitlines()
        if code not in (0, 1) or not lines:
            return 2
        status = max(status, code)
        rows += [l for l in lines[:-1] if l.startswith("row ")]
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (w, name)] = m
    for r in rows:
        print(r)
    print(json.dumps(total))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    if not build(bdir):
        return 2
    if args.workload == "all":
        return run_all(bdir, args)
    code, _ = run_one(bdir, args.workload, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate the simulator-scored plan search against its baseline.

Usage: check_search.py CURRENT.json BASELINE.json [TOLERANCE]

Reads the BENCH_search.json written by `bench_search` and the committed
baseline, then fails (exit 1) when:

  * any kernel of the baseline is missing from the current run -- a
    silently dropped kernel would make the gate vacuous;
  * fewer than MIN_IMPROVED kernels improved -- the issue's acceptance
    bar is that the search strictly beats the heuristic on at least two
    gallery kernels;
  * a baseline win was lost: a kernel the baseline improves must still
    improve, and its simulated speedup must not shrink (the simulator
    is deterministic, so a smaller speedup means the search or the cost
    model changed -- SPEEDUP_EPS only absorbs float formatting);
  * admissibility broke: any kernel's searched simulated time exceeds
    its heuristic simulated time;
  * search work grew: any kernel's exact work counts -- `sim_runs`
    (simulated runs) and `bounded` (transformations given loop bounds)
    -- exceed the baseline's. Both are deterministic, so the gate is
    exact;
  * search wall time regressed: any kernel's search exceeds
    TOLERANCE x its baseline wall time plus an absolute slack
    (ABS_SLACK_S) that keeps timer noise on sub-millisecond searches
    from tripping the gate.

Exit status: 0 when every check passes, 1 otherwise.
"""

import json
import sys

ABS_SLACK_S = 0.25
DEFAULT_TOLERANCE = 3.0
MIN_IMPROVED = 2
SPEEDUP_EPS = 1e-6
WORK_COUNTS = ("sim_runs", "bounded")


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    return {r["label"]: r for r in doc.get("runs", [])}


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 1
    current = load_runs(argv[1])
    baseline = load_runs(argv[2])
    tolerance = float(argv[3]) if len(argv) > 3 else DEFAULT_TOLERANCE
    errors = []

    for label in baseline:
        if label not in current:
            errors.append("missing kernel %s" % label)

    improved = 0
    for label, r in sorted(current.items()):
        searched = float(r["sim_time_us"])
        heuristic = float(r["heuristic_us"])
        if searched > heuristic:
            errors.append(
                "%s: searched plan lost to the heuristic "
                "(%.1f us vs %.1f us)" % (label, searched, heuristic))
        if r.get("improved"):
            improved += 1

    if improved < MIN_IMPROVED:
        errors.append(
            "only %d kernels improved; the issue requires >= %d"
            % (improved, MIN_IMPROVED))

    for label, base in sorted(baseline.items()):
        cur = current.get(label)
        if cur is None:
            continue  # already reported missing
        if base.get("improved") and not cur.get("improved"):
            errors.append(
                "%s: baseline win lost (search no longer improves it)"
                % label)
        elif base.get("improved"):
            if cur["speedup"] < base["speedup"] - SPEEDUP_EPS:
                errors.append(
                    "%s: speedup shrank: %.6fx vs baseline %.6fx"
                    % (label, cur["speedup"], base["speedup"]))
        for count in WORK_COUNTS:
            got = cur.get(count)
            if got is None or int(got) > int(base[count]):
                errors.append(
                    "%s: %s %s (baseline %d)"
                    % (label, count,
                       "missing" if got is None else "grew to %d" % int(got),
                       int(base[count])))
        budget = tolerance * base["wall_s"] + ABS_SLACK_S
        if cur["wall_s"] > budget:
            errors.append(
                "%s: search wall time regressed: %.4f s vs baseline "
                "%.4f s (budget %.4f s = %gx + %g s)"
                % (label, cur["wall_s"], base["wall_s"], budget,
                   tolerance, ABS_SLACK_S))
        else:
            print("ok:   %-14s %.4f s (budget %.4f s), speedup %.3fx%s"
                  % (label, cur["wall_s"], budget, cur["speedup"],
                     " [improved]" if cur.get("improved") else ""))

    for e in errors:
        print("FAIL: " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Refusals per seed against the benchmark baseline.

Runs ``perfbench/run.py --workload all`` once for each of seeds 1-10 and
fails when a workload's share of refused verdicts, ``ops_failed`` over
``ops_attempted``, exceeds its ``failed_by_seed`` entry in
``perfbench/baseline.json``, or when a run reports a wrong verdict.  Each
line it prints also names the baseline refusals that no longer occur, the
list from which ``failed_by_seed`` can be lowered.  Run it from the
repository root: ``python3 .github/check_refusals.py``.
"""

import json
import subprocess
import sys
from fractions import Fraction

SEEDS = range(1, 11)


def main() -> int:
    with open("perfbench/baseline.json") as fh:
        baseline = json.load(fh)["workloads"]
    problems = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all",
             "--seed", str(seed), "--seconds", "0.1", "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"seed {seed}: run.py exited with "
                            f"{proc.returncode}\n{proc.stderr}")
        reports = [json.loads(line) for line in proc.stdout.splitlines()]
        seen = set()
        for rep in reports:
            if "workload" not in rep:
                continue  # the result line that follows each report
            name = rep["workload"]
            seen.add(name)
            known = baseline[name]["failed_by_seed"][str(seed)]
            share = Fraction(rep["ops_failed"], rep["ops_attempted"])
            allowed = Fraction(known["failed"], known["attempted"])
            refused = sorted(r["op"] for r in rep["refusals"])
            mended = sorted(set(known["refused"]) - set(refused))
            print(f"seed {seed} {name}: {rep['ops_failed']}/"
                  f"{rep['ops_attempted']} refused (baseline "
                  f"{known['failed']}/{known['attempted']}) {refused}; "
                  f"baseline refusals that no longer occur: {mended}")
            if share > allowed:
                problems.append(
                    f"seed {seed} {name}: {share} of the verdicts refused, "
                    f"baseline {allowed} ({known['refused']})")
        missing = set(baseline) - seen
        if missing:
            problems.append(f"seed {seed}: no report for {sorted(missing)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

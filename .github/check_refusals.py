"""Refusals per seed: every verdict must be decided.

Runs ``perfbench/run.py --workload all`` once for each of seeds 1-20 and
fails when any workload refuses any verdict (``ops_failed`` above zero),
when a run reports a wrong verdict, or when a workload gives no report.
Each line it prints also names the refusals recorded in the
``failed_by_seed`` entry of ``perfbench/baseline.json`` (seeds 1-10) that no
longer occur.  Run it from the repository root:
``python3 .github/check_refusals.py``.
"""

import json
import subprocess
import sys

SEEDS = range(1, 21)


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
            known = baseline[name]["failed_by_seed"].get(str(seed))
            refused = sorted(r["op"] for r in rep["refusals"])
            mended = ([] if known is None
                      else sorted(set(known["refused"]) - set(refused)))
            print(f"seed {seed} {name}: {rep['ops_failed']}/"
                  f"{rep['ops_attempted']} refused {refused}; "
                  f"baseline refusals that no longer occur: {mended}")
            if rep["ops_failed"]:
                problems.append(f"seed {seed} {name}: {rep['ops_failed']} "
                                f"verdicts refused {refused}")
        missing = set(baseline) - seen
        if missing:
            problems.append(f"seed {seed}: no report for {sorted(missing)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

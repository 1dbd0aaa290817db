"""Smoke test of the benchmark itself: python3 bench/smoke.py (about two minutes).

Runs the shortest run of every workload untraced once and traced twice with
one seed, and checks that:

* the last line is the result object, with every metric BENCHMARK.json names
  for that mode and its unit, and ``correct`` true;
* the end-to-end metrics are never 0;
* the counts exante.solve_lp.calls, exante.lp.iterations, sim.episodes,
  policies.rolling.window_lps and the failed ops repeat exactly across the two
  traced runs, and the traced and untraced runs print the same results digest;
* the four pinned fuzz draws are among the failures recorded on ``plan``.

Exits 1 and names every broken check otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
REPEATED_COUNTS = ("exante.solve_lp.calls", "exante.lp.iterations", "sim.episodes",
                   "policies.rolling.window_lps")


def run(workload: str, trace: int):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("info digest="))
    return lines, digest, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {0: [run(workload, 0)], 1: [run(workload, 1), run(workload, 1)]}
        for trace, results in runs.items():
            for lines, _, out in results:
                where = f"{workload} --trace {trace}"
                if set(out) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(out)}")
                    continue
                if out["correct"] is not True or out["attempted"] < 1:
                    problems.append(f"{where}: correct={out['correct']} attempted={out['attempted']}")
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                if got != wanted[trace]:
                    missing = sorted(set(wanted[trace]) - set(got))
                    extra = sorted(set(got) - set(wanted[trace]))
                    wrong = sorted(n for n in set(got) & set(wanted[trace])
                                   if got[n] != wanted[trace][n])
                    problems.append(f"{where}: missing {missing} extra {extra} wrong unit {wrong}")
                values = {name: m["value"] for name, m in out["metrics"].items()}
                if not all(isinstance(v, (int, float)) for v in values.values()):
                    problems.append(f"{where}: non-numeric metric values")
                if trace == 0:
                    zero = sorted(n for n, v in values.items() if v == 0)
                    if zero:
                        problems.append(f"{where}: end-to-end metrics read 0: {zero}")
        (_, d1, a), (_, d2, b) = runs[1]
        for name in REPEATED_COUNTS:
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} differs across same-seed runs "
                                f"({a['metrics'][name]['value']} vs {b['metrics'][name]['value']})")
        if a["failed"] != b["failed"]:
            problems.append(f"{workload}: failed ops differ across same-seed runs")
        d0 = runs[0][0][1]
        if not d0 == d1 == d2:
            problems.append(f"{workload}: results digest differs between runs ({d0}, {d1}, {d2})")
        if workload == "plan":
            failed_lines = "\n".join(line for line in runs[0][0][0] if line.startswith("FAIL"))
            for draw in (185, 264, 1743, 2380):
                if f"op=fuzz#{draw} " not in failed_lines:
                    problems.append(f"plan: pinned draw {draw} is not among the failures")
        print(f"{workload}: checked ({a['attempted']} ops, {a['failed']} failed)", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

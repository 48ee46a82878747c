#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 rebuildbench/steadiness.py --runs 10 --sets 2

For each workload in ``BENCHMARK.json`` this runs ``--sets`` sets of
``--runs`` runs, each run with its own seed, one after the other.  For
every end-to-end metric it prints each set's median and quartiles and
the spread (interquartile range over the median), then says whether

* each set's spread stays within the metric's bound;
* the last set's median is no worse than the first's by more than the
  bound;
* the share of failed operations is the same in every set.

Exits 1 when any check fails.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i
                runs.append(run_once(bench["command"], name, seed,
                                     bench["run_seconds"]))
            sets.append(runs)
        ok &= report(name, sets, bench["end_to_end"])
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def report(name: str, sets: list[list[dict]], metrics: list[dict]) -> bool:
    ok = True
    print(f"\n== {name}  ({len(sets)} sets x {len(sets[0])} runs)")
    shares = {
        sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for runs in sets
    }
    if len(shares) > 1:
        print(f"  failed share differs between sets: {sorted(shares)}")
        ok = False
    print(f"  {'metric':<22}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for metric in metrics:
        key, bound = metric["name"], metric["bound"]
        medians = []
        for s, runs in enumerate(sets):
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians.append(med)
            steady = spread <= bound
            ok &= steady
            verdict = "ok" if steady else "TOO WIDE"
            if spread > bound / 3:
                verdict += " (over a third of the bound)"
            print(f"  {key:<22}{s + 1:>4}{q1:>12.5g}{med:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
        change = medians[-1] / medians[0] - 1.0
        worse = change if metric["better"] == "lower" else -change
        if len(sets) > 1:
            agree = worse <= bound
            ok &= agree
            print(f"  {'':<22}last vs first median {change:+.3f}: "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` records that run.py (or
series.py) wrote, one per run. For every workload and end-to-end metric
this prints each side's median and quartiles over its runs, the pairs the
change won (runs paired by seed; ties count for neither side) and a
verdict:

* ``better``: the change won at least 9/10 of the pairs and the medians
  differ by more than the base's interquartile distance, or every change
  run beat every base run;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: the base's spread (interquartile distance over median)
  exceeds the bound, so "no change" cannot be told from noise;
* ``within bound``: none of the above.

Metrics with bound 0 (quality, failed fraction) are compared seed by seed
and read ``same`` only when every pair is identical.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import stats

WIN_SHARE = 0.9


def load(directory: str) -> dict[str, dict[int, dict]]:
    """Records by workload, then seed."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def _better(a: float, b: float, direction: str) -> bool:
    return b < a if direction == "lower" else b > a


def verdict(base: dict[int, float], change: dict[int, float], direction: str, bound: float):
    a, b = list(base.values()), list(change.values())
    pairs = sorted(set(base) & set(change))
    if bound is None:
        return "not gated"
    if bound == 0:
        differ = sum(base[s] != change[s] for s in pairs)
        return f"changed on {differ}/{len(pairs)} seeds" if differ else f"same on {len(pairs)} seeds"
    wins = sum(_better(base[s], change[s], direction) for s in pairs)
    med_a, med_b = stats.median(a), stats.median(b)
    q1, q3 = stats.quartiles(a)
    worse_by = (med_b - med_a if direction == "lower" else med_a - med_b) / abs(med_a)
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(med_b - med_a) > q3 - q1:
        label = "better"
    elif all(_better(x, y, direction) for x in a for y in b):
        label = "better"
    elif worse_by > bound:
        label = "worse"
    elif stats.spread(a) > bound:
        label = "unresolved"
    else:
        label = "within bound"
    return f"{label} (wins {wins}/{len(pairs)})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("error: both directories need *-trace0.json run records", file=sys.stderr)
        return 2
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, {}), change.get(workload, {})
        if not a_runs or not b_runs:
            print(f"{workload}: runs on one side only")
            continue
        roles = sorted({r["fingerprint"]["seed_role"] for r in (*a_runs.values(), *b_runs.values())})
        hashes = {side: sorted({r["fingerprint"]["config_hash"] for r in runs.values()})
                  for side, runs in (("base", a_runs), ("change", b_runs))}
        print(f"{workload}: {len(a_runs)} base runs, {len(b_runs)} change runs, seeds {'/'.join(roles)}")
        if hashes["base"] != hashes["change"]:
            print(f"  warning: workload configs differ {hashes}")
        first = next(iter(a_runs.values()))["end_to_end"]
        for name, meta in first.items():
            a = {s: r["end_to_end"][name]["value"] for s, r in a_runs.items() if name in r["end_to_end"]}
            b = {s: r["end_to_end"][name]["value"] for s, r in b_runs.items() if name in r["end_to_end"]}
            if not a or not b:
                continue
            cols = []
            for vals in (a, b):
                q1, q3 = stats.quartiles(vals.values())
                cols.append(f"{stats.median(vals.values()):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"  {name:<28} {meta['unit']:<6} base {cols[0]:<34} change {cols[1]:<34} "
                  f"{verdict(a, b, meta['better'], meta.get('bound'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

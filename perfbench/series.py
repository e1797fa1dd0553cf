"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/series.py --out DIR [--workloads a,b] [--seeds 0-9] [--trace 0]

Runs the command from BENCHMARK.json for every workload and seed, one run
at a time, from the checkout root. Each run leaves its record in DIR (the
input of compare.py). For every workload and contract metric it prints the
median, the quartiles and the spread (interquartile distance over median)
against the metric's bound; a spread must stay below a third of its bound
(``setup_s`` excepted) for the benchmark to count as steady.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="directory for the run records")
    p.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1000,1001")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    listed = contract["per_layer"] if args.trace else contract["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in listed}
        for seed in parse_seeds(args.seeds):
            cmd = contract["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", str(args.trace),
                "--out", os.path.abspath(args.out),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in values and not args.trace), flush=True)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        if args.trace:
            continue
        for m in listed:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, q3 = stats.quartiles(vals)
            spread = stats.spread(vals)
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            print(f"  {workload:<14} {m['name']:<12} median {stats.median(vals):.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} bound {m['bound']} "
                  f"{'steady' if steady else 'NOT STEADY'}")
            ok = ok and steady
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

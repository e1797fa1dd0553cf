"""Record the quality each workload reaches per seed into reference.json.

    python3 perfbench/reference.py [--seeds 0-29,1000-1009] [--workloads a,b]

run.py fails any repetition whose quality (test AUC or test MAE) differs
from the recorded value by more than a relative 1e-6, which is how the
benchmark guards the rule that speed work must not change results. Re-run
this only when a change is meant to alter results, and say so in the
change. Seeds merge into the existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import env
from series import parse_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-29,1000-1009")
    p.add_argument("--workloads", default="timing_lstm,wide_sweep,quickstart_cv")
    args = p.parse_args(argv)
    env.prepare()
    import workloads

    with open(PATH) as fh:
        doc = json.load(fh)
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for name in args.workloads.split(","):
            workload = workloads.make(name, work)
            for seed in parse_seeds(args.seeds):
                state = workload.setup(seed)
                try:
                    _, output = workload.run(state, calibrate=False)
                    quality, _, _, failures = workload.check(state, output)
                finally:
                    workload.teardown(state)
                if failures:
                    print(f"error: {name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                doc["quality"].setdefault(name, {})[str(seed)] = quality
                print(f"{name} seed {seed}: {quality}", flush=True)
    doc["quality"] = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0])))
                      for w, s in sorted(doc["quality"].items())}
    with open(PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

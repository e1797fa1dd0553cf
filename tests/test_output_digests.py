"""``tools/output_digests.py``, the byte-identity check of every file the commands write:
its output repeats from run to run and lists every file that it wrote."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = ("lstm_cat_te", "sa_lstm_add_te", "logreg_mask", "mlp_cat_te", "linreg_none")
RUN_FILES = ("report.json", "report.csv", "experiment.json", "test_episodes.npz", "sweep.csv",
             "params_fold0.npz", "params_fold1.npz", "params_fold2.npz")


def digest_output() -> str:
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "output_digests.py")],
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_digests_repeat_and_cover_every_file_written():
    first = digest_output()
    assert digest_output() == first
    digests = json.loads(first)
    expected = {f"gen_{data}.json" for data in ("classes", "hours")}
    expected |= {f"{data}/{name}" for data in ("classes", "hours")
                 for name in ("data.csv", "labels.csv", "schema.json", "manifest.json")}
    expected |= {f"train_{run}.json" for run in RUNS} | {f"{run}/{name}" for run in RUNS for name in RUN_FILES}
    assert set(digests) == expected | {"times.csv", "encoded.csv"}
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest in digests.values())

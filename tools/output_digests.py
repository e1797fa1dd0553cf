"""Print the sha256 of every file that a fixed set of ``tembed`` commands writes.

In a temporary directory, through ``tembed.cli.main``, it runs:

* two ``gen``s of 120 episodes: a 4-channel classification set and a
  6-channel regression set;
* five ``train``s at k=3 x R=2, 3 epochs: lstm ``cat_te``, sa_lstm
  ``add_te`` and logreg ``mask`` classifiers, mlp ``cat_te`` and linreg
  ``none`` regressors;
* a ``sweep`` at fractions 1.0/0.7/0.3 after each train;
* one ``encode``.

It prints one JSON object, ``{relative path: sha256}``, over every file in
that directory: the configs and inputs it wrote and every command output.
It takes no options. The code it runs is the ``tembed`` that Python
imports, so ``PYTHONPATH=<checkout>/src python tools/output_digests.py``
digests a checkout, and equal output for two checkouts means a change kept
every written file byte-identical. The commands train on every CPU the
process may use; ``taskset -c 0`` runs them serially.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from tembed.cli import main

GEN = {
    "classes": {"n_channels": 4, "rate_per_hour": 0.5, "window_hours": 48.0,
                "task": "timing_classification", "gap_threshold_hours": 6.0, "rng_seed": 0},
    "hours": {"n_channels": 6, "rate_per_hour": 0.5, "window_hours": 48.0,
              "task": "elapsed_regression", "gap_threshold_hours": 6.0, "rng_seed": 1},
}
# run name: (data set, task, model section)
TRAIN = {
    "lstm_cat_te": ("classes", "classification", {"family": "lstm", "hidden": 8, "head_widths": [8],
                                                  "te_mode": "cat_te", "te_dim": 8}),
    "sa_lstm_add_te": ("classes", "classification", {"family": "sa_lstm", "hidden": 8, "head_widths": [8],
                                                     "te_mode": "add_te", "te_dim": 8,
                                                     "attention": {"d_a": 4, "r": 2}}),
    "logreg_mask": ("classes", "classification", {"family": "logreg", "te_mode": "mask"}),
    "mlp_cat_te": ("hours", "regression", {"family": "mlp", "mlp_widths": [16, 8], "head_widths": [8],
                                           "te_mode": "cat_te", "te_dim": 8}),
    "linreg_none": ("hours", "regression", {"family": "linreg"}),
}


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(list(argv))
    if status != 0:
        sys.exit(f"tembed {' '.join(argv)} exited {status}")


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def digests() -> dict[str, str]:
    """Write every output below the working directory, by relative paths so that no
    file records where it ran, and return the sha256 of each file there."""
    for name, synth in GEN.items():
        config = {"synth": synth, "n_episodes": 120, "out": name}
        _run("gen", "--config", _write_json(f"gen_{name}.json", config))
    for name, (data, task, model) in TRAIN.items():
        config = {"data": {"dir": data}, "task": task, "model": model,
                  "features": {"window": 48.0, "bin_width": 2.0},
                  "train": {"epochs": 3, "batch_size": 32, "k": 3, "runs_per_fold": 2},
                  "seed": 0, "out": name}
        _run("train", "--config", _write_json(f"train_{name}.json", config))
        _run("sweep", "--run-dir", name, "--keep-fractions", "1.0,0.7,0.3")
    with open("times.csv", "w") as fh:
        fh.write("t\n0.0\n0.5\n12.25\n47.0\n")
    _run("encode", "--input", "times.csv", "--out", "encoded.csv", "--dim", "8", "--max-time", "48")

    found = {}
    for directory, _, files in os.walk("."):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print(json.dumps(digests(), indent=1))

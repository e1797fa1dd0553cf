"""The benchmark's workloads.

Each workload has four steps. ``setup(seed)`` builds inputs and is timed
as set-up. ``run(state, calibrate)`` is one timed repetition; it returns
a ``_Timer`` with the time of each stage (and, with ``calibrate``, the host
speed around each stage) and the raw outputs. ``check(state, output)`` verifies those
outputs outside the timed region. ``teardown(state)`` removes what set-up
wrote. Everything is driven through the public functions of the
``tembed`` modules, looked up on the module at call time, so the traced
run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

import calib

from tembed import benchgen, cli, dataset, models, training
from tembed.encoding import EncoderConfig

# Window and grid shared by every workload: 48 h episodes on hourly bins.
WINDOW = 48.0
BIN_WIDTH = 1.0


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _params_digest(h, params: dict) -> None:
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())


class _Timer:
    """Accumulates wall seconds per named stage of one repetition.

    With ``calibrate`` it also measures the host speed before the first
    stage and after each one (see calib.py).
    """

    def __init__(self, calibrate: bool) -> None:
        self.stages: dict[str, float] = {}
        self.host = [calib.measure()] if calibrate else None

    @contextlib.contextmanager
    def __call__(self, stage: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[stage] = time.perf_counter() - t0
            if self.host is not None:
                self.host.append(calib.measure())

    def scaled(self) -> dict[str, float]:
        """Stage times in reference-host seconds."""
        return {stage: calib.scale(t, self.host[i], self.host[i + 1])
                for i, (stage, t) in enumerate(self.stages.items())}


class TimingLSTM:
    name = "timing_lstm"
    why = ("one criterion-06 train_one plus evaluate: LSTM forward/backward dominates, "
           "featurization is set-up only")
    stages = ("train_s", "eval_s")
    total_name = None
    quality = ("test_auc",)
    config = {
        "synth": {"n_channels": 1, "rate_per_hour": 0.5, "window_hours": WINDOW,
                  "task": "timing_classification", "gap_threshold_hours": 6.0},
        "n_episodes": 2500, "fit": 1600, "validation": 400, "test": 500,
        "model": {"family": "lstm", "hidden": 16, "te_mode": "cat_te", "te_dim": 4},
        "epochs": 3,
    }

    def setup(self, seed: int) -> dict:
        c = self.config
        synth = benchgen.SynthConfig(rng_seed=seed, **c["synth"])
        episodes, _ = benchgen.gen_dataset(synth, c["n_episodes"])
        schema = benchgen.synth_schema(synth)
        n_pool = c["fit"] + c["validation"]
        stats = dataset.fit_norm(episodes[:n_pool], schema)
        norm = [dataset.apply_norm(s, stats, schema) for s in episodes]
        m = c["model"]
        spec = models.ModelSpec(family=m["family"], task="classification", hidden=m["hidden"],
                                te_mode=m["te_mode"],
                                te_cfg=EncoderConfig.temporal(m["te_dim"], WINDOW))

        def arrays(part):
            binned = training.build_features(part, schema, WINDOW, BIN_WIDTH, spec)
            return training.prepare(binned, "classification")

        return {
            "seed": seed,
            "spec": spec,
            "hyper": training.Hyper(epochs=c["epochs"]),
            "fit": arrays(norm[: c["fit"]]),
            "val": arrays(norm[c["fit"]: n_pool]),
            "test": arrays(norm[n_pool:]),
        }

    def run(self, state: dict, calibrate: bool):
        timer = _Timer(calibrate)
        with timer("train_s"):
            result = training.train_one(state["spec"], state["fit"], state["val"],
                                        state["hyper"], state["seed"])
        with timer("eval_s"):
            scores = training.evaluate(state["spec"], result.params, state["test"])
        return timer, (result, scores)

    def check(self, state: dict, output) -> tuple[dict, str, dict, list[str]]:
        result, scores = output
        failures = []
        if not all(math.isfinite(h["train_loss"]) for h in result.history):
            failures.append("non-finite training loss")
        h = hashlib.sha256()
        _params_digest(h, result.params)
        h.update(_canonical({"history": result.history, "scores": scores}))
        work = {"train_s": state["fit"].n * state["hyper"].epochs}
        return {"test_auc": scores["auc_roc"]}, h.hexdigest(), work, failures

    def teardown(self, state: dict) -> None:
        pass


class WideSweep:
    name = "wide_sweep"
    why = ("inference only: sweep_dropout re-featurizes 1,000 18-channel episodes per "
           "fraction and runs SA-LSTM forward without backward")
    stages = ("sweep_s",)
    total_name = None
    quality = ("test_mae_hours",)
    config = {
        "synth": {"n_channels": 18, "rate_per_hour": 0.5, "window_hours": WINDOW,
                  "task": "elapsed_regression", "gap_threshold_hours": 6.0},
        "n_episodes": 1000,
        "model": {"family": "sa_lstm", "hidden": 32, "te_mode": "mask", "attention": "default"},
        "n_models": 2,
        "fractions": [1.0, 0.7, 0.4, 0.1],
    }

    def setup(self, seed: int) -> dict:
        c = self.config
        synth = benchgen.SynthConfig(rng_seed=seed, **c["synth"])
        episodes, _ = benchgen.gen_dataset(synth, c["n_episodes"])
        schema = benchgen.synth_schema(synth)
        stats = dataset.fit_norm(episodes, schema)
        test = [dataset.apply_norm(s, stats, schema) for s in episodes]
        m = c["model"]
        spec = models.ModelSpec(family=m["family"], task="regression", hidden=m["hidden"],
                                te_mode=m["te_mode"], attention=models.AttentionSpec())
        # mask mode: value, observed flag and gap fraction per channel
        width = models.model_input_width(spec, int(WINDOW / BIN_WIDTH), 3 * schema.n_channels)
        selected = {i: models.init_params(spec, width, [seed, i]) for i in range(c["n_models"])}
        return {"seed": seed, "spec": spec, "schema": schema, "test": test, "selected": selected}

    def run(self, state: dict, calibrate: bool):
        timer = _Timer(calibrate)
        with timer("sweep_s"):
            rows = training.sweep_dropout(state["spec"], state["selected"], state["test"],
                                          state["schema"], WINDOW, BIN_WIDTH,
                                          fractions=self.config["fractions"],
                                          base_seed=state["seed"])
        return timer, rows

    def check(self, state: dict, rows) -> tuple[dict, str, dict, list[str]]:
        failures = []
        fractions = self.config["fractions"]
        if len(rows) != 3 * len(fractions):
            failures.append(f"sweep has {len(rows)} rows, expected {3 * len(fractions)}")
        if not all(math.isfinite(r["value"]) and math.isfinite(r["std"]) for r in rows):
            failures.append("non-finite sweep value")
        mae = [r["value"] for r in rows if r["fraction"] == 1.0 and r["metric"] == "mae_hours"]
        digest = hashlib.sha256(training.sweep_to_csv(rows).encode()).hexdigest()
        work = {"sweep_s": len(state["test"]) * len(fractions)}
        return {"test_mae_hours": mae[0] if mae else float("nan")}, digest, work, failures

    def teardown(self, state: dict) -> None:
        pass


class QuickstartCV:
    name = "quickstart_cv"
    why = ("the README quickstart through tembed.cli.main: CSV write and load, k x R "
           "small models, params npz I/O and the sweep's reload")
    stages = ("gen_s", "train_s", "sweep_s")
    total_name = "pipeline_s"
    quality = ("test_auc",)
    keep_fractions = "1.0,0.5,0.2"
    config = {
        "gen": {
            "synth": {"n_channels": 4, "rate_per_hour": 0.5, "window_hours": WINDOW,
                      "task": "timing_classification", "gap_threshold_hours": 6.0},
            "n_episodes": 1000, "out": "bench",
        },
        "train": {
            "data": {"dir": "bench"}, "task": "classification",
            "model": {"family": "lstm", "hidden": 32, "te_mode": "cat_te", "te_dim": 32},
            "features": {"window": WINDOW, "bin_width": BIN_WIDTH},
            "train": {"epochs": 1, "batch_size": 100, "k": 3, "runs_per_fold": 2},
            "test_fraction": 0.2, "out": "run",
        },
        "sweep": ["--run-dir", "run", "--keep-fractions", keep_fractions],
    }

    def __init__(self, work_root: str) -> None:
        self.work_root = work_root

    def setup(self, seed: int) -> dict:
        os.makedirs(self.work_root, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_root)
        gen_cfg = json.loads(json.dumps(self.config["gen"]))
        gen_cfg["synth"]["rng_seed"] = seed
        train_cfg = dict(self.config["train"], seed=seed)
        paths = {"gen": os.path.join(work, "gen.json"), "train": os.path.join(work, "train.json")}
        for key, cfg in (("gen", gen_cfg), ("train", train_cfg)):
            with open(paths[key], "w") as fh:
                json.dump(cfg, fh)
        # the dataset `tembed gen` must write, built in memory to check the CSV round trip
        synth = benchgen.SynthConfig.from_dict(gen_cfg["synth"])
        episodes, _ = benchgen.gen_dataset(synth, gen_cfg["n_episodes"])
        return {"work": work, "paths": paths, "expected": episodes, "reps": 0, "checked_csv": False}

    def run(self, state: dict, calibrate: bool):
        timer = _Timer(calibrate)
        state["reps"] += 1
        rep_dir = os.path.join(state["work"], f"rep{state['reps']}")
        os.makedirs(rep_dir)
        here = os.getcwd()
        codes = {}
        os.chdir(rep_dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for stage, argv in (
                    ("gen_s", ["gen", "--config", state["paths"]["gen"]]),
                    ("train_s", ["train", "--config", state["paths"]["train"]]),
                    ("sweep_s", ["sweep"] + self.config["sweep"]),
                ):
                    with timer(stage):
                        codes[stage] = cli.main(argv)
                    if codes[stage] != 0:
                        break
        finally:
            os.chdir(here)
        return timer, (rep_dir, codes)

    def check(self, state: dict, output) -> tuple[dict, str, dict, list[str]]:
        rep_dir, codes = output
        try:
            failures = [f"{stage[:-2]} exited with {code}" for stage, code in codes.items() if code]
            if failures:
                return {}, "", {}, failures
            run_dir = os.path.join(rep_dir, "run")
            with open(os.path.join(run_dir, "report.json")) as fh:
                report = json.load(fh)
            if report["failed_runs"]:
                failures.append(f"{report['failed_runs']} diverged runs")
            names = ["bench/data.csv", "bench/labels.csv", "bench/manifest.json",
                     "run/report.json", "run/experiment.json", "run/sweep.csv"]
            names += [f"run/{n}" for n in sorted(os.listdir(run_dir)) if n.endswith(".npz")]
            h = hashlib.sha256()
            for name in names:
                h.update(name.encode())
                with open(os.path.join(rep_dir, name), "rb") as fh:
                    h.update(fh.read())
            if not state["checked_csv"]:
                failures += self._check_csv(state, rep_dir)
                state["checked_csv"] = True
            k = report["k"]
            folds = list(report["fold_of"].values())
            fits = sum(report["n_pool"] - folds.count(f) for f in range(k))
            work = {
                "train_s": fits * report["runs_per_fold"] * report["hyper"]["epochs"],
                "sweep_s": report["n_test"] * len(self.keep_fractions.split(",")),
            }
            return {"test_auc": report["aggregate"]["auc_roc"]["mean"]}, h.hexdigest(), work, failures
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def _check_csv(self, state: dict, rep_dir: str) -> list[str]:
        bench = os.path.join(rep_dir, "bench")
        schema = dataset.load_schema(os.path.join(bench, "schema.json"))
        loaded = dataset.load_csv(os.path.join(bench, "data.csv"), schema,
                                  os.path.join(bench, "labels.csv"))
        expected = sorted(state["expected"], key=lambda s: s.episode_id)
        same = len(loaded) == len(expected) and all(
            a.episode_id == b.episode_id and a.label == b.label
            and np.array_equal(a.times, b.times) and np.array_equal(a.channel_idx, b.channel_idx)
            and np.array_equal(a.values, b.values)
            for a, b in zip(loaded, expected)
        )
        return [] if same else ["data.csv does not reload to the generated episodes"]

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)


def make(name: str, work_root: str):
    """Build the named workload; ``work_root`` holds the files a workload writes."""
    if name == QuickstartCV.name:
        return QuickstartCV(work_root)
    for cls in (TimingLSTM, WideSweep):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (TimingLSTM.name, WideSweep.name, QuickstartCV.name)

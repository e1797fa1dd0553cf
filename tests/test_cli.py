"""End-to-end command-line behavior: gen, train, sweep, encode."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tembed import cli, training
from tembed.cli import main
from tembed.dataset import load_csv, load_episodes, load_schema
from tembed.encoding import EncoderConfig, te_batch
from tembed.models import load_params

SYNTH = {
    "n_channels": 2,
    "rate_per_hour": 0.9,
    "window_hours": 12.0,
    "task": "timing_classification",
    "gap_threshold_hours": 3.0,
    "rng_seed": 7,
}

TRAIN_CONFIG = {
    "data": {"synth": SYNTH, "n_episodes": 28},
    "task": "classification",
    "model": {"family": "logreg"},
    "features": {"window": 12.0, "bin_width": 2.0},
    "train": {"epochs": 1, "batch_size": 8, "k": 2, "runs_per_fold": 1},
    "test_fraction": 0.25,
    "seed": 3,
}


def write_config(tmp_path, obj, name="config.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_dataset_files(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        cfg = write_config(tmp_path, {"synth": SYNTH, "n_episodes": 10, "out": out})
        code, stdout, _ = run(["gen", "--config", cfg], capsys)
        assert code == 0
        for name in ("data.csv", "labels.csv", "schema.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        assert "wrote 10 episodes" in stdout
        schema = load_schema(os.path.join(out, "schema.json"))
        episodes = load_csv(
            os.path.join(out, "data.csv"), schema, os.path.join(out, "labels.csv")
        )
        assert len(episodes) == 10
        assert all(ep.label in (0.0, 1.0) for ep in episodes)

    def test_refuses_existing_output(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        cfg = write_config(tmp_path, {"synth": SYNTH, "n_episodes": 5, "out": out})
        assert run(["gen", "--config", cfg], capsys)[0] == 0
        code, _, stderr = run(["gen", "--config", cfg], capsys)
        assert code == 1
        assert "--force" in stderr
        assert run(["gen", "--config", cfg, "--force"], capsys)[0] == 0

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        cfg = write_config(tmp_path, {"synth": SYNTH, "n_episodes": 5})
        assert run(["gen", "--config", cfg, "--out", out_a, "--seed", "99"], capsys)[0] == 0
        assert run(["gen", "--config", cfg, "--out", out_b, "--seed", "99"], capsys)[0] == 0
        with open(os.path.join(out_a, "data.csv")) as fa, open(os.path.join(out_b, "data.csv")) as fb:
            assert fa.read() == fb.read()
        with open(os.path.join(out_a, "manifest.json")) as fh:
            assert json.load(fh)["config"]["rng_seed"] == 99

    def test_reports_every_problem_at_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_episodes": 0, "typo": 1})
        code, _, stderr = run(["gen", "--config", cfg], capsys)
        assert code == 1
        assert "top level: unknown keys ['typo']; missing keys ['synth']" in stderr
        assert "n_episodes must be an integer >= 1, got 0" in stderr
        assert "no output directory" in stderr

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, stderr = run(["gen", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert "config file not found" in stderr

    def test_invalid_json(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        code, _, stderr = run(["gen", "--config", path], capsys)
        assert code == 1
        assert "not valid JSON" in stderr

    def test_refuses_an_episode_without_observations_and_leaves_no_directory(self, tmp_path, capsys):
        # its label row would have no data row, and `tembed train` on the directory would fail
        sparse = {"n_channels": 1, "rate_per_hour": 0.02, "window_hours": 48.0,
                  "task": "timing_classification", "gap_threshold_hours": 6.0, "rng_seed": 0}
        out = tmp_path / "data"
        cfg = write_config(tmp_path, {"synth": sparse, "n_episodes": 50, "out": str(out)})
        code, stdout, stderr = run(["gen", "--config", cfg], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == "error: episode 'ep000000' has no observations, so it would have no CSV rows to read back\n"
        assert not out.exists()

    def test_bad_synth_values_reported(self, tmp_path, capsys):
        bad = dict(SYNTH, rate_per_hour=-1.0)
        cfg = write_config(tmp_path, {"synth": bad, "n_episodes": 5, "out": str(tmp_path / "o")})
        code, _, stderr = run(["gen", "--config", cfg], capsys)
        assert code == 1
        assert "synth: " in stderr and "rate_per_hour" in stderr


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    out = str(tmp / "run")
    cfg = write_config(tmp, dict(TRAIN_CONFIG, out=out))
    assert main(["train", "--config", cfg]) == 0
    return out


class TestTrain:

    def test_writes_report_params_experiment(self, run_dir, capsys):
        for name in ("report.json", "report.csv", "experiment.json",
                     "params_fold0.npz", "params_fold1.npz", "test_episodes.npz"):
            assert os.path.exists(os.path.join(run_dir, name)), name

    def test_report_json_contents(self, run_dir):
        with open(os.path.join(run_dir, "report.json")) as fh:
            report = json.load(fh)
        assert report["model"] == "LogR"
        assert report["k"] == 2
        assert len(report["rows"]) == 2
        assert report["n_pool"] + report["n_test"] == 28
        assert report["n_test"] == 6  # stratified split floors each class count
        assert set(report["aggregate"]) == {"auc_roc", "ap"}

    def test_report_csv_header(self, run_dir):
        with open(os.path.join(run_dir, "report.csv")) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "model,metric,mean,std,stderr,n"
        assert len(lines) == 3
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] == "LogR"
            float(parts[2]), float(parts[3]), float(parts[4])
            assert parts[5] == "2"

    def test_experiment_records_the_run(self, run_dir):
        with open(os.path.join(run_dir, "experiment.json")) as fh:
            experiment = json.load(fh)
        assert experiment["task"] == "classification"
        assert experiment["spec"]["family"] == "logreg"
        assert experiment["window"] == 12.0
        assert experiment["seed"] == 3
        assert len(experiment["test_ids"]) == 6
        assert experiment["selected_folds"] == [0, 1]
        assert "per_channel" in experiment["norm_stats"] or experiment["norm_stats"]

    @pytest.mark.parametrize("k,test_fraction,problem", [
        (5, 0.2, r"validation fold \d has no episode labelled 1; the pool has 2 of 48"),
        (2, 0.01, r"the test set has no episode labelled 1; the pool has 3 of 59"),
    ])
    def test_refuses_a_split_without_both_labels_before_training(self, tmp_path, capsys, monkeypatch,
                                                                 k, test_fraction, problem):
        # 5 % positive: 3 positive episodes of 60
        synth = {"n_channels": 1, "rate_per_hour": 0.5, "window_hours": 48.0,
                 "gap_threshold_hours": 14.0, "rng_seed": 0}
        out = str(tmp_path / "run")
        cfg = write_config(tmp_path, {
            **TRAIN_CONFIG, "data": {"synth": synth, "n_episodes": 60}, "features": {"window": 48.0},
            "train": {"epochs": 1, "k": k, "runs_per_fold": 1}, "test_fraction": test_fraction, "out": out})
        monkeypatch.setattr(training, "train_one", lambda *a: pytest.fail("a training started"))
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert re.fullmatch(f"error: {problem}\n", stderr), stderr
        assert not os.path.exists(out)

    def test_deterministic_across_runs(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "again")
        cfg = write_config(tmp_path, dict(TRAIN_CONFIG, out=out))
        assert run(["train", "--config", cfg], capsys)[0] == 0
        for name in ("report.json", "test_episodes.npz"):
            with open(os.path.join(run_dir, name), "rb") as fa, open(os.path.join(out, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_stdout_summary(self, tmp_path, capsys):
        out = str(tmp_path / "run2")
        cfg = write_config(tmp_path, dict(TRAIN_CONFIG, out=out))
        code, stdout, _ = run(["train", "--config", cfg], capsys)
        assert code == 0
        assert "LogR,auc_roc," in stdout
        assert f"wrote {out}" in stdout

    def test_refuses_existing_output(self, run_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TRAIN_CONFIG, out=run_dir))
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert "--force" in stderr

    def test_force_removes_the_sweep_and_fold_models_it_does_not_rewrite(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        k3 = write_config(tmp_path, dict(TRAIN_CONFIG, train={**TRAIN_CONFIG["train"], "k": 3}, out=out),
                          "k3.json")
        k2 = write_config(tmp_path, dict(TRAIN_CONFIG, out=out), "k2.json")
        assert run(["train", "--config", k3], capsys)[0] == 0
        assert run(["sweep", "--run-dir", out], capsys)[0] == 0
        with open(os.path.join(out, "notes.txt"), "w") as fh:
            fh.write("kept\n")
        assert run(["train", "--config", k2, "--force"], capsys)[0] == 0
        assert sorted(os.listdir(out)) == ["experiment.json", "notes.txt", "params_fold0.npz", "params_fold1.npz",
                                           "report.csv", "report.json", "test_episodes.npz"]
        assert run(["sweep", "--run-dir", out], capsys)[0] == 0

    def test_reports_every_problem_at_once(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "data": {"synth": SYNTH, "n_episodes": 28},
                "task": "classification",
                "model": {"family": "logreg", "depth": 2},
                "train": {"lr": -1.0, "k": 1},
            },
        )
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert "unknown keys ['depth']" in stderr
        assert "train: " in stderr and "lr" in stderr
        assert "train.k must be" in stderr
        assert "no output directory" in stderr

    def test_rejects_unknown_task(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dict(TRAIN_CONFIG, task="ranking", out=str(tmp_path / "o")),
        )
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert "task must be 'classification' or 'regression'" in stderr

    @pytest.mark.parametrize("task,problem", [
        (None, "top level: missing keys ['task']"),
        ("ranking", "task must be 'classification' or 'regression', got 'ranking'"),
    ], ids=["missing", "unknown"])
    def test_a_bad_task_is_listed_once_at_the_top_level(self, tmp_path, capsys, task, problem):
        config = {key: value for key, value in TRAIN_CONFIG.items() if key != "task"}
        cfg = write_config(tmp_path, dict(config, out=str(tmp_path / "o"), **({"task": task} if task else {})))
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert stderr == f"error: config problems:\n  {problem}\n"

    def test_refuses_a_regression_test_set_of_one_label_before_training(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path, {
            "data": {"synth": {"n_channels": 1, "task": "elapsed_regression"}, "n_episodes": 12},
            "task": "regression", "model": {"family": "linreg"},
            "train": {"epochs": 1, "k": 2, "runs_per_fold": 1}, "test_fraction": 0.05, "out": out,
        })
        monkeypatch.setattr(training, "train_one", lambda *a: pytest.fail("a training started"))
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert re.fullmatch(r"error: the test set has 1 episode\(s\), each labelled [0-9.]+ hours; "
                            r"explained variance needs two label values\n", stderr)
        assert not os.path.exists(out)

    def test_missing_dataset_files(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dict(TRAIN_CONFIG, data={"dir": str(tmp_path / "nowhere")}, out=str(tmp_path / "o")),
        )
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert "data.data_csv: file not found" in stderr
        assert "data.schema: file not found" in stderr

    def test_a_synth_source_may_hold_episodes_without_observations(self, tmp_path, capsys):
        # no CSV is written, so such an episode trains, is saved in the test set and is swept
        synth = {"n_channels": 1, "rate_per_hour": 0.15, "window_hours": 12.0, "task": "elapsed_regression",
                 "gap_threshold_hours": 3.0, "rng_seed": 7}
        out = str(tmp_path / "run")
        cfg = write_config(tmp_path, dict(TRAIN_CONFIG, data={"synth": synth, "n_episodes": 40}, task="regression",
                                          model={"family": "linreg"}, out=out))
        assert run(["train", "--config", cfg], capsys)[0] == 0
        test, _ = load_episodes(os.path.join(out, "test_episodes.npz"))
        assert any(ep.n_obs == 0 for ep in test)
        assert run(["sweep", "--run-dir", out], capsys)[0] == 0

    def test_trains_from_generated_directory(self, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        gen_cfg = write_config(
            tmp_path, {"synth": SYNTH, "n_episodes": 28, "out": data_dir}, "gen.json"
        )
        assert run(["gen", "--config", gen_cfg], capsys)[0] == 0
        out = str(tmp_path / "run")
        train_cfg = write_config(
            tmp_path, dict(TRAIN_CONFIG, data={"dir": data_dir}, out=out), "train.json"
        )
        code, stdout, _ = run(["train", "--config", train_cfg], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out, "report.json"))


class TestSweep:

    def test_writes_fraction_csv(self, run_dir, capsys):
        code, stdout, _ = run(
            ["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0,0.5"], capsys
        )
        assert code == 0
        path = os.path.join(run_dir, "sweep.csv")
        assert os.path.exists(path)
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "model,fraction,metric,value,std"
        assert len(lines) == 1 + 2 * 2  # 2 fractions x {auc_roc, ap}
        fractions = {line.split(",")[1] for line in lines[1:]}
        assert fractions == {"1.0", "0.5"}
        assert "wrote 4 rows" in stdout

    def test_refuses_existing_sweep(self, run_dir, capsys):
        code, _, stderr = run(
            ["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0"], capsys
        )
        assert code == 1
        assert "--force" in stderr
        code, _, _ = run(
            ["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0", "--force"], capsys
        )
        assert code == 0

    def test_refused_sweep_loads_nothing(self, run_dir, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "done")
        os.makedirs(out)
        with open(os.path.join(out, "sweep.csv"), "w") as fh:
            fh.write("kept\n")
        loads = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: loads.append("data"))
        monkeypatch.setattr(cli, "gen_dataset", lambda *a: loads.append("data"))
        monkeypatch.setattr(cli, "load_episodes", lambda *a: loads.append("test set"))
        monkeypatch.setattr(cli, "load_params", lambda *a: loads.append("params"))
        code, _, stderr = run(
            ["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0", "--out", out], capsys
        )
        assert code == 1
        assert "sweep.csv already exists; pass --force to overwrite" in stderr
        assert loads == []
        with open(os.path.join(out, "sweep.csv")) as fh:
            assert fh.read() == "kept\n"

    def test_requires_training_run(self, tmp_path, capsys):
        code, _, stderr = run(["sweep", "--run-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "tembed train" in stderr

    @pytest.mark.parametrize("raw,message", [
        ("1.0,abc", "comma-separated numbers"),
        ("0,0.5", "(0, 1]"),
        ("1.5", "(0, 1]"),
        ("", "(0, 1]"),
    ])
    def test_rejects_bad_fractions(self, run_dir, raw, message, capsys):
        code, _, stderr = run(
            ["sweep", "--run-dir", run_dir, "--keep-fractions", raw, "--force"], capsys
        )
        assert code == 1
        assert message in stderr

    def test_missing_params_file(self, run_dir, tmp_path, capsys):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(run_dir, broken)
        os.remove(os.path.join(broken, "params_fold1.npz"))
        if os.path.exists(os.path.join(broken, "sweep.csv")):
            os.remove(os.path.join(broken, "sweep.csv"))
        code, _, stderr = run(
            ["sweep", "--run-dir", broken, "--keep-fractions", "1.0"], capsys
        )
        assert code == 1
        assert "missing model file" in stderr

    def test_separate_output_directory(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "elsewhere")
        code, _, _ = run(
            ["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0", "--out", out], capsys
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "sweep.csv"))

    def test_output_directory_from_flag_then_config(self, run_dir, tmp_path, capsys):
        from_config, from_flag = str(tmp_path / "from_config"), str(tmp_path / "from_flag")
        cfg = write_config(tmp_path, {"run_dir": run_dir, "fractions": [1.0], "out": from_config})
        assert run(["sweep", "--config", cfg], capsys)[0] == 0
        assert os.path.exists(os.path.join(from_config, "sweep.csv"))
        assert run(["sweep", "--config", cfg, "--out", from_flag], capsys)[0] == 0
        assert os.path.exists(os.path.join(from_flag, "sweep.csv"))


CAT_TE_LSTM = {"family": "lstm", "hidden": 4, "te_mode": "cat_te"}
SA_LSTM = {"family": "sa_lstm", "hidden": 4}


@pytest.mark.parametrize("command,config,messages,n_problems", [
    ("train", {"features": {"window": None}}, ["features.window"], 1),
    ("train", {"features": {"window": None}, "model": CAT_TE_LSTM}, ["features.window"], 1),
    ("train", {"features": {"window": "abc"}, "train": {"k": 1}},
     ["features.window", "'abc'", "train.k must be"], 2),
    ("train", {"model": dict(CAT_TE_LSTM, te_max_time=None)}, ["model: "], 1),
    ("train", {"train": {"epochs": 1.5}}, ["train: epochs must be an integer >= 0, got 1.5"], 1),
    ("train", {"train": {"lr": True}}, ["train: lr must be a finite number > 0, got True"], 1),
    ("sweep", {"seed": 1.5}, ["seed must be an integer >= 0, got 1.5"], 1),
    ("sweep", {"fractions": []}, ["config fractions must be one or more numbers in (0, 1]"], 1),
    ("sweep", {"fractions": ["a"]}, ["config fractions must be comma-separated numbers"], 1),
    ("train", {"model": {"family": "lstm", "hidden": 4.5}},
     ["model: hidden must be an integer >= 1, got 4.5"], 1),
    ("train", {"model": {"family": "lstm", "hidden": True}},
     ["model: hidden must be an integer >= 1, got True"], 1),
    ("train", {"model": {"family": "lstm", "hidden": 4, "head_widths": [3.5]}},
     ["model: layer width must be an integer >= 1, got 3.5"], 1),
    ("train", {"model": dict(SA_LSTM, attention={"r": 2.5})},
     ["model.attention: r must be an integer >= 1, got 2.5"], 1),
    ("train", {"model": dict(SA_LSTM, attention={"penalty_c": float("nan")})},
     ["model.attention: penalty_c must be a finite number >= 0, got nan"], 1),
    ("train", {"data": {"synth": dict(SYNTH, n_channels=2.5), "n_episodes": 28}},
     ["data.synth: n_channels must be an integer >= 1, got 2.5"], 1),
    ("train", {"data": {"synth": dict(SYNTH, n_channels=True), "n_episodes": 28}},
     ["data.synth: n_channels must be an integer >= 1, got True"], 1),
    ("train", {"data": {"synth": dict(SYNTH, rng_seed=1.5), "n_episodes": 28}},
     ["data.synth: rng_seed must be an integer >= 0, got 1.5"], 1),
    ("train", {"data": {"synth": SYNTH, "n_episodes": True}},
     ["data.n_episodes must be an integer >= 1, got True"], 1),
    ("train", {"train": dict(TRAIN_CONFIG["train"], runs_per_fold=True)},
     ["train.runs_per_fold must be an integer >= 1, got True"], 1),
    ("train", {"seed": -1}, ["seed must be an integer >= 0, got -1"], 1),
    ("gen", {"n_episodes": True}, ["n_episodes must be an integer >= 1, got True"], 1),
    ("gen", {"synth": dict(SYNTH, n_channels=True)},
     ["synth: n_channels must be an integer >= 1, got True"], 1),
    ("train", {"features": {"window": 12.0, "bin_width": True}},
     ["features.bin_width must be a finite number > 0, got True"], 1),
    ("gen", {"synth": dict(SYNTH, rate_per_hour=True)},
     ["synth: rate_per_hour must be a finite number > 0, got True"], 1),
    ("train", {"data": {"synth": dict(SYNTH, window_hours=True), "n_episodes": 28}},
     ["data.synth: window_hours must be a finite number > 0, got True"], 1),
    ("train", {"model": dict(CAT_TE_LSTM, te_max_time=True)},
     ["model: max_time must be a finite number > 0, got True"], 1),
    ("train", {"train": {"weight_decay": False}},
     ["train: weight_decay must be a finite number >= 0, got False"], 1),
    ("train", {"train": dict(TRAIN_CONFIG["train"], bogus=2), "model": dict(SA_LSTM, attention={"bogus": 1})},
     ["train: unknown keys ['bogus']", "model.attention: unknown keys ['bogus']"], 2),
    ("train", {"features": 5}, ["features must be an object, got 5"], 1),
    ("train", {"features": "ab"}, ["features must be an object, got 'ab'"], 1),
    ("train", {"train": 7}, ["train must be an object, got 7"], 1),
    ("train", {"model": 5}, ["model must be an object, got 5"], 1),
    ("train", {"model": dict(SA_LSTM, attention=5)}, ["model.attention must be an object, got 5"], 1),
    ("train", {"data": 5}, ["data must be an object, got 5"], 1),
    ("gen", {"synth": 5}, ["synth must be an object, got 5"], 1),
    ("gen", {"synth": "ab"}, ["synth must be an object, got 'ab'"], 1),
    ("train", {"data": {"synth": 5, "n_episodes": 28}}, ["data.synth must be an object, got 5"], 1),
    ("gen", {"out": 5}, ["top level: out must be a path string, got 5"], 1),
    ("train", {"out": 5}, ["top level: out must be a path string, got 5"], 1),
    ("sweep", {"out": 5}, ["top level: out must be a path string, got 5"], 1),
    ("encode", {"out": 5}, ["top level: out must be a path string, got 5"], 1),
    ("sweep", {"run_dir": 5}, ["top level: run_dir must be a path string, got 5"], 1),
    ("train", {"data": {"dir": 5}}, ["data: dir must be a path string, got 5"], 1),
    ("train", {"data": {"data_csv": 5, "labels_csv": "labels.csv", "schema": "schema.json"}},
     ["data: data_csv must be a path string, got 5"], 1),
    ("gen", {"synth": dict(SYNTH, value_mix="no")}, ["synth: value_mix must be true or false, got 'no'"], 1),
    ("sweep", {"fractions": "1"}, ["config fractions must be a list of numbers in (0, 1], got '1'"], 1),
    ("sweep", {"fractions": {"0.5": 1}}, ["config fractions must be a list of numbers in (0, 1], got {'0.5': 1}"], 1),
    ("train", {"model": {"family": "logreg", "te_dim": []}}, ["model: dim must be an integer >= 2, got []"], 1),
    ("train", {"model": {"family": "logreg", "te_max_time": "x"}},
     ["model: max_time must be a finite number > 0, got 'x'"], 1),
    ("train", {"model": {"family": "logreg", "attention": []}}, ["model.attention must be an object, got []"], 1),
    ("train", {"model": {"family": "logreg", "te_dim": [], "te_max_time": "x", "attention": []}},
     ["model.attention must be an object, got []", "model: max_time must be a finite number > 0, got 'x'"], 2),
    ("gen", {"out": ""}, ["top level: out must be a path string, got ''"], 1),
    ("train", {"out": ""}, ["top level: out must be a path string, got ''"], 1),
    ("encode", {"out": ""}, ["top level: out must be a path string, got ''"], 1),
    ("train", {"test_fraction": 1}, ["test_fraction must be a finite number > 0 and < 1, got 1"], 1),
    ("train", {"data": {"dir": "bench", "synth": SYNTH, "n_episodes": 28, "data_csv": "nowhere.csv"}},
     ["data: needs exactly one source, synth with n_episodes, dir, or data_csv, labels_csv and schema together; "
      "got ['synth', 'dir', 'data_csv']"], 1),
    ("train", {"data": {"dir": "bench", "schema": "schema.json"}}, ["got ['dir', 'schema']"], 1),
    ("train", {"data": {}}, ["data: needs exactly one source, synth with n_episodes, dir, or data_csv, labels_csv "
                             "and schema together; got none"], 1),
    ("train", {"data": {"data_csv": "data.csv", "schema": "schema.json"}}, ["got ['data_csv', 'schema']"], 1),
    ("train", {"data": {"synth": SYNTH}}, ["data: synth needs n_episodes"], 1),
    ("train", {"model": dict(CAT_TE_LSTM, te_max_time=10)},
     ["model: encoder max_time 10 is smaller than the window 12; observation gaps would alias"], 1),
    ("train", {"model": dict(CAT_TE_LSTM, te_max_time=10, hidden=4.5)},
     ["model: hidden must be an integer >= 1, got 4.5"], 1),
    ("train", {"model": dict(CAT_TE_LSTM, te_max_time=10), "features": {"window": "abc"}}, ["features.window"], 1),
    ("train", {"model": {"family": "lstm", "hidden": 4, "te_mode": "add_te", "te_dim": 4, "te_max_time": 5},
               "features": {"window": 12.0, "bin_width": 2.0}},
     ["model: encoder max_time 5 is smaller than the window 12; observation gaps would alias"], 1),
], ids=["window-null", "window-null-cat-te", "window-not-a-number", "te-max-time-null",
        "epochs-float", "lr-bool", "sweep-seed-float", "fractions-empty", "fractions-not-numbers",
        "hidden-float", "hidden-bool", "head-width-float", "attention-r-float", "penalty-c-nan",
        "synth-channels-float", "synth-channels-bool", "synth-seed-float", "n-episodes-bool",
        "runs-per-fold-bool", "train-seed-negative", "gen-n-episodes-bool", "gen-synth-channels-bool",
        "bin-width-bool", "gen-rate-bool", "synth-window-bool", "te-max-time-bool", "weight-decay-bool",
        "unknown-train-and-attention-keys", "features-int", "features-str", "train-int", "model-int",
        "attention-int", "data-int", "gen-synth-int", "gen-synth-str", "data-synth-int", "gen-out-int",
        "train-out-int", "sweep-out-int", "encode-out-int", "run-dir-int", "data-dir-int", "data-csv-int",
        "value-mix-str", "fractions-str", "fractions-object", "unused-te-dim-list", "unused-te-max-time-str",
        "unused-attention-list", "unused-model-entries", "gen-out-empty", "train-out-empty", "encode-out-empty",
        "test-fraction-one", "several-sources", "dir-and-csv-path", "no-source", "csv-paths-incomplete",
        "synth-without-count", "te-max-time-below-window", "te-max-time-below-window-bad-hidden",
        "te-max-time-bad-window", "add-te-max-time-below-window"])
def test_bad_config_values_are_reported(run_dir, tmp_path, capsys, command, config, messages, n_problems):
    base = {"train": TRAIN_CONFIG, "gen": {"synth": SYNTH, "n_episodes": 5}, "sweep": {"run_dir": run_dir},
            "encode": {"input": str(tmp_path / "times.csv"), "max_time": 48.0}}[command]
    config = {**base, "out": str(tmp_path / "o"), **config}
    code, _, stderr = run([command, "--config", write_config(tmp_path, config)], capsys)
    assert code == 1
    assert "config problems" in stderr
    for message in messages:
        assert message in stderr
    problem_lines = [line for line in stderr.splitlines() if line.startswith("  ")]
    assert len(problem_lines) == n_problems, stderr


@pytest.mark.parametrize("source", ["synth", "dir"])
def test_config_problem_loads_no_data(tmp_path, capsys, monkeypatch, source):
    data = {"synth": SYNTH, "n_episodes": 28}
    if source == "dir":
        data = {"dir": str(tmp_path / "data")}
        gen = {"synth": SYNTH, "n_episodes": 28, "out": data["dir"]}
        assert run(["gen", "--config", write_config(tmp_path, gen, "gen.json")], capsys)[0] == 0
    loads = []
    monkeypatch.setattr(cli, "load_csv", lambda *a: loads.append("csv"))
    monkeypatch.setattr(cli, "gen_dataset", lambda *a: loads.append("synth"))
    cfg = write_config(tmp_path, dict(TRAIN_CONFIG, data=data, model={"family": "lstm", "hidden": 4.5},
                                      out=str(tmp_path / "o")))
    code, _, stderr = run(["train", "--config", cfg], capsys)
    assert code == 1
    assert "model: hidden must be an integer >= 1, got 4.5" in stderr
    assert loads == []


def refused_out(run_dir, tmp_path, capsys, monkeypatch, command, out, force) -> str:
    """The stderr of ``command`` run with ``--out out``, after checking that it
    failed and loaded, generated and read nothing."""
    times = tmp_path / "times.csv"
    times.write_text("t\n0.5\n")
    config = {"gen": {"synth": SYNTH, "n_episodes": 5}, "train": TRAIN_CONFIG, "sweep": {"run_dir": run_dir},
              "encode": {"input": str(times), "max_time": 48.0}}[command]
    loads = []
    for name in ("load_csv", "gen_dataset", "load_episodes", "load_params", "open_text"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: loads.append(name))
    args = [command, "--config", write_config(tmp_path, config), "--out", str(out)] + ["--force"] * force
    code, _, stderr = run(args, capsys)
    assert code == 1
    assert loads == []
    return stderr


@pytest.mark.parametrize("force", [False, True], ids=["", "force"])
@pytest.mark.parametrize("command", ["gen", "train", "sweep", "encode"])
def test_out_of_the_wrong_kind_is_refused_before_loading(run_dir, tmp_path, capsys, monkeypatch, command, force):
    # gen, train and sweep write into a directory, encode writes a file
    out = tmp_path / "out"
    if command == "encode":
        out.mkdir()
    else:
        out.write_text("kept\n")
    stderr = refused_out(run_dir, tmp_path, capsys, monkeypatch, command, out, force)
    kind = "is a directory" if command == "encode" else "is not a directory"
    assert stderr == f"error: {out} exists and {kind}\n"
    assert out.is_dir() if command == "encode" else out.read_text() == "kept\n"


@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
@pytest.mark.parametrize("command", ["gen", "train", "sweep", "encode"])
def test_out_below_a_file_is_refused_before_loading(run_dir, tmp_path, capsys, monkeypatch, command, below):
    runfile = tmp_path / "runfile"
    runfile.write_text("kept\n")
    out = runfile / below
    stderr = refused_out(run_dir, tmp_path, capsys, monkeypatch, command, out, force=True)
    assert stderr == f"error: cannot write {out}: {runfile} is not a directory\n"
    assert runfile.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["data.csv", "labels.csv"])
def test_undecodable_dataset_file_is_named(tmp_path, capsys, name):
    data_dir = str(tmp_path / "data")
    assert run(["gen", "--config", write_config(tmp_path, {"synth": SYNTH, "n_episodes": 28, "out": data_dir})],
               capsys)[0] == 0
    path = os.path.join(data_dir, name)
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    cfg = write_config(tmp_path, dict(TRAIN_CONFIG, data={"dir": data_dir}, out=str(tmp_path / "o")))
    code, _, stderr = run(["train", "--config", cfg], capsys)
    assert code == 1
    assert stderr.startswith(f"error: {path} is not valid text: ") and "can't decode byte 0xff" in stderr, stderr


def test_train_on_empty_dataset_is_an_error(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "data.csv").write_text("")
    (data_dir / "labels.csv").write_text("episode_id,label\n")
    (data_dir / "schema.json").write_text('{"channels": [{"name": "hr", "kind": "real"}]}')
    cfg = write_config(tmp_path, dict(TRAIN_CONFIG, data={"dir": str(data_dir)}, out=str(tmp_path / "o")))
    code, _, stderr = run(["train", "--config", cfg], capsys)
    assert code == 1
    assert "empty" in stderr


class TestEncode:
    def write_times(self, tmp_path, rows, header="t"):
        path = str(tmp_path / "times.csv")
        with open(path, "w") as fh:
            fh.write("\n".join([header] + rows) + "\n")
        return path

    def test_appends_te_columns(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["0.5", "1.25", "47.0"])
        out = str(tmp_path / "encoded.csv")
        code, stdout, _ = run(
            ["encode", "--input", inp, "--out", out, "--dim", "4", "--max-time", "48"], capsys
        )
        assert code == 0
        assert "wrote 3 rows" in stdout
        with open(out) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "t,te_0,te_1,te_2,te_3"
        want = te_batch(np.array([0.5, 1.25, 47.0]), EncoderConfig.temporal(4, 48.0))
        for line, t, row in zip(lines[1:], [0.5, 1.25, 47.0], want):
            parts = [float(tok) for tok in line.split(",")]
            assert parts[0] == t
            np.testing.assert_array_equal(np.array(parts[1:]), row)

    def test_blank_lines_skipped(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["1.0", "", "2.0"])
        out = str(tmp_path / "encoded.csv")
        code, stdout, _ = run(
            ["encode", "--input", inp, "--out", out, "--dim", "4", "--max-time", "48"], capsys
        )
        assert code == 0
        assert "wrote 2 rows" in stdout

    def test_reports_every_missing_argument(self, capsys):
        code, _, stderr = run(["encode"], capsys)
        assert code == 1
        assert "no input CSV" in stderr
        assert "no output path" in stderr
        assert "no max_time" in stderr

    def test_input_not_found(self, tmp_path, capsys):
        code, _, stderr = run(
            ["encode", "--input", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "o.csv"), "--max-time", "48"], capsys
        )
        assert code == 1
        assert "input file not found" in stderr

    def test_rejects_multicolumn_input(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["1.0,2.0"], header="t,v")
        code, _, stderr = run(
            ["encode", "--input", inp, "--out", str(tmp_path / "o.csv"), "--max-time", "48"],
            capsys,
        )
        assert code == 1
        assert "single timestamp column" in stderr

    def test_names_bad_timestamp_line(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["1.0", "soon"])
        code, _, stderr = run(
            ["encode", "--input", inp, "--out", str(tmp_path / "o.csv"), "--max-time", "48"],
            capsys,
        )
        assert code == 1
        assert "line 3" in stderr and "'soon'" in stderr

    @pytest.mark.parametrize("raw,problem", [
        ("nan", "is not finite"), ("-inf", "is not finite"), ("-0.5", "is negative"),
    ])
    def test_names_non_finite_or_negative_timestamp_line(self, tmp_path, capsys, raw, problem):
        inp = self.write_times(tmp_path, ["1.0", "", raw, "2.0"])
        out = str(tmp_path / "o.csv")
        code, _, stderr = run(["encode", "--input", inp, "--out", out, "--max-time", "48"], capsys)
        assert code == 1
        assert stderr == f"error: line 4: timestamp {raw!r} {problem}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_splits_only_at_line_ends(self, tmp_path, capsys, sep):
        inp = self.write_times(tmp_path, [f"0.5{sep}1.5"])
        out = str(tmp_path / "o.csv")
        code, _, stderr = run(["encode", "--input", inp, "--out", out, "--max-time", "48"], capsys)
        assert code == 1
        assert stderr == f"error: line 2: timestamp {'0.5' + sep + '1.5'!r} is not a number\n"
        assert not os.path.exists(out)

    def test_undecodable_input_is_named(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["1.0"])
        with open(inp, "ab") as fh:
            fh.write(b"2.0\xff\n")
        out = str(tmp_path / "o.csv")
        code, _, stderr = run(["encode", "--input", inp, "--out", out, "--max-time", "48"], capsys)
        assert code == 1
        assert stderr.startswith(f"error: {inp} is not valid text: "), stderr
        assert not os.path.exists(out)

    def test_empty_input(self, tmp_path, capsys):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        code, _, stderr = run(
            ["encode", "--input", path, "--out", str(tmp_path / "o.csv"), "--max-time", "48"],
            capsys,
        )
        assert code == 1
        assert "header row" in stderr

    def test_bad_encoder_dim(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["1.0"])
        code, _, stderr = run(
            ["encode", "--input", inp, "--out", str(tmp_path / "o.csv"),
             "--dim", "3", "--max-time", "48"], capsys
        )
        assert code == 1
        assert "dim" in stderr

    def test_refuses_existing_output(self, tmp_path, capsys):
        inp = self.write_times(tmp_path, ["1.0"])
        out = str(tmp_path / "o.csv")
        args = ["encode", "--input", inp, "--out", out, "--dim", "4", "--max-time", "48"]
        assert run(args, capsys)[0] == 0
        code, _, stderr = run(args, capsys)
        assert code == 1
        assert "--force" in stderr
        assert run(args + ["--force"], capsys)[0] == 0


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # One BLAS thread lets train and sweep fork a worker per CPU; two keep them in one process
    # whose BLAS may split the larger products, so a parameter file may round differently.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cfg = write_config(tmp_path, dict(
        TRAIN_CONFIG, data={"synth": dict(SYNTH, window_hours=48.0), "n_episodes": 300},
        model={"family": "lstm", "hidden": 32, "te_mode": "cat_te", "te_dim": 8},
        features={"window": 48.0, "bin_width": 1.0}, train={"epochs": 2, "batch_size": 64, "k": 2, "runs_per_fold": 1}))
    reports, params = [], []
    for threads in ("1", "2"):
        out = str(tmp_path / f"run{threads}")
        for args in (["train", "--config", cfg], ["sweep", "--run-dir", out, "--keep-fractions", "1.0,0.5"]):
            done = subprocess.run([sys.executable, "-m", "tembed", *args, "--out", out], capture_output=True,
                                  text=True, timeout=300, env={**env, "OPENBLAS_NUM_THREADS": threads})
            assert done.returncode == 0, done.stderr
        reports.append({})
        for name in ("report.json", "report.csv", "sweep.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                reports[-1][name] = fh.read()
        params.append([load_params(os.path.join(out, f"params_fold{f}.npz"))[0] for f in (0, 1)])
    assert reports[0] == reports[1]
    for one, two in zip(*params):
        for name, tensor in one.items():
            assert np.abs(two[name] - tensor).max() <= 1e-14 * np.abs(tensor).max(), name


class TestParser:
    def test_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "tembed", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: tembed ")

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

"""End-to-end command-line behavior: gen, train, sweep, encode."""

import json
import os

import numpy as np
import pytest

from tembed import cli
from tembed.cli import main
from tembed.dataset import load_csv, load_schema
from tembed.encoding import EncoderConfig, te_batch

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
        assert "missing 'synth'" in stderr
        assert "n_episodes must be an integer >= 1, got 0" in stderr
        assert "unknown keys ['typo']" in stderr
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
                     "params_fold0.npz", "params_fold1.npz"):
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

    def test_deterministic_across_runs(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "again")
        cfg = write_config(tmp_path, dict(TRAIN_CONFIG, out=out))
        assert run(["train", "--config", cfg], capsys)[0] == 0
        with open(os.path.join(run_dir, "report.json")) as fa, open(
            os.path.join(out, "report.json")
        ) as fb:
            assert fa.read() == fb.read()

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

    def test_missing_dataset_files(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dict(TRAIN_CONFIG, data={"dir": str(tmp_path / "nowhere")}, out=str(tmp_path / "o")),
        )
        code, _, stderr = run(["train", "--config", cfg], capsys)
        assert code == 1
        assert "data.data_csv: file not found" in stderr
        assert "data.schema: file not found" in stderr

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
        monkeypatch.setattr(cli, "_load_dataset", lambda *a: loads.append("data"))
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
], ids=["window-null", "window-null-cat-te", "window-not-a-number", "te-max-time-null",
        "epochs-float", "lr-bool", "sweep-seed-float", "fractions-empty", "fractions-not-numbers",
        "hidden-float", "hidden-bool", "head-width-float", "attention-r-float", "penalty-c-nan",
        "synth-channels-float", "synth-channels-bool", "synth-seed-float", "n-episodes-bool",
        "runs-per-fold-bool", "train-seed-negative", "gen-n-episodes-bool", "gen-synth-channels-bool",
        "bin-width-bool", "gen-rate-bool", "synth-window-bool", "te-max-time-bool", "weight-decay-bool"])
def test_bad_config_values_are_reported(run_dir, tmp_path, capsys, command, config, messages, n_problems):
    if command == "train":
        config = dict(TRAIN_CONFIG, out=str(tmp_path / "o"), **config)
    elif command == "gen":
        config = dict({"synth": SYNTH, "n_episodes": 5}, out=str(tmp_path / "o"), **config)
    else:
        config = dict(run_dir=run_dir, out=str(tmp_path / "o"), **config)
    code, _, stderr = run([command, "--config", write_config(tmp_path, config)], capsys)
    assert code == 1
    assert "config problems" in stderr
    for message in messages:
        assert message in stderr
    problem_lines = [line for line in stderr.splitlines() if line.startswith("  ")]
    assert len(problem_lines) == n_problems, stderr


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


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

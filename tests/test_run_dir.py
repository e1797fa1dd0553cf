"""The run directory's test set: `tembed train` saves the normalized test
episodes it evaluated as ``test_episodes.npz``, and `tembed sweep` reads only
that file and ``experiment.json``.

``oracle_test_set`` is the sweep's former data path, kept as the reference:
load the training data again (the CSV files, or the inline synthetic
source), keep the run's test ids, and normalize them with the stats that
``experiment.json`` records. A sweep from the saved file must write the same
``sweep.csv`` bytes as a sweep over the oracle's episodes.
"""

import json
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tembed import cli, models
from tembed._util import REQUIRED
from tembed.benchgen import SynthConfig, gen_dataset, synth_schema
from tembed.cli import main
from tembed.dataset import (
    ChannelSpec,
    IrregularSeries,
    NormStats,
    Schema,
    apply_norm,
    load_csv,
    load_episodes,
    load_schema,
    save_episodes,
    save_schema,
    write_csv,
)
from tembed.models import ModelSpec, load_params
from tembed.training import sweep_dropout, sweep_to_csv

SYNTH = {"n_channels": 3, "rate_per_hour": 0.6, "window_hours": 12.0,
         "task": "timing_classification", "gap_threshold_hours": 3.0, "rng_seed": 11}
FRACTIONS = (1.0, 0.6, 0.3)


def train_config(data, out):
    return {
        "data": data, "task": "classification",
        "model": {"family": "lstm", "hidden": 4, "te_mode": "mask"},
        "features": {"window": 12.0, "bin_width": 2.0},
        "train": {"epochs": 1, "batch_size": 16, "k": 2, "runs_per_fold": 1},
        "test_fraction": 0.3, "seed": 5, "out": out,
    }


def write_dataset(directory):
    """A CSV dataset of 40 synthetic episodes whose last channel is categorical."""
    synth = SynthConfig.from_dict(SYNTH)
    episodes, _ = gen_dataset(synth, 40)
    for ep in episodes:
        on_last = ep.channel_idx == 2
        ep.values[on_last] = np.floor(np.abs(ep.values[on_last]) * 3) % 3
    schema = Schema(channels=synth_schema(synth).channels[:2] + (ChannelSpec("ch02", "categorical", 3),))
    os.makedirs(directory)
    write_csv(episodes, schema, os.path.join(directory, "data.csv"), os.path.join(directory, "labels.csv"))
    save_schema(os.path.join(directory, "schema.json"), schema)


def train(tmp, data, out):
    path = os.path.join(tmp, "train.json")
    with open(path, "w") as fh:
        json.dump(train_config(data, out), fh)
    assert main(["train", "--config", path]) == 0


def oracle_test_set(experiment):
    """The parent sweep's test episodes: reload, keep the test ids, normalize."""
    data = experiment["data"]
    if "synth" in data:
        synth = SynthConfig.from_dict(data["synth"])
        episodes, _ = gen_dataset(synth, data["n_episodes"])
        schema = synth_schema(synth)
    else:
        schema = load_schema(os.path.join(data["dir"], "schema.json"))
        episodes = load_csv(os.path.join(data["dir"], "data.csv"), schema,
                            os.path.join(data["dir"], "labels.csv"))
    test_ids = set(experiment["test_ids"])
    test_raw = [s for s in episodes if s.episode_id in test_ids]
    assert len(test_raw) == len(test_ids)
    stats = NormStats(mean=np.asarray(experiment["norm_stats"]["mean"]),
                      std=np.asarray(experiment["norm_stats"]["std"]))
    return [apply_norm(s, stats, schema) for s in test_raw], schema


def oracle_sweep_csv(run_dir, fractions, seed):
    with open(os.path.join(run_dir, "experiment.json")) as fh:
        experiment = json.load(fh)
    test, schema = oracle_test_set(experiment)
    params = {f: load_params(os.path.join(run_dir, f"params_fold{f}.npz"))[0]
              for f in experiment["selected_folds"]}
    rows = sweep_dropout(ModelSpec.from_dict(experiment["spec"]), params, test, schema,
                         experiment["window"], experiment["bin_width"],
                         fractions=fractions, base_seed=seed)
    return sweep_to_csv(rows).encode()


def assert_same_episodes(got, expected):
    assert [s.episode_id for s in got] == [s.episode_id for s in expected]
    for a, b in zip(got, expected):
        assert a.normalized and b.normalized
        assert float(a.label).hex() == float(b.label).hex()
        for name in ("times", "channel_idx", "values"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (a.episode_id, name)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A training run over a CSV dataset and one over an inline synthetic source."""
    tmp = str(tmp_path_factory.mktemp("runs"))
    write_dataset(os.path.join(tmp, "data"))
    train(tmp, {"dir": os.path.join(tmp, "data")}, os.path.join(tmp, "csv_run"))
    train(tmp, {"synth": SYNTH, "n_episodes": 36}, os.path.join(tmp, "synth_run"))
    return {"csv": os.path.join(tmp, "csv_run"), "synth": os.path.join(tmp, "synth_run")}


@pytest.mark.parametrize("source", ["csv", "synth"])
def test_train_saves_the_normalized_test_set(runs, source):
    with open(os.path.join(runs[source], "experiment.json")) as fh:
        expected, schema = oracle_test_set(json.load(fh))
    test, saved_schema = load_episodes(os.path.join(runs[source], "test_episodes.npz"))
    assert saved_schema == schema
    assert_same_episodes(test, expected)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("source", ["csv", "synth"])
def test_sweep_matches_the_reloading_oracle(runs, source, cpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(models, "_usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    argv = ["sweep", "--run-dir", runs[source], "--keep-fractions", "1.0,0.6,0.3",
            "--seed", "4", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "sweep.csv").read_bytes() == oracle_sweep_csv(runs[source], FRACTIONS, 4)


def test_sweep_needs_neither_the_data_nor_the_working_directory(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    write_dataset(str(work / "bench"))
    monkeypatch.chdir(work)
    train(str(work), {"dir": "bench"}, "run")  # a data path relative to the working directory
    expected = oracle_sweep_csv("run", (1.0, 0.5), 5)
    shutil.rmtree(work / "bench")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["sweep", "--run-dir", str(work / "run"), "--keep-fractions", "1.0,0.5"]) == 0
    assert (work / "run" / "sweep.csv").read_bytes() == expected


# --- the container round trip ---------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
ids = st.text(max_size=6).filter(lambda s: not s.endswith("\0"))


@st.composite
def saved_sets(draw):
    n_ch = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.booleans(), min_size=n_ch, max_size=n_ch))
    schema = Schema(channels=tuple(
        ChannelSpec(f"c{i}", "categorical", 3) if cat else ChannelSpec(f"c{i}", "real")
        for i, cat in enumerate(kinds)))
    episodes = []
    for eid in draw(st.lists(ids, max_size=5, unique=True)):
        n = draw(st.integers(0, 6))
        times = sorted(draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n)))
        chans = draw(st.lists(st.integers(0, n_ch - 1), min_size=n, max_size=n))
        # a categorical channel holds codes in [0, 3): load_episodes refuses any other value
        values = [draw(st.integers(0, 2).map(float) if kinds[c] else finite) for c in chans]
        episodes.append(IrregularSeries(eid, times, chans, values, label=draw(finite), normalized=True))
    return episodes, schema


@settings(max_examples=40)
@given(case=saved_sets())
def test_episode_container_round_trip_is_bit_exact(tmp_path_factory, case):
    episodes, schema = case
    path = str(tmp_path_factory.mktemp("set") / "test_episodes.npz")
    save_episodes(path, episodes, schema)
    back, back_schema = load_episodes(path)
    assert back_schema == schema
    assert_same_episodes(back, episodes)


@pytest.mark.parametrize("episode,message", [
    (IrregularSeries("a", [1.0], [0], [2.0], label=1.0), "labeled and normalized"),
    (IrregularSeries("a", [1.0], [0], [2.0], normalized=True), "labeled and normalized"),
    (IrregularSeries("a\0", [1.0], [0], [2.0], label=1.0, normalized=True), "NUL"),
    (IrregularSeries("a", [1.0], [0], [2.0], label=math.nan, normalized=True),
     "^episode 'a' has label nan, which is not finite$"),
    (IrregularSeries("a", [1.0], [0], [2.0], label=-math.inf, normalized=True),
     "^episode 'a' has label -inf, which is not finite$"),
], ids=["not-normalized", "unlabeled", "trailing-nul-id", "nan-label", "inf-label"])
def test_save_episodes_refuses_what_would_not_read_back(tmp_path, episode, message):
    schema = Schema(channels=(ChannelSpec("c0", "real"),))
    with pytest.raises(ValueError, match=message):
        save_episodes(str(tmp_path / "t.npz"), [episode], schema)
    assert not (tmp_path / "t.npz").exists()


@pytest.mark.parametrize("bad,message", [
    (IrregularSeries("b", [1.0, 2.0], [0, 0], [2.0, 7.0], label=1.0, normalized=True),
     "episode 'b': categorical channel 'c0' takes integer values in [0, 3), got 7.0"),
    (IrregularSeries("b", [1.0], [3], [2.0], label=1.0, normalized=True),
     "episode 'b': channel index 3 outside the 1-channel schema"),
], ids=["code", "channel"])
def test_save_episodes_refuses_observations_outside_the_schema(tmp_path, bad, message):
    # the bad episode comes second, so the error must name it, not the first
    schema = Schema(channels=(ChannelSpec("c0", "categorical", 3),))
    good = IrregularSeries("a", [0.5, 1.5], [0, 0], [0.0, 2.0], label=0.0, normalized=True)
    with pytest.raises(ValueError) as err:
        save_episodes(str(tmp_path / "t.npz"), [good, bad], schema)
    assert str(err.value) == message
    assert not (tmp_path / "t.npz").exists()


# --- a damaged or missing test set fails the sweep with a named problem ----

def _first_multi(arrays):
    """Index of the first observation of an episode holding two or more."""
    offsets = arrays["offsets"]
    return int(offsets[np.argmax(np.diff(offsets) >= 2)])


def _set(name, index, value):
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return change


def _bad_code(arrays):
    arrays["values"] = arrays["values"].copy()
    arrays["values"][np.argmax(arrays["channel_idx"] == 2)] = 7.0  # ch02 takes codes 0, 1 and 2


def _meta(**changes):
    def change(arrays):
        arrays["__meta__"] = np.array(json.dumps(dict(json.loads(str(arrays["__meta__"])), **changes)))
    return change


def _unsort(arrays):
    i = _first_multi(arrays)
    arrays["times"] = arrays["times"].copy()
    arrays["times"][i] = arrays["times"][i + 1] + 1.0


DAMAGE = {
    "version": (_meta(format_version=2), "unsupported episode container version 2"),
    "meta-not-json": (lambda a: a.update(__meta__=np.array("{")), "__meta__ is not a JSON object"),
    "schema": (_meta(schema={"channels": []}), "schema needs at least one channel"),
    "missing-column": (lambda a: a.pop("labels"), "expected ["),
    "pickled-column": (lambda a: a.update(labels=np.array([None], dtype=object)), "allow_pickle"),
    "dtype": (lambda a: a.update(times=a["times"].astype(np.float32)),
              "times must be a 1-d float64 array"),
    "offsets-length": (lambda a: a.update(offsets=a["offsets"][:-1]), "column lengths disagree"),
    "values-length": (lambda a: a.update(values=a["values"][:-1]), "column lengths disagree"),
    "offsets-start": (_set("offsets", 0, 1), "offsets must rise from 0"),
    "offsets-end": (_set("offsets", -1, 0), "offsets must rise from 0"),
    "offsets-fall": (_set("offsets", 1, -1), "offsets must rise from 0"),
    "time-nan": (_set("times", 0, np.nan), "non-finite or negative time"),
    "time-negative": (_set("times", 0, -1.0), "non-finite or negative time"),
    "time-unsorted": (_unsort, "times not sorted"),
    "channel": (_set("channel_idx", 0, 3), "channel index 3 outside the 3-channel schema"),
    "value": (_set("values", 0, np.inf), "non-finite value"),
    "code": (_bad_code, "categorical channel 'ch02' takes integer values in [0, 3), got 7.0"),
    "label": (_set("labels", 0, np.nan), "non-finite label"),
    "ids": (_set("episode_ids", 0, "nobody"), "episode ids differ from the test_ids of experiment.json"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_test_set_is_a_named_error(runs, damage, tmp_path, capsys):
    change, message = DAMAGE[damage]
    run_dir = str(tmp_path / "run")
    shutil.copytree(runs["csv"], run_dir)
    path = os.path.join(run_dir, "test_episodes.npz")
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    change(arrays)
    np.savez(path, **arrays)
    code = main(["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0"])
    stderr = capsys.readouterr().err
    assert code == 1
    assert stderr.startswith(f"error: {path}: ") and message in stderr, stderr


def test_unreadable_test_set_is_a_named_error(runs, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    shutil.copytree(runs["csv"], run_dir)
    path = os.path.join(run_dir, "test_episodes.npz")
    with open(path, "wb") as fh:
        fh.write(b"not a zip archive")
    assert main(["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0"]) == 1
    assert f"error: {path}: not a readable npz container" in capsys.readouterr().err


def test_run_without_a_test_set_asks_for_a_new_training(runs, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    shutil.copytree(runs["csv"], run_dir)
    os.remove(os.path.join(run_dir, "test_episodes.npz"))
    assert main(["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0"]) == 1
    stderr = capsys.readouterr().err
    assert "no test_episodes.npz in" in stderr and "re-run `tembed train`" in stderr


def test_sweep_reads_no_training_data(runs, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the sweep loaded the training data")

    for name in ("load_csv", "gen_dataset", "apply_norm"):
        monkeypatch.setattr(cli, name, refuse)
    out = str(tmp_path / "out")
    assert main(["sweep", "--run-dir", runs["synth"], "--keep-fractions", "1.0", "--out", out]) == 0


# --- a damaged parameter file or experiment.json fails the sweep by name ---

def _copy_run(runs, tmp_path):
    run_dir = str(tmp_path / "run")
    shutil.copytree(runs["csv"], run_dir)
    return run_dir


def _sweep_error(run_dir, capsys):
    code = main(["sweep", "--run-dir", run_dir, "--keep-fractions", "1.0"])
    stderr = capsys.readouterr().err
    assert code == 1, stderr
    assert not os.path.exists(os.path.join(run_dir, "sweep.csv"))
    return stderr


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])


def _rewrite_params(change):
    def damage(path):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        change(arrays)
        np.savez(path, **arrays)
    return damage


def _drop_tensor(arrays):
    meta = json.loads(str(arrays["__meta__"]))
    del meta["tensors"]["lstm.Wh"]
    arrays["__meta__"] = np.array(json.dumps(meta))
    del arrays["lstm.Wh"]


def _widen_head(arrays):
    meta = json.loads(str(arrays["__meta__"]))
    meta["tensors"]["out.b"] = [3]
    arrays["__meta__"] = np.array(json.dumps(meta))
    arrays["out.b"] = np.zeros(3)


PARAMS_DAMAGE = {
    "truncated": (_truncate, "not a readable npz container"),
    "no-meta": (_rewrite_params(lambda a: a.pop("__meta__")), "__meta__ is not a JSON object"),
    "version": (_rewrite_params(lambda a: a.update(__meta__=np.array('{"format_version": 2}'))),
                "unsupported params container version 2, expected 1"),
    "no-manifest": (_rewrite_params(lambda a: a.update(__meta__=np.array('{"format_version": 1}'))),
                    "manifest lists no tensors"),
    "pickled": (_rewrite_params(lambda a: a.update(rogue=np.array([None], dtype=object))), "allow_pickle"),
    "missing-tensor": (_rewrite_params(_drop_tensor), "tensors ['lstm.Wh'] are missing, extra or misshapen"),
    "misshapen-tensor": (_rewrite_params(_widen_head), "tensors ['out.b'] are missing, extra or misshapen"),
}


@pytest.mark.parametrize("damage", sorted(PARAMS_DAMAGE))
def test_damaged_params_file_is_a_named_error(runs, damage, tmp_path, capsys):
    change, message = PARAMS_DAMAGE[damage]
    run_dir = _copy_run(runs, tmp_path)
    path = os.path.join(run_dir, "params_fold1.npz")
    change(path)
    stderr = _sweep_error(run_dir, capsys)
    assert stderr.startswith(f"error: {path}: ") and message in stderr, stderr


def _without(key):
    return lambda experiment: {k: v for k, v in experiment.items() if k != key}


def _with(key, value):
    return lambda experiment: dict(experiment, **{key: value})


def _with_spec(**entries):
    return lambda experiment: dict(experiment, spec=dict(experiment["spec"], **entries))


EXPERIMENT_DAMAGE = {
    **{f"no-{key}": (_without(key), f"missing keys ['{key}']")
       for key, (default, _) in cli.EXPERIMENT.items() if default is REQUIRED},
    "te-cfg-key": (_with_spec(te_mode="cat_te", te_cfg={"dim": 4, "scale": 1.0}),
                   "model spec.te_cfg: unknown keys ['scale']"),
    "spec-key": (_with_spec(depth=3), "model spec: unknown keys ['depth']"),
    "te-cfg-positional": (_with_spec(te_mode="cat_te", te_cfg={"dim": 4, "max_time": 10000.0,
                                                               "base_kind": "positional"}),
                          "te_cfg must be a temporal encoder, got base_kind 'positional'"),
    "spec-list": (_with("spec", []), "model spec must be an object, got []"),
    "window": (_with("window", "12"), "window must be a finite number > 0, got '12'"),
    "bin-width": (_with("bin_width", 0), "bin_width must be a finite number > 0, got 0"),
    "seed": (_with("seed", -1), "seed must be an integer >= 0, got -1"),
    "folds": (_with("selected_folds", 1), "selected_folds must be a list of fold numbers, got 1"),
    "fold": (_with("selected_folds", [0.5]), "selected_folds must be a list of fold numbers, got [0.5]"),
    "not-an-object": (lambda experiment: True, "experiment must be an object, got True"),
}


@pytest.mark.parametrize("damage", sorted(EXPERIMENT_DAMAGE))
def test_damaged_experiment_is_a_named_error(runs, damage, tmp_path, capsys):
    change, message = EXPERIMENT_DAMAGE[damage]
    run_dir = _copy_run(runs, tmp_path)
    path = os.path.join(run_dir, "experiment.json")
    with open(path) as fh:
        experiment = json.load(fh)
    with open(path, "w") as fh:
        json.dump(change(experiment), fh)
    stderr = _sweep_error(run_dir, capsys)
    assert stderr.startswith(f"error: {path}: ") and message in stderr, stderr


@pytest.mark.parametrize("name", ["experiment.json", "schema.json"])
def test_invalid_json_names_its_file(runs, name, tmp_path, capsys):
    if name == "experiment.json":
        path = os.path.join(_copy_run(runs, tmp_path), name)
        argv = ["sweep", "--run-dir", os.path.dirname(path), "--keep-fractions", "1.0"]
    else:
        write_dataset(str(tmp_path / "data"))
        path = str(tmp_path / "data" / name)
        config = tmp_path / "train.json"
        config.write_text(json.dumps(train_config({"dir": str(tmp_path / "data")}, str(tmp_path / "out"))))
        argv = ["train", "--config", str(config)]
    with open(path, "w") as fh:
        fh.write('{"channels": [{')
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: Expecting property name")

"""Seeded generators, atomic file writers, the number and JSON-object checks, and the JSON
object of a dataclass."""

import os

import numpy as np
import numpy.testing as npt
import pytest

from tembed import _util
from tembed._util import atomic_write_bytes, atomic_write_npz, atomic_write_text, make_rng
from tembed.benchgen import SynthConfig
from tembed.dataset import ChannelSpec, NormStats, Schema
from tembed.encoding import EncoderConfig
from tembed.models import AttentionSpec, ModelSpec
from tembed.training import Hyper


def test_int_and_single_item_seeds_draw_the_same_stream():
    expected = make_rng([5]).random(16)
    npt.assert_array_equal(make_rng(5).random(16), expected)
    npt.assert_array_equal(make_rng(np.int64(5)).random(16), expected)
    assert not np.array_equal(make_rng(6).random(16), expected)


def test_text_and_bytes_writers_write_identical_bytes(tmp_path):
    text = "model,fraction,metric,value,std\nLSTM,0.5,auc_roc,0.1,0.0\n\n"
    paths = [str(tmp_path / name) for name in ("text.csv", "bytes.csv", "open.csv")]
    atomic_write_text(paths[0], text)
    atomic_write_bytes(paths[1], text.encode("ascii"))
    with open(paths[2], "w") as fh:
        fh.write(text)
    contents = []
    for path in paths:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    assert contents[0] == contents[1] == contents[2] == text.encode("ascii")


def test_written_files_get_the_mode_open_gives_under_the_umask(tmp_path):
    # 0666 less the umask, as open(path, "w") creates a file; each write but the first replaces a file
    paths = [tmp_path / "report.json", tmp_path / "params.npz"]
    before = os.umask(0o022)
    try:
        for umask in (0o022, 0o077):
            os.umask(umask)
            for _ in range(2):
                atomic_write_text(str(paths[0]), "{}\n")
                atomic_write_npz(str(paths[1]), {}, {"w": np.zeros(2)})
                assert [path.stat().st_mode & 0o777 for path in paths] == [0o666 & ~umask] * 2
    finally:
        os.umask(before)


def _failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_failed_write_keeps_old_target_and_leaves_no_temp_file(tmp_path, monkeypatch, failure):
    target = tmp_path / "report.json"
    target.write_bytes(b"old\n")
    if failure == "rename":
        monkeypatch.setattr(_util.os, "replace", _failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            atomic_write_text(str(target), "new\n")
    else:
        with pytest.raises(TypeError):
            atomic_write_bytes(str(target), "text is not bytes")
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400, True, "1"])
def test_check_real_refuses_what_no_finite_float_holds(value):
    with pytest.raises(ValueError, match="x must be a finite number > 0"):
        _util.check_real("x", value, 0, strict=True)


@pytest.mark.parametrize("obj,match", [
    ([1], r"^sec must be an object, got \[1\]$"),
    ({"a": 1, "zz": 2, "b": 3}, r"^sec: unknown keys \['b', 'zz'\]; missing keys \['c'\]$"),
    ({"c": 1, "out": 5}, r"^sec: out must be a path string, got 5$"),
])
def test_check_object_names_every_fault(obj, match):
    with pytest.raises(ValueError, match=match):
        _util.check_object("sec", obj, ("a", "c", "out"), ("c",), paths=("out",))


def test_check_object_returns_a_good_object():
    obj = {"c": 1, "out": None}
    assert _util.check_object("sec", obj, ("a", "c", "out"), ("c",), paths=("out",)) is obj
    assert _util.check_object("sec", {"anything": 1}) == {"anything": 1}


def test_from_object_checks_fields_then_prefixes_the_constructor_error():
    assert _util.from_object(EncoderConfig, "enc", {"dim": 4, "max_time": 8.0}) == EncoderConfig(4, 8.0)
    with pytest.raises(ValueError, match=r"^enc: missing keys \['max_time'\]$"):
        _util.from_object(EncoderConfig, "enc", {"dim": 4})
    with pytest.raises(ValueError, match=r"^enc: unknown keys \['scale'\]$"):
        _util.from_object(EncoderConfig, "enc", {"dim": 4, "max_time": 8.0, "scale": 1})
    with pytest.raises(ValueError, match=r"^enc: dim must be an even integer >= 2, got 3$"):
        _util.from_object(EncoderConfig, "enc", {"dim": 3, "max_time": 8.0})


TE8 = {"dim": 8, "max_time": 48.0, "base_kind": "temporal"}
DEFAULT_WIDTHS = {"head_widths": [32, 32, 16], "mlp_widths": [64, 64, 32, 16]}


@pytest.mark.parametrize("obj,want", [
    (ModelSpec("lstm", "classification", hidden=8, te_mode="cat_te", te_cfg=EncoderConfig.temporal(8, 48.0)),
     {"family": "lstm", "task": "classification", "hidden": 8, **DEFAULT_WIDTHS, "te_mode": "cat_te",
      "te_cfg": TE8}),
    (ModelSpec("mlp", "regression", mlp_widths=(16, 8), te_mode="mask"),
     {"family": "mlp", "task": "regression", "hidden": 0, "head_widths": [32, 32, 16], "mlp_widths": [16, 8],
      "te_mode": "mask"}),
    (ModelSpec("sa_lstm", "classification", hidden=8, te_mode="add_te", te_cfg=EncoderConfig.temporal(8, 48.0),
               attention=AttentionSpec(d_a=4, r=2)),
     {"family": "sa_lstm", "task": "classification", "hidden": 8, **DEFAULT_WIDTHS, "te_mode": "add_te",
      "te_cfg": TE8, "attention": {"d_a": 4, "r": 2, "penalty_c": 1e-4}}),
    (Schema((ChannelSpec("hr", "real"), ChannelSpec("rhythm", "categorical", 3))),
     {"channels": [{"name": "hr", "kind": "real"}, {"name": "rhythm", "kind": "categorical", "cardinality": 3}]}),
    (SynthConfig(n_channels=4, rng_seed=2),
     {"n_channels": 4, "rate_per_hour": 0.5, "window_hours": 48.0, "task": "timing_classification",
      "gap_threshold_hours": 6.0, "rng_seed": 2, "value_mix": False}),
    (Hyper(lr=0.01, epochs=3), {"lr": 0.01, "epochs": 3, "batch_size": 100, "weight_decay": 0.01}),
    (NormStats(mean=np.array([1.0, 0.1]), std=np.array([3.0, 1 / 3])), {"mean": [1.0, 0.1], "std": [3.0, 1 / 3]}),
], ids=["lstm-cat_te", "mlp-mask", "sa_lstm-add_te", "schema", "synth", "hyper", "norm-stats"])
def test_to_object_gives_lists_and_leaves_none_fields_out(obj, want):
    assert _util.to_object(obj) == want  # a tuple never equals a list, and an array is no single bool


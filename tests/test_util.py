"""Seeded generators and atomic file writers."""

import os

import numpy as np
import numpy.testing as npt
import pytest

from tembed import _util
from tembed._util import atomic_write_bytes, atomic_write_text, make_rng


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

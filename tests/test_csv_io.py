"""The columnar CSV path and normalization against the per-row code they replaced.

``oracle_load_csv`` and ``oracle_write_csv`` read and write one row at a
time with ``csv.reader`` and f-strings; ``oracle_fit_norm`` and
``oracle_apply_norm`` loop over channels. The block-wise loader must return
the same series bit for bit, or raise a ``ValueError`` with the same text,
over random schemas and files: quoted fields, CRLF line ends, blank lines,
a last line without a line end, misaligned field counts and several bad
lines. Block sizes are drawn small so that most files span several blocks.
"""

import csv
import locale
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tembed import dataset
from tembed.benchgen import SynthConfig, gen_dataset, synth_schema
from tembed.dataset import (
    DATA_HEADER,
    LABEL_HEADER,
    ChannelSpec,
    IrregularSeries,
    NormStats,
    Schema,
    apply_norm,
    fit_norm,
    load_csv,
    load_labels,
    write_csv,
)

ENCODING = locale.getpreferredencoding(False)


def oracle_parse_float(text, what, line_no):
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"line {line_no}: {what} {text!r} is not a number") from None
    if not math.isfinite(v):
        raise ValueError(f"line {line_no}: {what} {text!r} is not finite")
    return v


def oracle_load_csv(data_path, schema, label_path=None):
    """One row at a time: parse, check in field order, append per episode."""
    per_episode = {}
    with open(data_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header not in (None, DATA_HEADER):
                raise ValueError(f"{data_path}: expected header {','.join(DATA_HEADER)}, got {header}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise ValueError(f"line {line_no}: expected 4 fields, got {len(row)}")
                eid, t_raw, channel, v_raw = row
                t = oracle_parse_float(t_raw, "time", line_no)
                if t < 0:
                    raise ValueError(f"line {line_no}: negative time {t_raw!r}")
                try:
                    ch = schema.index_of(channel)
                except KeyError:
                    raise ValueError(f"line {line_no}: unknown channel {channel!r}") from None
                v = oracle_parse_float(v_raw, "value", line_no)
                spec = schema.channels[ch]
                if spec.kind == "categorical" and (v != int(v) or not (0 <= v < spec.cardinality)):
                    raise ValueError(
                        f"line {line_no}: categorical channel {spec.name!r} takes integer values in "
                        f"[0, {spec.cardinality}), got {v!r}"
                    )
                per_episode.setdefault(eid, []).append((t, ch, v))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"line {reader.line_num}: {exc}") from None

    labels = load_labels(label_path) if label_path is not None else None
    if labels is not None:
        missing = sorted(set(per_episode) - set(labels))
        if missing:
            raise ValueError(f"episodes without labels: {missing[:5]} (total {len(missing)})")
        orphans = sorted(set(labels) - set(per_episode))
        if orphans:
            raise ValueError(f"labels without episodes: {orphans[:5]} (total {len(orphans)})")
    return [
        IrregularSeries(
            episode_id=eid,
            times=np.array([r[0] for r in per_episode[eid]]),
            channel_idx=np.array([r[1] for r in per_episode[eid]]),
            values=np.array([r[2] for r in per_episode[eid]]),
            label=None if labels is None else labels[eid],
        )
        for eid in sorted(per_episode)
    ]


def oracle_write_csv(episodes, schema, data_path, label_path=None):
    lines = [",".join(DATA_HEADER)]
    for ep in episodes:
        for t, ch, v in zip(ep.times, ep.channel_idx, ep.values):
            lines.append(f"{ep.episode_id},{float(t)!r},{schema.channels[int(ch)].name},{float(v)!r}")
    with open(data_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if label_path is not None:
        label_lines = [",".join(LABEL_HEADER)]
        label_lines += [f"{ep.episode_id},{float(ep.label)!r}" for ep in episodes]
        with open(label_path, "w") as fh:
            fh.write("\n".join(label_lines) + "\n")


def oracle_fit_norm(train, schema):
    n = schema.n_channels
    mean, std = np.zeros(n), np.ones(n)
    for ch, spec in enumerate(schema.channels):
        if spec.kind != "real":
            continue
        pooled = np.concatenate([ep.values[ep.channel_idx == ch] for ep in train] or [np.empty(0)])
        if pooled.size == 0:
            warnings.warn(f"channel {spec.name!r} has no training observations; using mean 0, std 1")
            continue
        mean[ch] = float(pooled.mean())
        s = float(pooled.std())
        std[ch] = s if s > 0 else 1.0
    return NormStats(mean=mean, std=std)


def oracle_apply_norm(series, stats, schema):
    values = series.values.copy()
    for ch, spec in enumerate(schema.channels):
        if spec.kind == "real":
            sel = series.channel_idx == ch
            values[sel] = (values[sel] - stats.mean[ch]) / stats.std[ch]
    return values


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_same_series(got, want):
    assert [s.episode_id for s in got] == [s.episode_id for s in want]
    for a, b in zip(got, want):
        assert_same_bits(a.times, b.times)
        assert_same_bits(a.values, b.values)
        assert a.channel_idx.dtype == b.channel_idx.dtype == np.int64
        assert np.array_equal(a.channel_idx, b.channel_idx)
        assert (a.label is None and b.label is None) or (
            np.float64(a.label).view(np.uint64) == np.float64(b.label).view(np.uint64))
        assert not a.normalized and not b.normalized


def outcome(load, *args):
    try:
        return load(*args), None
    except ValueError as exc:
        return None, str(exc)


def assert_same_load(*args):
    want, want_err = outcome(oracle_load_csv, *args)
    got, got_err = outcome(load_csv, *args)
    assert got_err == want_err
    if want_err is None:
        assert_same_series(got, want)
    return want_err


def small_blocks(block_chars, csv_rows):
    return mock.patch.multiple(dataset, _BLOCK_CHARS=block_chars, _CSV_BLOCK_ROWS=csv_rows)


BLOCK_SIZES = st.tuples(st.sampled_from([1, 7, 40, 256, 1 << 20]), st.sampled_from([1, 3, 1 << 14]))


@st.composite
def schemas(draw):
    specs = []
    for i in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(["hr", "bp", "rhythm", "é ch"])) + str(i)
        if draw(st.booleans()):
            specs.append(ChannelSpec(name, "categorical", cardinality=draw(st.integers(2, 4))))
        else:
            specs.append(ChannelSpec(name, "real"))
    return Schema(channels=tuple(specs))


def quoted(field):
    return '"' + field.replace('"', '""') + '"'


GOOD_TIMES = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.sampled_from(["0", "-0.0", "1e3", " 2.5", "+3", "1_0", "7."]),
)
BAD_TIMES = st.sampled_from(["abc", "", "nan", "inf", "-1.0", "-inf", "1e999", "-1e-300"])
BAD_VALUES = st.sampled_from(["x", "", "nan", "-inf", "1e999"])
BAD_CODES = ["-1", "0.5", "1e300", "2.000001"]


@st.composite
def csv_files(draw):
    """(schema, file text): rows that are mostly valid, a few of them
    corrupted, written with random line ends, quoting and blank lines."""
    schema = draw(schemas())
    names = [c.name for c in schema.channels]
    fancy = draw(st.booleans())
    id_alphabet = "ab9_ é" + (',"\n\r' if fancy else "")
    ids = draw(st.lists(st.text(id_alphabet, max_size=3), min_size=1, max_size=4))
    bad_rate = draw(st.sampled_from([0, 5, 20, 50]))
    records = []
    for _ in range(draw(st.integers(0, 25))):
        ch = draw(st.integers(0, len(names) - 1))
        spec = schema.channels[ch]
        if spec.kind == "real":
            value = repr(draw(st.floats(-1e6, 1e6)))
        else:
            value = draw(st.sampled_from([str(k) for k in range(spec.cardinality)] + ["1.0", " 0"]))
        row = [draw(st.sampled_from(ids)), draw(GOOD_TIMES), names[ch], value]
        if draw(st.integers(0, 99)) < bad_rate:
            fault = draw(st.sampled_from(
                ["time", "value", "channel", "code", "fields", "shift", "space"]))
            if fault == "time":
                row[1] = draw(BAD_TIMES)
            elif fault == "value":
                row[3] = draw(BAD_VALUES)
            elif fault == "channel":
                row[2] = draw(st.sampled_from(["zz", "", names[0] + " "]))
            elif fault == "code":
                cats = [c.name for c in schema.channels if c.kind == "categorical"]
                if cats:
                    row[2], row[3] = draw(st.sampled_from(cats)), draw(st.sampled_from(BAD_CODES))
            elif fault == "fields":
                row = row[: draw(st.sampled_from([1, 2, 3]))] + ["x"] * draw(st.integers(0, 2))
            elif fault == "shift" and records:
                # a 5-field line then a 3-field line: the total count is right
                records[-1] = records[-1] + [row[0]]
                row = row[1:]
            elif fault == "space":
                row = [" "]
        records.append(row)
        if draw(st.integers(0, 9)) == 0:
            records.append([])

    quote_rate = draw(st.sampled_from([0, 0, 10, 50]))
    line_ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]]))
    header = draw(st.sampled_from([DATA_HEADER] * 18 + [[], ["id", "t", "ch", "v"]]))
    lines = []
    for row in ([header] if header or draw(st.booleans()) else []) + records:
        fields = [
            quoted(f) if any(c in f for c in ',"\r\n') or draw(st.integers(0, 99)) < quote_rate
            else f
            for f in row
        ]
        lines.append(",".join(fields) + draw(st.sampled_from(line_ends)))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return schema, text


def write_text(path, text):
    with open(path, "w", encoding=ENCODING, newline="") as fh:
        fh.write(text)
    return str(path)


@settings(max_examples=300)
@given(csv_files(), BLOCK_SIZES)
def test_load_matches_row_by_row_oracle(tmp_path_factory, case, sizes):
    schema, text = case
    path = write_text(tmp_path_factory.mktemp("csv") / "d.csv", text)
    with small_blocks(*sizes):
        assert_same_load(path, schema)


@settings(max_examples=60)
@given(csv_files(), BLOCK_SIZES, st.data())
def test_load_with_labels_matches_oracle(tmp_path_factory, case, sizes, data):
    schema, text = case
    root = tmp_path_factory.mktemp("csv")
    path = write_text(root / "d.csv", text)
    ids = data.draw(st.lists(st.sampled_from(["a", "b", "", "b9", "é"]), unique=True))
    label_text = ",".join(LABEL_HEADER) + "\n" + "".join(f"{quoted(e)},{i % 2}\n"
                                                          for i, e in enumerate(ids))
    labels = write_text(root / "l.csv", label_text)
    with small_blocks(*sizes):
        assert_same_load(path, schema, labels)


def test_several_bad_lines_report_the_first(tmp_path):
    schema = Schema(channels=(ChannelSpec("hr", "real"), ChannelSpec("r", "categorical",
                                                                      cardinality=2)))
    # blank lines in earlier blocks still count towards the line number
    body = ["e,1.0,hr,2.0", ""] * 15 + ["e,1.0,r,5", "e,-1,hr,1", "e,1.0,hr", "e,x,hr,1"]
    text = "\n".join([",".join(DATA_HEADER)] + body) + "\n"
    for line_end in ("\n", "\r\n"):
        path = write_text(tmp_path / "d.csv", text.replace("\n", line_end))
        for sizes in ((1 << 20, 1 << 14), (40, 3)):
            with small_blocks(*sizes):
                assert assert_same_load(path, schema) == (
                    "line 32: categorical channel 'r' takes integer values in [0, 2), got 5.0")


def test_five_then_three_fields_is_reported_on_the_first(tmp_path):
    text = ",".join(DATA_HEADER) + "\ne,1.0,hr,2.0\ne,1.0,hr,2.0,e\n1.0,hr,2.0\n"
    for line_end in ("\n", "\r\n"):
        path = write_text(tmp_path / "d.csv", text.replace("\n", line_end))
        assert assert_same_load(path, Schema(channels=(ChannelSpec("hr", "real"),))) == (
            "line 3: expected 4 fields, got 5")


@pytest.mark.parametrize("line_end,quote_later", [("\n", False), ("\r\n", False), ("\n", True)])
def test_multi_block_generated_file_matches_oracle(tmp_path, line_end, quote_later):
    # about 1.5 MB: more than one block; with quote_later the first quoted
    # field sits in the second block, so csv.reader takes over midway
    cfg = SynthConfig(n_channels=4, rate_per_hour=0.5, window_hours=48.0,
                      task="timing_classification", gap_threshold_hours=6.0, rng_seed=3)
    episodes, _ = gen_dataset(cfg, 300)
    schema = synth_schema(cfg)
    data, labels = str(tmp_path / "d.csv"), str(tmp_path / "l.csv")
    write_csv(episodes, schema, data, labels)
    with open(data, newline="") as fh:
        text = fh.read()
    assert len(text) > dataset._BLOCK_CHARS
    if quote_later:
        cut = text.index("\n", dataset._BLOCK_CHARS + 100) + 1
        eid, rest = text[cut:].split(",", 1)
        text = text[:cut] + quoted(eid) + "," + rest
    write_text(data, text.replace("\n", line_end))
    assert assert_same_load(data, schema, labels) is None
    assert_same_series(load_csv(data, schema, labels),
                       sorted(episodes, key=lambda s: s.episode_id))


@pytest.mark.parametrize("eid,fails", [("x" * 200_000, True), ("\u00e9" * 100_000, False)])
@pytest.mark.parametrize("quote_first", [False, True])
def test_field_over_the_csv_size_limit(tmp_path, eid, fails, quote_first):
    # csv.reader refuses a field over csv.field_size_limit() characters
    # (131,072 by default), whether or not a quote sends the block to it,
    # and load_csv names the line; 100,000 two-byte characters are within
    # the limit
    first = '"e",1.0,hr,2.0' if quote_first else "e,1.0,hr,2.0"
    text = "\n".join([",".join(DATA_HEADER), first, f"{eid},1.0,hr,2.0"]) + "\n"
    path = write_text(tmp_path / "d.csv", text)
    schema = Schema(channels=(ChannelSpec("hr", "real"),))
    if fails:
        with pytest.raises(ValueError, match="^line 3: field larger than field limit") as want:
            oracle_load_csv(path, schema)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            load_csv(path, schema)
    else:
        assert assert_same_load(path, schema) is None



@pytest.mark.parametrize("lines,line_no", [
    ([",".join(DATA_HEADER[:3]) + ",v" + "x" * 200_000], 1),  # the header
    (["e,1.0,hr,2.0"] * 20 + ["e,1.0,hr," + "9" * 200_000], 22),  # after comma-split blocks
    (['"e",1.0,hr,2.0'] + ["e,1.0,hr,2.0"] * 20 + ["e,1.0,hr," + "9" * 200_000], 23),  # after csv blocks
])
def test_over_long_field_names_its_line(tmp_path, lines, line_no):
    if line_no > 1:
        lines = [",".join(DATA_HEADER)] + lines
    path = write_text(tmp_path / "d.csv", "\n".join(lines) + "\n")
    schema = Schema(channels=(ChannelSpec("hr", "real"),))
    with small_blocks(40, 3):
        error = assert_same_load(path, schema)
    assert error.startswith(f"line {line_no}: field larger than field limit"), error


@st.composite
def episode_lists(draw, schema, ids=st.text("ab9_ é\"", max_size=4).filter(
        lambda s: not s.startswith('"')), out_of_schema=False):
    n_ch = schema.n_channels
    low, high = (-3, n_ch + 2) if out_of_schema else (0, n_ch - 1)
    episodes = []
    for eid in draw(st.lists(ids, unique=True, max_size=5)):
        n = draw(st.integers(0, 12))
        chans = np.array(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)),
                         dtype=np.int64)
        vals = [float(draw(st.integers(0, schema.channels[c].cardinality - 1)))
                if 0 <= c < n_ch and schema.channels[c].kind == "categorical"
                else draw(st.floats(-1e9, 1e9)) for c in chans]
        times = draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n))
        episodes.append(IrregularSeries(eid, np.array(times), chans, np.array(vals),
                                        label=draw(st.floats(0.0, 100.0))))
    return episodes


@settings(max_examples=100)
@given(st.data())
def test_write_matches_row_by_row_oracle(tmp_path_factory, data):
    schema = data.draw(schemas())
    episodes = data.draw(episode_lists(schema))
    root = tmp_path_factory.mktemp("w")
    empty = [e.episode_id for e in episodes if not e.n_obs]
    for labels in (str(root / "l.csv"), None) if empty else ():
        # it would have no data row: load_csv would drop it, or refuse its label
        with pytest.raises(ValueError, match=f"^episode {re.escape(repr(empty[0]))} has no observations"):
            write_csv(episodes, schema, str(root / "d.csv"), labels)
        assert not any(root.iterdir())
    episodes = [e for e in episodes if e.n_obs]
    write_csv(episodes, schema, str(root / "d.csv"), str(root / "l.csv"))
    oracle_write_csv(episodes, schema, str(root / "od.csv"), str(root / "ol.csv"))
    for name in ("d.csv", "l.csv"):
        assert (root / name).read_bytes() == (root / f"o{name}").read_bytes()
    assert_same_series(load_csv(str(root / "d.csv"), schema, str(root / "l.csv")),
                       sorted(episodes, key=lambda s: s.episode_id))


@pytest.mark.parametrize("bad", ["a,b", "a\rb", "a\nb", '"ab'])
@pytest.mark.parametrize("where", ["episode id", "channel"])
def test_write_refuses_names_that_do_not_round_trip(tmp_path, bad, where):
    eid, channel = (bad, "hr") if where == "episode id" else ("e", bad)
    schema = Schema(channels=(ChannelSpec(channel, "real"),))
    episodes = [IrregularSeries("ok", [1.0], [0], [2.0], label=0.0),
                IrregularSeries(eid, [1.0], [0], [2.0], label=1.0)]
    data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
    with pytest.raises(ValueError, match="^" + re.escape(f"{where} {bad!r}")):
        write_csv(episodes, schema, str(data), str(labels))
    assert not data.exists() and not labels.exists()


def test_write_takes_an_unused_channel_whatever_its_name(tmp_path):
    schema = Schema(channels=(ChannelSpec("hr", "real"), ChannelSpec("a,b", "real")))
    episodes = [IrregularSeries("e", [1.0], [0], [2.0], label=1.0)]
    data, labels = str(tmp_path / "d.csv"), str(tmp_path / "l.csv")
    write_csv(episodes, schema, data, labels)
    assert_same_series(load_csv(data, schema, labels), episodes)
    with pytest.raises(ValueError, match="^channel 'a,b' cannot be written"):
        write_csv(episodes + [IrregularSeries("f", [1.0], [1], [2.0], label=0.0)],
                  schema, data, labels)


def test_write_refuses_a_missing_label_before_writing(tmp_path):
    schema = Schema(channels=(ChannelSpec("hr", "real"),))
    episodes = [IrregularSeries("a", [1.0], [0], [2.0], label=1.0),
                IrregularSeries("b", [1.0], [0], [2.0])]
    data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
    with pytest.raises(ValueError, match="episode 'b' has no label to write"):
        write_csv(episodes, schema, str(data), str(labels))
    assert not data.exists() and not labels.exists()
    write_csv(episodes, schema, str(data))
    assert data.exists()


HR_GCS = Schema(channels=(ChannelSpec("hr", "real"), ChannelSpec("gcs", "categorical", 3)))


@pytest.mark.parametrize("bad,message", [
    (IrregularSeries("b", [1.0, 2.0], [0, -1], [60.0, 1.0], label=1.0),
     "episode 'b': channel index -1 outside the 2-channel schema"),
    (IrregularSeries("b", [1.0], [2], [1.0], label=1.0),
     "episode 'b': channel index 2 outside the 2-channel schema"),
    (IrregularSeries("b", [1.0], [1], [7.0], label=1.0),
     "episode 'b': categorical channel 'gcs' takes integer values in [0, 3), got 7.0"),
    (IrregularSeries("a", [3.0], [0], [70.0], label=1.0),
     "episode 'a' is given twice; its CSV rows would read back as one episode"),
    (IrregularSeries("b", [1.0], [0], [60.0], label=math.nan), "episode 'b' has label nan, which is not finite"),
], ids=["channel-minus-one", "channel-past-the-schema", "code", "duplicate-id", "nan-label"])
def test_write_refuses_what_load_csv_would_misread_or_refuse(tmp_path, bad, message):
    # the bad episode comes second, so the error must name it, not the first
    good = IrregularSeries("a", [0.5, 1.5], [0, 1], [60.0, 2.0], label=0.0)
    data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
    with pytest.raises(ValueError) as err:
        write_csv([good, bad], HR_GCS, str(data), str(labels))
    assert str(err.value) == message
    assert not data.exists() and not labels.exists()


@settings(max_examples=100)
@given(st.data())
def test_norm_matches_per_channel_loop(data):
    schema = data.draw(schemas())
    train = data.draw(episode_lists(schema, out_of_schema=True))
    other = data.draw(episode_lists(schema, out_of_schema=True))
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = oracle_fit_norm(train, schema)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = fit_norm(train, schema)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    assert_same_bits(got.mean, want.mean)
    assert_same_bits(got.std, want.std)
    for s in train + other:
        normed = apply_norm(s, got, schema)
        assert_same_bits(normed.values, oracle_apply_norm(s, got, schema))
        assert normed.normalized

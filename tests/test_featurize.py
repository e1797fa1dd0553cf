"""The batched featurizer against the per-episode path it replaced.

``oracle_bin`` and the two oracle attachments are the straightforward
implementation: one episode at a time, a Python loop over observations,
the last assignment winning within a bin and channel, and features stacked
with ``np.stack`` afterwards. The batched path does the same arithmetic
in whole-array passes, so X, M and D must match bit for bit, signed zeros
included, over random schemas, series and grids.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tembed import models, training
from tembed.benchgen import SynthConfig, gen_dataset, synth_schema
from tembed.dataset import (
    ChannelSpec,
    IrregularSeries,
    Schema,
    _steps_for,
    attach_mask,
    attach_te,
    bin_series,
)
from tembed.encoding import EncoderConfig, te_batch
from tembed.models import ModelSpec

PROPERTY = settings(max_examples=150)


def oracle_check_categorical(value, spec, where):
    if spec.kind == "categorical" and (value != int(value) or not (0 <= value < spec.cardinality)):
        raise ValueError(
            f"{where}: categorical channel {spec.name!r} takes integer values in "
            f"[0, {spec.cardinality}), got {value!r}"
        )


def oracle_bin(series, schema, window, bin_width):
    """(X, M, D) of one episode, as the per-episode binning computed them."""
    n_ch = schema.n_channels
    steps = _steps_for(window, bin_width)
    raw = np.zeros((steps, n_ch))
    M = np.zeros((steps, n_ch))
    in_window = series.times < window
    times = series.times[in_window]
    bins = np.minimum((times / bin_width).astype(np.int64), steps - 1)
    for j, ch, v in zip(bins, series.channel_idx[in_window], series.values[in_window]):
        oracle_check_categorical(v, schema.channels[int(ch)], f"episode {series.episode_id!r}")
        raw[j, ch] = v
        M[j, ch] = 1.0

    step_idx = np.arange(steps)
    seen = np.where(M == 1.0, step_idx[:, None], -1)
    last_obs = np.maximum.accumulate(seen, axis=0)
    D = (step_idx[:, None] - np.maximum(last_obs, 0)) * bin_width

    columns = []
    for ch, spec in enumerate(schema.channels):
        filled_idx = last_obs[:, ch]
        if spec.kind == "real":
            col = np.where(filled_idx >= 0, raw[np.maximum(filled_idx, 0), ch], 0.0)
            columns.append(col[:, None])
        else:
            onehot = np.zeros((steps, spec.cardinality))
            observed_rows = filled_idx >= 0
            cats = raw[np.maximum(filled_idx, 0), ch].astype(np.int64)
            onehot[step_idx[observed_rows], cats[observed_rows]] = 1.0
            columns.append(onehot)
    return np.hstack(columns), M, D


def oracle_mask(X, M, D, window):
    return np.hstack([X, M, D / window])


def oracle_te(X, D, cfg):
    return np.hstack([X, te_batch(D.min(axis=1), cfg)])


def oracle_features(series_list, schema, window, bin_width, te_mode, cfg=None):
    """X stacked from per-episode features, as ``prepare`` used to build it."""
    out = []
    for s in series_list:
        X, M, D = oracle_bin(s, schema, window, bin_width)
        if te_mode == "mask":
            X = oracle_mask(X, M, D, window)
        elif te_mode in ("cat_te", "add_te"):  # add_te's columns are cat_te's embedded gaps
            X = oracle_te(X, D, cfg)
        out.append(X)
    return np.stack(out)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def schemas(draw):
    specs = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            specs.append(ChannelSpec(f"c{i}", "categorical", cardinality=draw(st.integers(2, 4))))
        else:
            specs.append(ChannelSpec(f"c{i}", "real"))
    return Schema(channels=tuple(specs))


# window / bin_width pairs: exact ratios, ratios with float noise (5.1 / 1.7
# is 3.0000000000000004) and arbitrary draws
GRIDS = st.one_of(
    st.sampled_from([(5.1, 1.7), (0.3, 0.1), (0.7, 0.1), (4.0, 1.0), (3.0, 0.5), (12.0, 2.0)]),
    st.tuples(st.floats(0.1, 30.0), st.floats(0.05, 6.0)).filter(lambda g: g[0] / g[1] <= 60),
)


@st.composite
def batches(draw, with_categorical=False):
    """(schema, window, bin_width, episodes): up to six episodes, some empty,
    with times drawn from bin edges and the window edge as well as freely,
    so bins often hold several observations of one channel and some
    observations fall at or beyond the window."""
    schema = draw(schemas().filter(
        lambda s: not with_categorical or any(c.kind == "categorical" for c in s.channels)))
    window, bin_width = draw(GRIDS)
    edges = [0.0, bin_width, 2.5 * bin_width, max(0.0, window - bin_width / 3), window, 1.3 * window]
    time = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.5 * window))
    episodes = []
    for e in range(draw(st.integers(1, 6))):
        n_obs = draw(st.integers(0, 12))
        times, chans, vals = [], [], []
        for _ in range(n_obs):
            ch = draw(st.integers(0, schema.n_channels - 1))
            spec = schema.channels[ch]
            times.append(draw(time))
            chans.append(ch)
            if spec.kind == "real":
                vals.append(draw(st.floats(-1e3, 1e3)))
            else:
                vals.append(float(draw(st.integers(0, spec.cardinality - 1))))
        episodes.append(IrregularSeries(f"e{e}", np.array(times), np.array(chans, dtype=np.int64),
                                        np.array(vals), label=float(e % 2)))
    return schema, window, bin_width, episodes


@PROPERTY
@given(batches())
def test_bin_series_matches_per_episode_oracle(case):
    schema, window, bin_width, episodes = case
    batch = bin_series(episodes, schema, window, bin_width)
    want = [oracle_bin(s, schema, window, bin_width) for s in episodes]
    for got, part in zip((batch.X, batch.M, batch.D), zip(*want)):
        assert_same_bits(got, np.stack(part))
    assert batch.series == tuple(episodes)


@PROPERTY
@given(batches())
def test_attachments_match_per_episode_oracle(case):
    schema, window, bin_width, episodes = case
    cfg = EncoderConfig.temporal(4, 2.0 * window)
    batch = bin_series(episodes, schema, window, bin_width)
    want = [oracle_bin(s, schema, window, bin_width) for s in episodes]
    assert_same_bits(np.concatenate([batch.X, *attach_mask(batch)], axis=2),
                     np.stack([oracle_mask(X, M, D, window) for X, M, D in want]))
    assert_same_bits(np.concatenate([batch.X, *attach_te(batch, cfg)], axis=2),
                     np.stack([oracle_te(X, D, cfg) for X, _, D in want]))


@PROPERTY
@given(batches(with_categorical=True), st.data())
def test_invalid_categorical_code_names_the_episode_on_both_paths(case, data):
    schema, window, bin_width, episodes = case
    ch = data.draw(st.sampled_from(
        [i for i, c in enumerate(schema.channels) if c.kind == "categorical"]))
    bad_value = data.draw(st.sampled_from([-1.0, 0.5, float(schema.channels[ch].cardinality)]))
    e = data.draw(st.integers(0, len(episodes) - 1))
    s = episodes[e]
    episodes[e] = IrregularSeries(s.episode_id, np.append(s.times, 0.0),
                                  np.append(s.channel_idx, ch), np.append(s.values, bad_value))
    match = f"episode 'e{e}'"
    with pytest.raises(ValueError, match=match):
        bin_series(episodes, schema, window, bin_width)
    with pytest.raises(ValueError, match=match):
        for s in episodes:
            oracle_bin(s, schema, window, bin_width)


@pytest.mark.parametrize("te_mode", ["none", "mask", "cat_te", "add_te"])
def test_build_features_across_chunks_matches_oracle(te_mode):
    # more episodes than one featurization block, ending in a partial block
    cfg = SynthConfig(n_channels=3, rate_per_hour=0.7, window_hours=12.0,
                      task="timing_classification", gap_threshold_hours=3.0, rng_seed=5)
    episodes, _ = gen_dataset(cfg, 2 * models._BLOCK + 37)
    schema = synth_schema(cfg)
    te_cfg = EncoderConfig.temporal(4, 12.0) if te_mode in ("cat_te", "add_te") else None
    spec = ModelSpec(family="lstm", task="classification", hidden=4, te_mode=te_mode, te_cfg=te_cfg)
    batch = training.build_features(episodes, schema, 12.0, 1.5, spec)
    assert batch.M is None and batch.D is None
    assert batch.series == tuple(episodes)
    assert_same_bits(batch.X, oracle_features(episodes, schema, 12.0, 1.5, te_mode, te_cfg))


def test_binning_a_sweep_block_stays_within_its_memory_bound():
    # a sweep worker bins one 128-episode block; over 18 real channels and 48
    # steps the X, M and D it returns take 0.84 MiB each. Forward-filling one
    # int32 rank array peaks at 7.0 MiB with numpy 2.4, where filling values
    # and step indices separately peaked at 9.0 MiB.
    synth = SynthConfig(n_channels=18, rate_per_hour=0.5, window_hours=48.0,
                        task="elapsed_regression", rng_seed=1006)
    episodes, _ = gen_dataset(synth, 128)
    schema = synth_schema(synth)
    bin_series(episodes, schema, 48.0, 1.0)  # numpy's first-call allocations stay out
    tracemalloc.start()
    try:
        batch = bin_series(episodes, schema, 48.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.X.shape == (128, 48, 18)
    assert peak < 8 * 2**20, f"binning peaked at {peak / 2**20:.2f} MiB"

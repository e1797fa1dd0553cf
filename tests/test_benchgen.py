"""Synthetic benchmark generator: determinism, label oracles, distributions."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from tembed._util import canonical_json, to_object
from tembed.benchgen import (
    SynthConfig,
    expected_count_bounds,
    gen_dataset,
    gen_episode,
    oracle_label,
    synth_schema,
)
from tembed.dataset import IrregularSeries

CLS = SynthConfig(n_channels=2, task="timing_classification", rng_seed=7)
REG = SynthConfig(n_channels=2, task="elapsed_regression", rng_seed=7)


def fixed_series(times, values=None, window_channel=0):
    times = np.asarray(times, dtype=float)
    values = np.zeros_like(times) if values is None else np.asarray(values, dtype=float)
    return IrregularSeries(
        episode_id="t",
        times=times,
        channel_idx=np.full(times.shape, window_channel, dtype=int),
        values=values,
    )


class TestConfig:
    def test_defaults_match_benchmark_shape(self):
        cfg = SynthConfig()
        assert cfg.n_channels == 18
        assert cfg.rate_per_hour == 0.5
        assert cfg.window_hours == 48.0
        assert cfg.gap_threshold_hours == 6.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_channels": 0},
            {"rate_per_hour": 0.0},
            {"window_hours": -1.0},
            {"task": "clustering"},
            {"gap_threshold_hours": 0.0},
            {"gap_threshold_hours": 48.0},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            SynthConfig(**kw)

    def test_dict_round_trip(self):
        assert SynthConfig.from_dict(to_object(CLS)) == CLS

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            SynthConfig.from_dict({"n_channels": 2, "intensity": 3.0})

    def test_schema_names_and_width(self):
        schema = synth_schema(SynthConfig(n_channels=3))
        assert [c.name for c in schema.channels] == ["ch00", "ch01", "ch02"]
        assert all(c.kind == "real" for c in schema.channels)
        wide = synth_schema(SynthConfig(n_channels=101))
        assert wide.channels[100].name == "ch100"


class TestOracleLabel:
    def test_no_events_is_one_big_gap(self):
        assert oracle_label(fixed_series([]), CLS) == 1.0

    def test_even_coverage_is_negative(self):
        assert oracle_label(fixed_series(np.arange(1.0, 48.0, 5.0)), CLS) == 0.0

    def test_late_start_counts_as_gap(self):
        assert oracle_label(fixed_series([40.0, 44.0]), CLS) == 1.0

    def test_early_stop_counts_as_gap(self):
        assert oracle_label(fixed_series(np.arange(0.0, 41.0, 4.0)), CLS) == 1.0

    def test_threshold_is_strict(self):
        cfg = SynthConfig(n_channels=1, window_hours=12.0, gap_threshold_hours=6.0)
        assert oracle_label(fixed_series([6.0]), cfg) == 0.0
        assert oracle_label(fixed_series([6.001]), cfg) == 1.0

    def test_only_channel_zero_matters(self):
        quiet = fixed_series(np.arange(1.0, 48.0, 2.0))
        # same times on channel 1 leave channel 0 empty: one 48 h gap
        other = fixed_series(np.arange(1.0, 48.0, 2.0), window_channel=1)
        assert oracle_label(quiet, CLS) == 0.0
        assert oracle_label(other, CLS) == 1.0

    def test_values_never_change_timing_labels(self):
        times = np.arange(1.0, 48.0, 2.0)
        a = fixed_series(times, values=np.zeros(len(times)))
        b = fixed_series(times, values=np.full(len(times), 100.0))
        assert oracle_label(a, CLS) == oracle_label(b, CLS)

    def test_regression_sums_capped_gaps(self):
        got = oracle_label(fixed_series([10.0, 20.0, 30.0, 40.0]), REG)
        assert got == 30.0  # five gaps (10,10,10,10,8), each capped at 6

    def test_regression_no_events(self):
        assert oracle_label(fixed_series([]), REG) == 6.0

    def test_value_mix_classification_adds_value_trigger(self):
        cfg = SynthConfig(n_channels=1, value_mix=True)
        times = np.arange(1.0, 48.0, 2.0)
        calm = fixed_series(times, values=np.zeros(len(times)))
        spike = fixed_series(times, values=np.r_[np.zeros(len(times) - 1), 3.0])
        assert oracle_label(calm, cfg) == 0.0
        assert oracle_label(spike, cfg) == 1.0

    def test_value_mix_regression_blends_mean_and_clamps(self):
        cfg = SynthConfig(n_channels=1, task="elapsed_regression", value_mix=True)
        times = [10.0, 20.0, 30.0, 40.0]
        up = fixed_series(times, values=[2.0, 2.0, 2.0, 2.0])
        assert oracle_label(up, cfg) == 32.0
        down = fixed_series([1.0], values=[-100.0])
        assert oracle_label(down, cfg) == 0.0


class TestGeneration:
    def test_episode_deterministic(self):
        a = gen_episode(CLS, 3)
        b = gen_episode(CLS, 3)
        npt.assert_array_equal(a.times, b.times)
        npt.assert_array_equal(a.values, b.values)
        assert a.label == b.label

    def test_episode_streams_independent_of_order(self):
        episodes, _ = gen_dataset(CLS, 6)
        solo = gen_episode(CLS, 5)
        npt.assert_array_equal(episodes[5].times, solo.times)
        npt.assert_array_equal(episodes[5].values, solo.values)

    def test_seed_changes_data(self):
        a = gen_episode(SynthConfig(n_channels=1, rng_seed=1), 0)
        b = gen_episode(SynthConfig(n_channels=1, rng_seed=2), 0)
        assert a.n_obs != b.n_obs or not np.array_equal(a.times, b.times)

    def test_ids_are_zero_padded_indices(self):
        assert gen_episode(CLS, 12).episode_id == "ep000012"

    def test_times_inside_window_and_sorted(self):
        for i in range(20):
            ep = gen_episode(CLS, i)
            if ep.n_obs == 0:
                continue
            assert ep.times.min() >= 0.0
            assert ep.times.max() < 48.0
            assert np.all(np.diff(ep.times) >= 0)

    def test_labels_match_oracle_recomputation(self):
        for cfg in (CLS, REG):
            episodes, _ = gen_dataset(cfg, 30)
            for ep in episodes:
                assert ep.label == oracle_label(ep, cfg)

    def test_per_channel_counts_are_poisson_like(self):
        cfg = SynthConfig(n_channels=4, rng_seed=11)
        episodes, _ = gen_dataset(cfg, 200)
        counts = []
        for ep in episodes:
            for ch in range(4):
                counts.append(int((ep.channel_idx == ch).sum()))
        lo, hi = expected_count_bounds(cfg, len(counts))
        assert lo < np.mean(counts) < hi
        # Poisson variance equals its mean; allow a wide sampling band
        assert 0.8 * 24.0 < np.var(counts) < 1.2 * 24.0

    def test_values_are_standard_normal_noise(self):
        episodes, _ = gen_dataset(SynthConfig(n_channels=3, rng_seed=5), 100)
        pooled = np.concatenate([ep.values for ep in episodes])
        assert abs(pooled.mean()) < 4.0 / math.sqrt(pooled.size)
        assert abs(pooled.var() - 1.0) < 0.1

    def test_positive_rate_matches_analytic_oracle(self):
        # For Poisson(0.5/h) arrivals on [0, 48] with edge gaps counted, the
        # spacings inclusion-exclusion formula gives
        #   P(max gap > 6) = 1 - sum_n P(N=n) sum_j (-1)^j C(n+1,j)(1-6j/48)^n
        #                  = 0.7255957776431521
        # A generated dataset's positive rate is a binomial draw around that.
        p_exact = 0.7255957776431521
        n = 800
        episodes, manifest = gen_dataset(SynthConfig(n_channels=1, rng_seed=123), n)
        rate = float(np.mean([ep.label for ep in episodes]))
        sigma = math.sqrt(p_exact * (1.0 - p_exact) / n)
        assert abs(rate - p_exact) <= 3.0 * sigma
        assert manifest["class_balance"]["positive_rate"] == rate

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_dataset(CLS, 0)
        with pytest.raises(ValueError):
            gen_episode(CLS, -1)


class TestManifest:
    def test_manifest_is_reproducible_bytes(self):
        _, m1 = gen_dataset(CLS, 12)
        _, m2 = gen_dataset(CLS, 12)
        assert canonical_json(m1) == canonical_json(m2)

    def test_manifest_records_provenance(self):
        _, m = gen_dataset(CLS, 12)
        assert m["n_episodes"] == 12
        assert m["config"] == to_object(CLS)
        assert m["rng_algorithm"] == "philox-4x64"
        assert "episode_seed_rule" in m
        assert len(m["config_hash"]) == 64

    def test_hash_tracks_config_and_size(self):
        _, m1 = gen_dataset(CLS, 12)
        _, m2 = gen_dataset(CLS, 13)
        _, m3 = gen_dataset(SynthConfig(n_channels=2, rng_seed=8), 12)
        assert m1["config_hash"] != m2["config_hash"]
        assert m1["config_hash"] != m3["config_hash"]

    def test_regression_balance_reports_moments(self):
        _, m = gen_dataset(REG, 12)
        assert set(m["class_balance"]) == {"label_mean", "label_std"}

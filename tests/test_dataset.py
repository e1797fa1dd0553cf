"""Series containers, CSV round trips, normalization, binning, splits."""

import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from tembed._util import to_object
from tembed.dataset import (
    ChannelSpec,
    IrregularSeries,
    NormStats,
    Schema,
    apply_norm,
    attach_mask,
    attach_te,
    bin_series,
    drop_observations,
    fit_norm,
    load_csv,
    load_schema,
    save_schema,
    split_folds,
    train_test_split,
    write_csv,
)
from tembed.encoding import EncoderConfig, te_batch

REAL1 = Schema(channels=(ChannelSpec("hr", "real"),))
REAL2 = Schema(channels=(ChannelSpec("hr", "real"), ChannelSpec("bp", "real")))
MIXED = Schema(
    channels=(ChannelSpec("hr", "real"), ChannelSpec("rhythm", "categorical", cardinality=3))
)


def series(eid="e1", times=(), chans=(), vals=(), label=None, **kw):
    return IrregularSeries(
        episode_id=eid,
        times=np.array(times, dtype=float),
        channel_idx=np.array(chans, dtype=int),
        values=np.array(vals, dtype=float),
        label=label,
        **kw,
    )


class TestSchema:
    def test_real_channel_is_one_column(self):
        assert ChannelSpec("hr", "real").n_columns == 1

    def test_categorical_channel_expands_to_cardinality(self):
        assert ChannelSpec("rhythm", "categorical", cardinality=3).n_columns == 3

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ChannelSpec("hr", "interval")

    def test_categorical_requires_cardinality(self):
        with pytest.raises(ValueError):
            ChannelSpec("rhythm", "categorical")
        with pytest.raises(ValueError):
            ChannelSpec("rhythm", "categorical", cardinality=1)

    def test_real_must_not_declare_cardinality(self):
        with pytest.raises(ValueError):
            ChannelSpec("hr", "real", cardinality=2)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Schema(channels=(ChannelSpec("hr", "real"), ChannelSpec("hr", "real")))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schema(channels=())

    def test_index_of(self):
        assert MIXED.index_of("rhythm") == 1
        with pytest.raises(KeyError):
            MIXED.index_of("spo2")

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "schema.json")
        save_schema(path, MIXED)
        assert load_schema(path) == MIXED

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            Schema.from_dict({"channels": [], "extra": 1})
        with pytest.raises(ValueError):
            Schema.from_dict({"channels": [{"name": "a", "kind": "real", "units": "mmHg"}]})

    @pytest.mark.parametrize("doc,match", [
        ({"channels": [{"name": "a", "kind": "real"}, {"kind": "real"}]},
         r"schema channel entry 1: missing keys \['name'\]"),
        ({"channels": 5}, "'channels' must be a list of channel entries, got 5"),
        ({"channels": ["ch00"]}, "channel entry 0 must be an object, got 'ch00'"),
        ([{"name": "a", "kind": "real"}], "schema document must be an object"),
    ], ids=["entry-without-name", "channels-not-a-list", "entry-not-an-object", "document-not-an-object"])
    def test_from_dict_names_the_malformed_entry(self, tmp_path, doc, match):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_schema(str(path))


class TestIrregularSeries:
    def test_sorts_by_time(self):
        s = series(times=[3.0, 1.0, 2.0], chans=[0, 1, 0], vals=[30.0, 10.0, 20.0])
        npt.assert_array_equal(s.times, [1.0, 2.0, 3.0])
        npt.assert_array_equal(s.channel_idx, [1, 0, 0])
        npt.assert_array_equal(s.values, [10.0, 20.0, 30.0])

    def test_sort_is_stable_for_simultaneous_observations(self):
        s = series(times=[1.0, 1.0], chans=[0, 1], vals=[5.0, 6.0])
        npt.assert_array_equal(s.channel_idx, [0, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            series(times=[1.0], chans=[0, 1], vals=[1.0])

    def test_rejects_negative_and_nonfinite_times(self):
        with pytest.raises(ValueError):
            series(times=[-1.0], chans=[0], vals=[1.0])
        with pytest.raises(ValueError):
            series(times=[math.nan], chans=[0], vals=[1.0])

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            series(times=[1.0], chans=[0], vals=[math.inf])

    @pytest.mark.parametrize("times,chans,vals,match", [
        ([1.0, 2.0], [0], [1.0, 2.0], "times, channels, values must have equal length"),
        ([1.0], [0], [1.0, 2.0], "times, channels, values must have equal length"),
        ([0.5, math.inf], [0, 0], [1.0, 2.0], "non-finite observation time"),
        ([-math.inf, 1.0], [0, 0], [1.0, 2.0], "non-finite observation time"),
        ([math.nan], [0], [1.0], "non-finite observation time"),
        ([2.0, -1e-300], [0, 0], [1.0, 2.0], "negative observation time"),
        ([1.0, 2.0], [0, 0], [1.0, math.nan], "non-finite observation value"),
        ([1.0], [0], [-math.inf], "non-finite observation value"),
        # arrays it would misread: the int64 cast truncated 0.7 to 0 and wrapped 1e20, and a (1, 2)
        # times array passed
        ([0.0, 1.0], [0.7, 1.9], [1.0, 2.0], "channel index 0.7 is not an int64 integer"),
        ([0.0, 1.0], [0, math.nan], [1.0, 2.0], "channel index nan is not an int64 integer"),
        ([0.0], [math.inf], [1.0], "channel index inf is not an int64 integer"),
        ([0.0], [-1e19], [1.0], "channel index -1e+19 is not an int64 integer"),
        ([0.0], [1e20], [1.0], "channel index 1e+20 is not an int64 integer"),
        ([[0.0, 1.0]], [1], [1.0], "times, channels, values must be 1-d arrays"),
        ([0.0, 1.0], [[0, 1]], [1.0, 2.0], "times, channels, values must be 1-d arrays"),
        ([0.0], [0], [[1.0]], "times, channels, values must be 1-d arrays"),
        (0.0, 0, 1.0, "times, channels, values must be 1-d arrays"),
    ])
    def test_rejects_each_bad_input_by_name(self, times, chans, vals, match):
        with pytest.raises(ValueError, match=f"^episode 'e1': {re.escape(match)}$"):
            IrregularSeries("e1", times, chans, vals)

    def test_empty_episode_is_valid(self):
        assert series().n_obs == 0

    def test_integer_channel_indices_of_any_dtype_are_taken(self):
        for chans in ([0.0, 1.0], np.array([0, 1], dtype=np.int32), np.array([0, 1], dtype=np.uint8)):
            s = IrregularSeries("a", [0.0, 1.0], chans, [1.0, 2.0])
            assert s.channel_idx.dtype == np.int64 and s.channel_idx.tolist() == [0, 1]


class TestCsvRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        eps = [
            series("a", [0.1, 2.7], [0, 1], [1.000000000000004, -3.5], label=1.0),
            series("b", [1.0 / 3.0], [0], [math.pi], label=0.0),
        ]
        data, labels = str(tmp_path / "d.csv"), str(tmp_path / "l.csv")
        write_csv(eps, REAL2, data, labels)
        got = load_csv(data, REAL2, labels)
        assert [e.episode_id for e in got] == ["a", "b"]
        for orig, back in zip(eps, got):
            npt.assert_array_equal(orig.times, back.times)
            npt.assert_array_equal(orig.values, back.values)
            npt.assert_array_equal(orig.channel_idx, back.channel_idx)
            assert orig.label == back.label

    @pytest.mark.parametrize("labeled", [True, False])
    def test_refuses_an_episode_without_observations(self, tmp_path, labeled):
        # it would write no data row: load_csv then refuses its label row, or drops it unlabeled
        eps = [series("a", [1.0], [0], [2.0], label=1.0), series("b", label=0.0), series("c", label=1.0)]
        data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
        with pytest.raises(ValueError, match="^episode 'b' has no observations"):
            write_csv(eps, REAL1, str(data), str(labels) if labeled else None)
        assert not any(tmp_path.iterdir())

    def test_episodes_come_back_id_sorted(self, tmp_path):
        eps = [series("z", [1.0], [0], [1.0]), series("a", [1.0], [0], [2.0])]
        data = str(tmp_path / "d.csv")
        write_csv(eps, REAL1, data)
        assert [e.episode_id for e in load_csv(data, REAL1)] == ["a", "z"]

    def test_out_of_order_rows_are_time_sorted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "episode_id,time_hours,channel,value\ne,5.0,hr,2.0\ne,1.0,hr,1.0\n"
        )
        (got,) = load_csv(str(path), REAL1)
        npt.assert_array_equal(got.times, [1.0, 5.0])

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        assert load_csv(str(path), REAL1) == []

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("episode_id,time_hours,channel,value\n")
        assert load_csv(str(path), REAL1) == []

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,t,ch,v\ne,1.0,hr,2.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(str(path), REAL1)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("e,abc,hr,2.0", "line 2"),
            ("e,1.0,hr,NaN", "line 2"),
            ("e,1.0,hr,inf", "line 2"),
            ("e,-1.0,hr,2.0", "line 2"),
            ("e,1.0,spo2,2.0", "line 2"),
            ("e,1.0,hr", "line 2"),
        ],
    )
    def test_malformed_rows_name_their_line(self, tmp_path, row, message):
        path = tmp_path / "d.csv"
        path.write_text("episode_id,time_hours,channel,value\n" + row + "\n")
        with pytest.raises(ValueError, match=message):
            load_csv(str(path), REAL1)

    def test_line_numbers_count_from_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "episode_id,time_hours,channel,value\ne,1.0,hr,2.0\ne,bad,hr,2.0\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            load_csv(str(path), REAL1)

    def test_categorical_values_validated_on_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("episode_id,time_hours,channel,value\ne,1.0,rhythm,7.0\n")
        with pytest.raises(ValueError, match="rhythm"):
            load_csv(str(path), MIXED)

    def test_missing_label_is_an_error(self, tmp_path):
        data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
        data.write_text("episode_id,time_hours,channel,value\ne1,1.0,hr,2.0\ne2,1.0,hr,2.0\n")
        labels.write_text("episode_id,label\ne1,1.0\n")
        with pytest.raises(ValueError, match="without labels"):
            load_csv(str(data), REAL1, str(labels))

    def test_orphan_label_is_an_error(self, tmp_path):
        data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
        data.write_text("episode_id,time_hours,channel,value\ne1,1.0,hr,2.0\n")
        labels.write_text("episode_id,label\ne1,1.0\nghost,0.0\n")
        with pytest.raises(ValueError, match="labels without episodes"):
            load_csv(str(data), REAL1, str(labels))

    def test_empty_file_with_labels_reports_orphans(self, tmp_path):
        data, labels = tmp_path / "d.csv", tmp_path / "l.csv"
        data.write_text("")
        labels.write_text("episode_id,label\ne1,1.0\n")
        with pytest.raises(ValueError, match="labels without episodes"):
            load_csv(str(data), REAL1, str(labels))

    def test_duplicate_label_is_an_error(self, tmp_path):
        labels = tmp_path / "l.csv"
        labels.write_text("episode_id,label\ne1,1.0\ne1,0.0\n")
        data = tmp_path / "d.csv"
        data.write_text("episode_id,time_hours,channel,value\ne1,1.0,hr,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(str(data), REAL1, str(labels))


class TestNormalization:
    def test_hand_case_population_convention(self):
        eps = [series("a", [1.0, 2.0], [0, 0], [1.0, 3.0])]
        stats = fit_norm(eps, REAL1)
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0
        normed = apply_norm(eps[0], stats, REAL1)
        npt.assert_array_equal(normed.values, [-1.0, 1.0])

    def test_pools_across_episodes(self):
        eps = [
            series("a", [1.0], [0], [0.0]),
            series("b", [1.0, 2.0], [0, 0], [6.0, 6.0]),
        ]
        stats = fit_norm(eps, REAL1)
        assert stats.mean[0] == 4.0
        assert math.isclose(stats.std[0], math.sqrt(8.0), rel_tol=1e-15)

    def test_constant_channel_clamps_std(self):
        eps = [series("a", [1.0, 2.0, 3.0], [0, 0, 0], [5.0, 5.0, 5.0])]
        stats = fit_norm(eps, REAL1)
        assert stats.std[0] == 1.0
        npt.assert_array_equal(apply_norm(eps[0], stats, REAL1).values, [0.0, 0.0, 0.0])

    def test_empty_channel_warns_and_uses_identity(self):
        eps = [series("a", [1.0], [0], [9.0])]
        with pytest.warns(UserWarning, match="bp"):
            stats = fit_norm(eps, REAL2)
        assert stats.mean[1] == 0.0 and stats.std[1] == 1.0

    def test_pooled_training_data_is_standardized_after_apply(self):
        rng = np.random.default_rng(0)
        eps = [
            series(f"e{i}", np.sort(rng.uniform(0, 10, 20)), rng.integers(0, 2, 20),
                   rng.normal(3.0, 2.5, 20))
            for i in range(10)
        ]
        stats = fit_norm(eps, REAL2)
        normed = [apply_norm(e, stats, REAL2) for e in eps]
        for ch in range(2):
            pooled = np.concatenate([e.values[e.channel_idx == ch] for e in normed])
            assert abs(pooled.mean()) < 1e-9
            assert abs(pooled.var() - 1.0) < 1e-6

    def test_categorical_values_untouched(self):
        eps = [series("a", [0.5, 1.0, 2.0], [0, 1, 1], [9.0, 2.0, 0.0])]
        stats = fit_norm(eps, MIXED)
        normed = apply_norm(eps[0], stats, MIXED)
        npt.assert_array_equal(normed.values[1:], [2.0, 0.0])

    def test_second_apply_is_refused(self):
        eps = [series("a", [1.0, 2.0], [0, 0], [1.0, 3.0])]
        stats = fit_norm(eps, REAL1)
        once = apply_norm(eps[0], stats, REAL1)
        assert once.normalized
        with pytest.raises(ValueError, match="already normalized"):
            apply_norm(once, stats, REAL1)

    def test_original_series_not_mutated(self):
        eps = [series("a", [1.0, 2.0], [0, 0], [1.0, 3.0])]
        stats = fit_norm(eps, REAL1)
        apply_norm(eps[0], stats, REAL1)
        npt.assert_array_equal(eps[0].values, [1.0, 3.0])
        assert not eps[0].normalized

    def test_a_value_that_standardizes_to_a_non_finite_number_is_refused(self):
        # stats fitted to values near the float limit can do this
        stats = NormStats(mean=np.array([-1e308]), std=np.array([1e-10]))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^episode 'a': non-finite observation value after normalization$"):
            apply_norm(series("a", [1.0], [0], [1e308]), stats, REAL1)

    def test_apply_norm_gives_the_arrays_the_constructor_gives(self):
        s = series("a", [0.5, 1.0, 2.0], [0, 1, 1], [9.0, 2.0, 0.0], label=1.0)
        out = apply_norm(s, fit_norm([s], MIXED), MIXED)
        want = IrregularSeries(out.episode_id, out.times.copy(), out.channel_idx.copy(),
                               out.values.copy(), out.label, True)
        for name in ("times", "channel_idx", "values"):
            got, ref = getattr(out, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert not np.shares_memory(got, getattr(s, name))
        assert (out.episode_id, out.label, out.normalized) == ("a", 1.0, True)

    def test_stats_serialize_round_trip(self):
        # experiment.json records the stats as JSON numbers; they keep every bit
        stats = NormStats(mean=np.array([1.0, 0.1]), std=np.array([3.0, 1 / 3]))
        back = json.loads(json.dumps(to_object(stats)))
        npt.assert_array_equal(back["mean"], stats.mean)
        npt.assert_array_equal(back["std"], stats.std)


def binned(s, schema, window, bin_width):
    """The one-episode batch of ``s``."""
    return bin_series([s], schema, window=window, bin_width=bin_width)


class TestBinning:
    def test_hand_case_mask_and_delta(self):
        s = series("a", [0.5], [0], [2.0])
        ep = binned(s, REAL1, window=2.0, bin_width=1.0)
        npt.assert_array_equal(ep.M[0], [[1.0], [0.0]])
        npt.assert_array_equal(ep.D[0], [[0.0], [1.0]])
        npt.assert_array_equal(ep.X[0], [[2.0], [2.0]])

    def test_forward_fill_and_lead_zero(self):
        s = series("a", [2.5], [0], [7.0])
        ep = binned(s, REAL1, window=4.0, bin_width=1.0)
        npt.assert_array_equal(ep.X[0, :, 0], [0.0, 0.0, 7.0, 7.0])
        npt.assert_array_equal(ep.M[0, :, 0], [0.0, 0.0, 1.0, 0.0])
        npt.assert_array_equal(ep.D[0, :, 0], [0.0, 1.0, 0.0, 1.0])

    def test_last_observation_in_bin_wins(self):
        s = series("a", [0.2, 0.7], [0, 0], [1.0, 3.0])
        ep = binned(s, REAL1, window=2.0, bin_width=1.0)
        assert ep.X[0, 0, 0] == 3.0

    def test_delta_accumulates_in_hours(self):
        s = series("a", [0.5], [0], [2.0])
        ep = binned(s, REAL1, window=3.0, bin_width=0.5)
        npt.assert_array_equal(ep.D[0, :, 0], [0.0, 0.0, 0.5, 1.0, 1.5, 2.0])
        npt.assert_array_equal(ep.M[0, :, 0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_step_count_is_ceil(self):
        s = series("a", [0.1], [0], [1.0])
        assert binned(s, REAL1, window=5.0, bin_width=2.0).X.shape[1] == 3
        assert binned(s, REAL1, window=4.0, bin_width=2.0).X.shape[1] == 2

    def test_step_count_survives_float_noise(self):
        # 5.1 / 1.7 is 3.0000000000000004 in floats; naive ceil would say 4
        s = series("a", [0.1], [0], [1.0])
        assert binned(s, REAL1, window=5.1, bin_width=1.7).X.shape[1] == 3

    def test_observations_beyond_window_ignored(self):
        s = series("a", [1.5, 3.9, 4.0, 7.2], [0, 0, 0, 0], [1.0, 2.0, 3.0, 4.0])
        ep = binned(s, REAL1, window=4.0, bin_width=1.0)
        npt.assert_array_equal(ep.M[0, :, 0], [0.0, 1.0, 0.0, 1.0])
        assert ep.X[0, 3, 0] == 2.0

    def test_empty_episode_bins_to_zeros(self):
        ep = binned(series("a"), REAL1, window=2.0, bin_width=1.0)
        npt.assert_array_equal(ep.M[0], np.zeros((2, 1)))
        npt.assert_array_equal(ep.X[0], np.zeros((2, 1)))

    def test_categorical_one_hot_with_zero_lead(self):
        s = series("a", [1.5, 2.5], [1, 1], [2.0, 0.0])
        ep = binned(s, MIXED, window=4.0, bin_width=1.0)
        npt.assert_array_equal(
            ep.X[0, :, 1:],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        )

    @pytest.mark.parametrize("channel", [-1, 2])
    def test_rejects_channel_index_outside_schema(self, channel):
        with pytest.raises(ValueError, match="episode 'b'.*outside the 2-channel schema"):
            bin_series([series("a", [0.5], [1], [1.0]), series("b", [0.5], [channel], [1.0])],
                       REAL2, window=2.0, bin_width=1.0)

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            binned(series("a"), REAL1, window=0.0, bin_width=1.0)
        with pytest.raises(ValueError):
            binned(series("a"), REAL1, window=2.0, bin_width=-1.0)

    def test_per_channel_independence(self):
        s = series("a", [0.5, 2.5], [0, 1], [1.0, 4.0])
        ep = binned(s, REAL2, window=4.0, bin_width=1.0)
        npt.assert_array_equal(ep.M[0, :, 0], [1.0, 0.0, 0.0, 0.0])
        npt.assert_array_equal(ep.M[0, :, 1], [0.0, 0.0, 1.0, 0.0])
        npt.assert_array_equal(ep.D[0, :, 1], [0.0, 1.0, 0.0, 1.0])


class TestFeatureAttachment:
    def base(self):
        s = series("a", [0.5, 2.5], [0, 1], [1.0, 4.0], label=1.0)
        return binned(s, REAL2, window=4.0, bin_width=1.0)

    def test_mask_appends_indicators_and_scaled_gaps(self):
        indicators, gaps = attach_mask(self.base())
        npt.assert_array_equal(indicators, self.base().M)
        npt.assert_array_equal(gaps, self.base().D / 4.0)

    def test_mask_gap_feature_bounded(self):
        _, gaps = attach_mask(self.base())
        assert gaps.max() <= 1.0
        assert gaps.min() >= 0.0

    def test_te_appends_observation_gap_embeddings_bit_exactly(self):
        cfg = EncoderConfig.temporal(4, 48.0)
        [te_cols] = attach_te(self.base(), cfg)
        # ch0 seen in bin 0, ch1 in bin 2: hours since the latest observation
        # in any channel are 0, 1, 0, 1 at the four bin starts
        npt.assert_array_equal(te_cols[0], te_batch(np.array([0.0, 1.0, 0.0, 1.0]), cfg))

    def test_te_columns_follow_each_episodes_observation_times(self):
        cfg = EncoderConfig.temporal(4, 48.0)
        early = binned(series("a", [0.5, 1.5], [0, 1], [1.0, 4.0]), REAL2, 4.0, 1.0)
        late = binned(series("b", [2.5, 3.5], [0, 1], [1.0, 4.0]), REAL2, 4.0, 1.0)
        assert not np.array_equal(attach_te(early, cfg)[0], attach_te(late, cfg)[0])
        # ch1 never observed, ch0 only at 1.5 h: bin 0 counts from the window
        # start, bin 1 holds the observation, later bins count from it
        lone = binned(series("c", [1.5], [0], [2.0]), REAL2, 5.0, 1.0)
        npt.assert_array_equal(attach_te(lone, cfg)[0][0],
                               te_batch(np.array([0.0, 0.0, 1.0, 2.0, 3.0]), cfg))

    def test_te_leaves_mask_and_delta_out_of_features(self):
        blocks = attach_te(self.base(), EncoderConfig.temporal(4, 48.0))
        # the 4 embedding columns only; no M or D/window columns
        assert [block.shape for block in blocks] == [(1, 4, 4)]

    def test_te_requires_temporal_config_covering_window(self):
        with pytest.raises(ValueError, match="temporal"):
            attach_te(self.base(), EncoderConfig.positional(4))
        with pytest.raises(ValueError, match="max_time"):
            attach_te(self.base(), EncoderConfig.temporal(4, 2.0))

    def test_label_and_identity_survive(self):
        # the attachments return columns and leave the batch as it was
        base = self.base()
        attach_mask(base)
        attach_te(base, EncoderConfig.temporal(4, 48.0))
        assert base.X.shape == (1, 4, 2)
        assert base.series[0].label == 1.0
        assert base.series[0].episode_id == "a"


class TestDropObservations:
    def make(self, n=4000):
        rng = np.random.default_rng(1)
        return series("a", np.sort(rng.uniform(0, 48, n)), rng.integers(0, 2, n),
                      rng.normal(size=n), label=1.0)

    def test_keep_one_returns_everything(self):
        s = self.make(100)
        out = drop_observations(s, 1.0, rng_seed=0)
        npt.assert_array_equal(out.times, s.times)
        assert out.label == s.label

    def test_deterministic_under_seed(self):
        s = self.make(500)
        a = drop_observations(s, 0.5, rng_seed=42)
        b = drop_observations(s, 0.5, rng_seed=42)
        npt.assert_array_equal(a.times, b.times)

    def test_seed_changes_selection(self):
        s = self.make(500)
        a = drop_observations(s, 0.5, rng_seed=1)
        b = drop_observations(s, 0.5, rng_seed=2)
        assert a.n_obs != b.n_obs or not np.array_equal(a.times, b.times)

    def test_kept_count_is_binomial(self):
        s = self.make(4000)
        kept = drop_observations(s, 0.7, rng_seed=3).n_obs
        sigma = math.sqrt(4000 * 0.7 * 0.3)
        assert abs(kept - 2800) < 4 * sigma

    def test_surviving_rows_keep_their_values(self):
        s = self.make(200)
        out = drop_observations(s, 0.5, rng_seed=7)
        pos = np.searchsorted(s.times, out.times)
        npt.assert_array_equal(s.values[pos], out.values)

    def test_label_and_flag_preserved(self):
        s = self.make(50)
        normed = IrregularSeries(
            episode_id=s.episode_id, times=s.times, channel_idx=s.channel_idx,
            values=s.values, label=s.label, normalized=True,
        )
        out = drop_observations(normed, 0.5, rng_seed=0)
        assert out.normalized and out.label == 1.0

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
    def test_rejects_bad_fraction(self, frac):
        with pytest.raises(ValueError):
            drop_observations(self.make(10), frac, rng_seed=0)

    def test_sequence_seed_accepted(self):
        s = self.make(100)
        a = drop_observations(s, 0.5, rng_seed=[5, 2])
        b = drop_observations(s, 0.5, rng_seed=[5, 2])
        npt.assert_array_equal(a.times, b.times)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_equals_the_checked_construction(self, normalized):
        s = self.make(300)
        s.normalized = normalized
        out = drop_observations(s, 0.4, rng_seed=[3, 1])
        want = IrregularSeries(out.episode_id, out.times.copy(), out.channel_idx.copy(),
                               out.values.copy(), out.label, out.normalized)
        assert 0 < out.n_obs < s.n_obs
        for name in ("times", "channel_idx", "values"):
            got, ref = getattr(out, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert (out.episode_id, out.label, out.normalized) == ("a", 1.0, normalized)


def make_labeled_pool(n=100, pos=0.4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = 1.0 if i < round(n * pos) else 0.0
        out.append(series(f"e{i:03d}", [float(rng.uniform(0, 4))], [0], [1.0], label=label))
    return out


class TestSplits:
    def test_fold_sizes_balanced(self):
        pool = make_labeled_pool(103)
        fold = split_folds(pool, 5, rng_seed=0)
        sizes = np.bincount(fold, minlength=5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 103

    def test_folds_stratified_per_class(self):
        pool = make_labeled_pool(100, pos=0.4)
        fold = split_folds(pool, 5, rng_seed=0)
        labels = np.array([e.label for e in pool])
        for f in range(5):
            pos = int(labels[fold == f].sum())
            assert abs(pos - 8) <= 1

    def test_assignment_follows_episode_not_input_order(self):
        pool = make_labeled_pool(40)
        fold = split_folds(pool, 4, rng_seed=9)
        shuffled = list(reversed(pool))
        fold_shuffled = split_folds(shuffled, 4, rng_seed=9)
        for ep, f in zip(pool, fold):
            j = next(i for i, e in enumerate(shuffled) if e.episode_id == ep.episode_id)
            assert fold_shuffled[j] == f

    def test_deterministic_and_seed_sensitive(self):
        pool = make_labeled_pool(60)
        npt.assert_array_equal(split_folds(pool, 3, rng_seed=4), split_folds(pool, 3, rng_seed=4))
        assert not np.array_equal(split_folds(pool, 3, rng_seed=4), split_folds(pool, 3, rng_seed=5))

    def test_unstratified_split_needs_no_labels(self):
        pool = [series(f"e{i}", [1.0], [0], [1.0]) for i in range(10)]
        fold = split_folds(pool, 2, rng_seed=0, stratify=False)
        assert set(fold) == {0, 1}

    def test_stratified_split_requires_labels(self):
        pool = [series(f"e{i}", [1.0], [0], [1.0]) for i in range(10)]
        with pytest.raises(ValueError, match="label"):
            split_folds(pool, 2, rng_seed=0)

    def test_rejects_bad_k(self):
        pool = make_labeled_pool(10)
        with pytest.raises(ValueError):
            split_folds(pool, 1, rng_seed=0)
        with pytest.raises(ValueError):
            split_folds(pool[:3], 4, rng_seed=0)

    def test_rejects_duplicate_ids(self):
        pool = [series("same", [1.0], [0], [1.0], label=0.0)] * 4
        with pytest.raises(ValueError, match="unique"):
            split_folds(pool, 2, rng_seed=0)

    def test_train_test_split_fraction_and_partition(self):
        pool = make_labeled_pool(100, pos=0.4)
        train, test = train_test_split(pool, 0.25, rng_seed=0)
        assert len(test) == 25 and len(train) == 75
        test_labels = np.array([e.label for e in test])
        assert int(test_labels.sum()) == 10
        assert {e.episode_id for e in train} | {e.episode_id for e in test} == {
            e.episode_id for e in pool
        }

    def test_train_test_split_order_invariant(self):
        pool = make_labeled_pool(50)
        _, test_a = train_test_split(pool, 0.2, rng_seed=3)
        _, test_b = train_test_split(list(reversed(pool)), 0.2, rng_seed=3)
        assert {e.episode_id for e in test_a} == {e.episode_id for e in test_b}

    def test_train_test_split_rejects_bad_fraction(self):
        pool = make_labeled_pool(10)
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                train_test_split(pool, frac, rng_seed=0)

    def test_train_test_split_stratified_requires_labels(self):
        pool = [series(f"e{i}", [1.0], [0], [1.0]) for i in range(10)]
        with pytest.raises(ValueError, match="label"):
            train_test_split(pool, 0.2, rng_seed=0)

    def test_unstratified_train_test_split_takes_the_head_of_the_permutation(self):
        # pinned ids: one group of every episode, labels ignored, so none is needed
        for label in (None, 1.0):
            pool = [series(f"e{i:02d}", [1.0], [0], [1.0], label=label) for i in range(20)]
            train, test = train_test_split(pool, 0.25, rng_seed=[7, 1], stratify=False)
            assert [e.episode_id for e in test] == ["e00", "e02", "e07", "e10", "e17"]
            assert len(train) == 15

    @pytest.mark.parametrize("stratify", [True, False])
    def test_train_test_split_rejects_empty_pool(self, stratify):
        with pytest.raises(ValueError, match="empty"):
            train_test_split([], 0.2, rng_seed=0, stratify=stratify)


class TestLabelConvert:
    """Regression labels are hours in the data files and days in training."""

    def test_hours_to_days(self):
        from tembed import training
        from tembed.models import ModelSpec

        ep = series(times=[1.0], chans=[0], vals=[70.0], label=36.0)
        spec = ModelSpec(family="linreg", task="regression")
        data = training.prepare(training.build_features([ep], REAL1, 12.0, 2.0, spec), "regression")
        assert data.y[0] == 1.5
        got = training._test_metrics("regression", np.array([0.0, 1.0]), np.array([1.5, 2.5]))
        assert got["mae_hours"] == 36.0

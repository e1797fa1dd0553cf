"""Optimizer, seeded training loop, cross-validation protocol, dropout sweep."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from tembed.benchgen import SynthConfig, gen_dataset, synth_schema
from tembed.encoding import EncoderConfig
from tembed.models import ModelSpec, init_params, model_input_width
from tembed.training import (
    DEFAULT_FRACTIONS,
    ArrayData,
    DivergenceError,
    Hyper,
    WORKERS_ENV,
    aggregate_stats,
    build_features,
    evaluate,
    init_opt_state,
    opt_step,
    predict_scores,
    prepare,
    report_summary_lines,
    report_to_json,
    run_cv,
    sweep_dropout,
    sweep_to_csv,
    train_one,
    val_metric_name,
)

WINDOW = 12.0
BIN_WIDTH = 2.0
CFG = SynthConfig(
    n_channels=2, rate_per_hour=0.9, window_hours=WINDOW,
    task="timing_classification", gap_threshold_hours=3.0, rng_seed=7,
)
SCHEMA = synth_schema(CFG)
LOGREG = ModelSpec(family="logreg", task="classification")


@pytest.fixture(scope="module")
def corpus():
    series, _ = gen_dataset(CFG, 28)
    return series[:20], series[20:]


@pytest.fixture(scope="module")
def pool_and_test(corpus):
    pool_series, test_series = corpus
    pool = build_features(pool_series, SCHEMA, WINDOW, BIN_WIDTH, LOGREG)
    test = build_features(test_series, SCHEMA, WINDOW, BIN_WIDTH, LOGREG)
    return pool, test


def two_class_split(data, n_val_pos=2, n_val_neg=4):
    """Deterministic train/val index split with both classes on each side."""
    pos = [i for i in range(data.n) if data.y[i] == 1.0]
    neg = [i for i in range(data.n) if data.y[i] == 0.0]
    val = pos[:n_val_pos] + neg[:n_val_neg]
    train = [i for i in range(data.n) if i not in set(val)]
    return train, val


class TestHyper:
    def test_defaults(self):
        h = Hyper()
        assert (h.lr, h.epochs, h.batch_size, h.weight_decay) == (1e-3, 40, 100, 1e-2)

    def test_zero_epochs_allowed(self):
        assert Hyper(epochs=0).epochs == 0

    @pytest.mark.parametrize("kw", [
        {"lr": 0.0}, {"lr": -1.0}, {"epochs": -1}, {"batch_size": 0}, {"weight_decay": -0.1},
        {"epochs": 1.5}, {"epochs": 2.0}, {"epochs": True}, {"epochs": "3"}, {"epochs": np.int64(3)},
        {"batch_size": 8.5}, {"batch_size": 16.0}, {"batch_size": True},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            Hyper(**kw)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Hyper().lr = 0.5

    def test_to_dict(self):
        assert Hyper(lr=0.01, epochs=3).to_dict() == {
            "lr": 0.01, "epochs": 3, "batch_size": 100, "weight_decay": 1e-2,
        }


class TestOptimizer:
    def test_first_step_closed_form(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        grads = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        lr, wd, eps = 2e-3, 1e-2, 1e-8
        state = init_opt_state(params, lr=lr, weight_decay=wd, eps=eps)
        new, state1 = opt_step(params, grads, state)
        for name in params:
            g = grads[name]
            want = params[name] * (1.0 - lr * wd) - lr * g / (np.abs(g) + eps)
            npt.assert_allclose(new[name], want, rtol=0, atol=1e-12)
        assert state1.t == 1

    def test_inputs_left_untouched(self):
        params = {"w": np.ones(3)}
        grads = {"w": np.full(3, 0.5)}
        state = init_opt_state(params, lr=1e-3, weight_decay=1e-2)
        opt_step(params, grads, state)
        npt.assert_array_equal(params["w"], np.ones(3))
        npt.assert_array_equal(state.m["w"], np.zeros(3))
        assert state.t == 0

    def test_name_mismatch_rejected(self):
        params = {"w": np.ones(3)}
        state = init_opt_state(params, lr=1e-3, weight_decay=0.0)
        with pytest.raises(ValueError, match="name"):
            opt_step(params, {"b": np.ones(3)}, state)

    def test_nonfinite_gradient_raises(self):
        params = {"w": np.ones(3)}
        state = init_opt_state(params, lr=1e-3, weight_decay=0.0)
        with pytest.raises(DivergenceError, match="w"):
            opt_step(params, {"w": np.array([1.0, np.nan, 0.0])}, state)

    def test_second_moment_max_never_decreases(self):
        rng = np.random.default_rng(1)
        params = {"w": rng.normal(size=8)}
        state = init_opt_state(params, lr=1e-3, weight_decay=1e-2)
        prev = state.vmax["w"].copy()
        for _ in range(200):
            params, state = opt_step(params, {"w": rng.normal(size=8) * 10.0}, state)
            assert (state.vmax["w"] >= prev - 1e-18).all()
            assert (state.vmax["w"] >= state.v["w"] - 1e-18).all()
            prev = state.vmax["w"].copy()

    def test_weight_decay_decoupled_from_gradient(self):
        # zero gradient: the only movement is the multiplicative decay
        params = {"w": np.full(3, 2.0)}
        state = init_opt_state(params, lr=0.1, weight_decay=0.5)
        new, _ = opt_step(params, {"w": np.zeros(3)}, state)
        npt.assert_allclose(new["w"], np.full(3, 2.0 * (1 - 0.1 * 0.5)), rtol=0, atol=1e-15)


class TestAggregateStats:
    def test_hand_case(self):
        got = aggregate_stats([1.0, 2.0, 3.0, 4.0])
        assert got["mean"] == 2.5
        assert math.isclose(got["std"], math.sqrt(1.25), rel_tol=0, abs_tol=1e-15)
        assert math.isclose(got["stderr"], math.sqrt(1.25) / 2.0, rel_tol=0, abs_tol=1e-15)
        assert got["n"] == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_stats([])


class TestPrepare:
    def test_stacks_episodes(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        assert data.X.shape == (20, 6, 2)
        assert data.n == 20
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        assert data.episode_ids == tuple(ep.episode_id for ep in pool)
        npt.assert_array_equal(data.grid_times, np.arange(6) * BIN_WIDTH)

    def test_subset_keeps_alignment(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        sub = data.subset([3, 5])
        assert sub.n == 2
        npt.assert_array_equal(sub.X[0], data.X[3])
        assert sub.episode_ids == (data.episode_ids[3], data.episode_ids[5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no episodes"):
            prepare([], "classification")

    def test_inconsistent_shapes_rejected(self, pool_and_test):
        pool, _ = pool_and_test
        masked = build_features(
            [gen_dataset(CFG, 1)[0][0]], SCHEMA, WINDOW, BIN_WIDTH,
            ModelSpec(family="logreg", task="classification", te_mode="mask"),
        )
        with pytest.raises(ValueError, match="shape"):
            prepare([pool[0], masked[0]], "classification")

    def test_missing_label_rejected(self, pool_and_test):
        pool, _ = pool_and_test
        unlabeled = dataclasses.replace(pool[0], label=None)
        with pytest.raises(ValueError, match="label"):
            prepare([unlabeled], "classification")

    def test_nonbinary_classification_label_rejected(self, pool_and_test):
        pool, _ = pool_and_test
        bad = dataclasses.replace(pool[0], label=2.0)
        with pytest.raises(ValueError, match="0 or 1"):
            prepare([bad], "classification")

    def test_regression_labels_become_days(self, pool_and_test):
        pool, _ = pool_and_test
        ep = dataclasses.replace(pool[0], label=36.0)
        data = prepare([ep], "regression")
        assert data.y[0] == 1.5


class TestBuildFeatures:
    def test_width_per_input_regime(self, corpus):
        pool_series, _ = corpus
        one = pool_series[:1]
        te_cfg = EncoderConfig.temporal(4, WINDOW)
        widths = {}
        for mode, te in (("none", None), ("mask", None), ("cat_te", te_cfg)):
            spec = ModelSpec(family="logreg", task="classification", te_mode=mode, te_cfg=te)
            widths[mode] = build_features(one, SCHEMA, WINDOW, BIN_WIDTH, spec)[0].X.shape[1]
        assert widths["none"] == 2
        assert widths["mask"] == 2 + 2 * CFG.n_channels
        assert widths["cat_te"] == 2 + 4

    def test_add_te_adds_no_columns(self, corpus):
        pool_series, _ = corpus
        spec = ModelSpec(
            family="lstm", task="classification", hidden=4,
            te_mode="add_te", te_cfg=EncoderConfig.temporal(4, WINDOW),
        )
        ep = build_features(pool_series[:1], SCHEMA, WINDOW, BIN_WIDTH, spec)[0]
        assert ep.X.shape[1] == 2


class TestTrainOne:
    def test_deterministic_under_seed(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)
        train, val = data.subset(tr), data.subset(va)
        hyper = Hyper(epochs=3, batch_size=7)
        a = train_one(LOGREG, train, val, hyper, seed=5)
        b = train_one(LOGREG, train, val, hyper, seed=5)
        assert a.history == b.history
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])
        c = train_one(LOGREG, train, val, hyper, seed=6)
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_history_shape(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)
        train, val = data.subset(tr), data.subset(va)
        result = train_one(LOGREG, train, val, Hyper(epochs=4, batch_size=7), seed=0)
        assert len(result.history) == 4
        for i, row in enumerate(result.history):
            assert row["epoch"] == i
            assert math.isfinite(row["train_loss"])
            assert 0.0 <= row["val_metric"] <= 1.0

    def test_best_epoch_selection(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)
        train, val = data.subset(tr), data.subset(va)
        result = train_one(LOGREG, train, val, Hyper(epochs=6, batch_size=7), seed=1)
        seen = [row["val_metric"] for row in result.history]
        assert result.best_val >= max(seen) or result.best_val == pytest.approx(max(seen))

    def test_zero_epochs_returns_initial_params(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)
        train, val = data.subset(tr), data.subset(va)
        result = train_one(LOGREG, train, val, Hyper(epochs=0), seed=9)
        width = model_input_width(LOGREG, data.X.shape[1], data.X.shape[2])
        fresh = init_params(LOGREG, width, [9, 0])
        for name in fresh:
            npt.assert_array_equal(result.params[name], fresh[name])
        assert result.history == []
        assert math.isfinite(result.best_val)

    def test_divergence_raises(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)
        train, val = data.subset(tr), data.subset(va)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch"):
            train_one(LOGREG, train, val, Hyper(lr=1e12, epochs=25, batch_size=7), seed=0)


class TestEvaluate:
    def test_classification_metric_names(self, pool_and_test):
        pool, test = pool_and_test
        data = prepare(test, "classification")
        width = model_input_width(LOGREG, data.X.shape[1], data.X.shape[2])
        params = init_params(LOGREG, width, 0)
        got = evaluate(LOGREG, params, data)
        assert set(got) == {"auc_roc", "ap"}

    def test_regression_metrics_in_hours(self, pool_and_test):
        pool, _ = pool_and_test
        spec = ModelSpec(family="linreg", task="regression")
        eps = [dataclasses.replace(ep, label=24.0 * (1 + i % 3)) for i, ep in enumerate(pool)]
        data = prepare(eps, "regression")
        width = model_input_width(spec, data.X.shape[1], data.X.shape[2])
        params = init_params(spec, width, 0)
        got = evaluate(spec, params, data)
        assert set(got) == {"mae_hours", "rmse_hours", "ev"}
        scores_days = predict_scores(spec, params, data)
        want_mae = np.abs(scores_days * 24.0 - data.y * 24.0).mean()
        assert math.isclose(got["mae_hours"], want_mae, rel_tol=1e-12)

    def test_predict_scores_batch_size_invariant(self, pool_and_test):
        _, test = pool_and_test
        data = prepare(test, "classification")
        width = model_input_width(LOGREG, data.X.shape[1], data.X.shape[2])
        params = init_params(LOGREG, width, 3)
        npt.assert_array_equal(
            predict_scores(LOGREG, params, data, batch_size=3),
            predict_scores(LOGREG, params, data, batch_size=256),
        )

    def test_val_metric_names(self):
        assert val_metric_name("classification") == "auc_roc"
        assert val_metric_name("regression") == "mae_days"


CV_HYPER = Hyper(epochs=2, batch_size=8)


@pytest.fixture(scope="module")
def cv(pool_and_test):
    pool, test = pool_and_test
    return run_cv(LOGREG, pool, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=11)


@pytest.fixture(scope="module")
def selected(pool_and_test):
    pool, test = pool_and_test
    _, chosen = run_cv(
        LOGREG, pool, test, Hyper(epochs=1, batch_size=8), k=2, runs_per_fold=1, base_seed=3
    )
    return chosen


class TestRunCV:

    def test_exactly_k_times_runs_trainings(self, cv):
        report, _ = cv
        assert len(report["rows"]) == 10
        assert {(r["fold"], r["run"]) for r in report["rows"]} == {
            (f, r) for f in range(5) for r in range(2)
        }
        assert all(r["status"] == "ok" for r in report["rows"])

    def test_every_episode_validated_once_per_run(self, cv, pool_and_test):
        report, _ = cv
        pool, _ = pool_and_test
        fold_of = report["fold_of"]
        assert set(fold_of) == {ep.episode_id for ep in pool}
        assert set(fold_of.values()) <= set(range(5))
        # one fold id per episode means one validation appearance per run index
        counts = [list(fold_of.values()).count(f) for f in range(5)]
        assert sum(counts) == 20

    def test_one_selection_per_fold_with_test_metrics(self, cv):
        report, selected = cv
        assert sorted(selected) == [0, 1, 2, 3, 4]
        for f in range(5):
            chosen = [r for r in report["rows"] if r["fold"] == f and r["selected"]]
            assert len(chosen) == 1
            assert set(chosen[0]["test_metrics"]) == {"auc_roc", "ap"}
            others = [r for r in report["rows"] if r["fold"] == f and not r["selected"]]
            assert all(r["test_metrics"] is None for r in others)
            best_val = max(r["val_metric"] for r in report["rows"] if r["fold"] == f)
            assert chosen[0]["val_metric"] == best_val

    def test_report_metadata(self, cv):
        report, _ = cv
        assert report["model"] == "LogR"
        assert report["k"] == 5
        assert report["runs_per_fold"] == 2
        assert report["n_pool"] == 20
        assert report["n_test"] == 8
        assert report["val_metric_name"] == "auc_roc"
        assert report["failed_runs"] == 0
        assert set(report["aggregate"]) == {"auc_roc", "ap"}
        assert report["aggregate"]["auc_roc"]["n"] == 5

    def test_byte_identical_across_executions_and_orderings(self, cv, pool_and_test):
        report, _ = cv
        pool, test = pool_and_test
        shuffled = list(pool)
        np.random.default_rng(0).shuffle(shuffled)
        again, _ = run_cv(LOGREG, shuffled, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=11)
        assert report_to_json(again) == report_to_json(report)

    def test_base_seed_changes_report(self, cv, pool_and_test):
        report, _ = cv
        pool, test = pool_and_test
        other, _ = run_cv(LOGREG, pool, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=12)
        assert report_to_json(other) != report_to_json(report)

    def test_parallel_matches_serial(self, cv, pool_and_test, monkeypatch):
        report, _ = cv
        pool, test = pool_and_test
        monkeypatch.setenv(WORKERS_ENV, "4")
        parallel, _ = run_cv(LOGREG, pool, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=11)
        assert report_to_json(parallel) == report_to_json(report)

    def test_diverging_runs_are_recorded_not_raised(self, pool_and_test):
        pool, test = pool_and_test
        with np.errstate(all="ignore"):
            report, selected = run_cv(
                LOGREG, pool, test, Hyper(lr=1e12, epochs=25, batch_size=8),
                k=5, runs_per_fold=1, base_seed=0,
            )
        assert report["failed_runs"] == 5
        assert selected == {}
        assert report["aggregate"] == {}
        assert all(r["status"] == "failed" and r["val_metric"] is None for r in report["rows"])

    def test_summary_lines(self, cv):
        report, _ = cv
        lines = report_summary_lines(report)
        assert len(lines) == 2
        assert lines[0].startswith("LogR,ap,")
        assert lines[1].startswith("LogR,auc_roc,")
        for line in lines:
            parts = line.split(",")
            assert len(parts) == 4
            float(parts[2]), float(parts[3])


class TestSweep:
    def test_default_fractions(self):
        assert DEFAULT_FRACTIONS == (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)

    def test_row_schema_and_count(self, corpus, selected):
        _, test_series = corpus
        rows = sweep_dropout(
            LOGREG, selected, test_series, SCHEMA, WINDOW, BIN_WIDTH,
            fractions=(1.0, 0.5), base_seed=0,
        )
        assert len(rows) == 4  # 2 fractions x 2 classification metrics
        for row in rows:
            assert set(row) == {"model", "fraction", "metric", "value", "std"}
            assert row["model"] == "LogR"
        assert [row["fraction"] for row in rows] == [1.0, 1.0, 0.5, 0.5]

    def test_fraction_one_is_untouched_test_set(self, corpus, selected):
        _, test_series = corpus
        rows = sweep_dropout(
            LOGREG, selected, test_series, SCHEMA, WINDOW, BIN_WIDTH,
            fractions=(1.0,), base_seed=0,
        )
        test = build_features(test_series, SCHEMA, WINDOW, BIN_WIDTH, LOGREG)
        data = prepare(test, "classification")
        per_metric = {}
        for f in sorted(selected):
            for name, value in evaluate(LOGREG, selected[f], data).items():
                per_metric.setdefault(name, []).append(value)
        for row in rows:
            assert row["value"] == pytest.approx(np.mean(per_metric[row["metric"]]), abs=1e-15)

    def test_deterministic(self, corpus, selected):
        _, test_series = corpus
        call = lambda: sweep_dropout(
            LOGREG, selected, test_series, SCHEMA, WINDOW, BIN_WIDTH,
            fractions=(0.6,), base_seed=2,
        )
        assert call() == call()

    def test_empty_selection_rejected(self, corpus):
        _, test_series = corpus
        with pytest.raises(ValueError, match="selected"):
            sweep_dropout(LOGREG, {}, test_series, SCHEMA, WINDOW, BIN_WIDTH)

    def test_csv_round_trips_floats(self, corpus, selected):
        _, test_series = corpus
        rows = sweep_dropout(
            LOGREG, selected, test_series, SCHEMA, WINDOW, BIN_WIDTH,
            fractions=(1.0, 0.3), base_seed=1,
        )
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "model,fraction,metric,value,std"
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            model, fraction, metric, value, std = line.split(",")
            assert model == row["model"]
            assert float(fraction) == row["fraction"]
            assert metric == row["metric"]
            assert float(value) == row["value"]
            assert float(std) == row["std"]


class TestWorkersEnv:
    def test_invalid_value_rejected(self, monkeypatch):
        from tembed.training import _max_workers

        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            _max_workers()

    def test_default_is_serial(self, monkeypatch):
        from tembed.training import _max_workers

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert _max_workers() == 1

"""Optimizer, seeded training loop, cross-validation protocol, dropout sweep."""

import dataclasses
import math
import threading
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from tembed import models, training
from tembed.benchgen import SynthConfig, gen_dataset, synth_schema
from tembed.dataset import drop_observations
from tembed.encoding import EncoderConfig, te_batch
from tembed.models import ModelSpec, init_params, model_input_width
from tembed.training import (
    DEFAULT_FRACTIONS,
    ArrayData,
    DivergenceError,
    Hyper,
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
        {"lr": True}, {"weight_decay": False}, {"lr": float("inf")}, {"lr": float("nan")},
        {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
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
        assert data.episode_ids == tuple(s.episode_id for s in pool.series)

    def test_subset_keeps_alignment(self, pool_and_test):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        sub = data.subset([3, 5])
        assert sub.n == 2
        npt.assert_array_equal(sub.X[0], data.X[3])
        assert sub.episode_ids == (data.episode_ids[3], data.episode_ids[5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no episodes"):
            prepare(build_features([], SCHEMA, WINDOW, BIN_WIDTH, LOGREG), "classification")

    def test_missing_label_rejected(self, corpus):
        unlabeled = dataclasses.replace(corpus[0][0], label=None)
        with pytest.raises(ValueError, match="label"):
            prepare(build_features([unlabeled], SCHEMA, WINDOW, BIN_WIDTH, LOGREG), "classification")

    def test_nonbinary_classification_label_rejected(self, corpus):
        bad = dataclasses.replace(corpus[0][0], label=2.0)
        with pytest.raises(ValueError, match="0 or 1"):
            prepare(build_features([bad], SCHEMA, WINDOW, BIN_WIDTH, LOGREG), "classification")

    def test_regression_labels_become_days(self, corpus):
        ep = dataclasses.replace(corpus[0][0], label=36.0)
        data = prepare(build_features([ep], SCHEMA, WINDOW, BIN_WIDTH, LOGREG), "regression")
        assert data.y[0] == 1.5


class TestBuildFeatures:
    def test_width_per_input_regime(self, corpus):
        pool_series, _ = corpus
        one = pool_series[:1]
        te_cfg = EncoderConfig.temporal(4, WINDOW)
        widths = {}
        for mode, te in (("none", None), ("mask", None), ("cat_te", te_cfg)):
            spec = ModelSpec(family="logreg", task="classification", te_mode=mode, te_cfg=te)
            widths[mode] = build_features(one, SCHEMA, WINDOW, BIN_WIDTH, spec).X.shape[2]
        assert widths["none"] == 2
        assert widths["mask"] == 2 + 2 * CFG.n_channels
        assert widths["cat_te"] == 2 + 4

    def test_add_te_appends_embedded_bin_left_edges(self, corpus):
        pool_series, _ = corpus
        te_cfg = EncoderConfig.temporal(4, WINDOW)
        spec = ModelSpec(family="lstm", task="classification", hidden=4, te_mode="add_te", te_cfg=te_cfg)
        X = build_features(pool_series[:3], SCHEMA, WINDOW, BIN_WIDTH, spec).X
        assert X.shape[2] == 2 + 4
        left_edges = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        for episode in X:
            npt.assert_array_equal(episode[:, 2:], te_batch(left_edges, te_cfg))
        # the model adds those columns to its hidden states; the LSTM reads the rest
        assert model_input_width(spec, X.shape[1], X.shape[2]) == 2


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

    @pytest.mark.parametrize("fault,message", [
        ("loss", "non-finite loss at epoch 1, batch 1"),
        ("gradient", "non-finite gradient for 'out.b' at epoch 1, batch 1"),
        ("activation", "numeric overflow at epoch 1, batch 1: "
                       "non-finite activation in layer 'output'"),
    ])
    def test_divergence_names_epoch_and_batch(self, pool_and_test, monkeypatch, fault, message):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)  # 14 training episodes: batches 0-3 of each epoch
        calls = []

        def sixth_call_fails(real):
            def wrapped(*args):
                calls.append(fault)
                out = real(*args)
                if len(calls) < 6:
                    return out
                if fault == "loss":
                    return math.nan
                if fault == "gradient":
                    return dict(out, **{"out.b": np.full_like(out["out.b"], np.nan)})
                raise models.NumericError("non-finite activation in layer 'output'")
            return wrapped

        name = {"loss": "loss", "gradient": "backward", "activation": "forward"}[fault]
        monkeypatch.setattr(training, name, sixth_call_fails(getattr(training, name)))
        with pytest.raises(DivergenceError) as info:
            train_one(LOGREG, data.subset(tr), data.subset(va), Hyper(epochs=3, batch_size=4), 0)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_overflow_before_the_first_epoch_diverges(self, pool_and_test, seed):
        # the initial validation metric overflows: a DivergenceError, which
        # run_cv records as a failed run, not a NumericError that ends it
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, va = two_class_split(data)
        val = data.subset(va)
        val.X[...] = 1.7e308
        with np.errstate(over="ignore"), \
                pytest.raises(DivergenceError, match="before the first epoch: .*'output'"):
            train_one(LOGREG, data.subset(tr), val, Hyper(epochs=2, batch_size=7), seed=seed)


class TestEvaluate:
    def test_classification_metric_names(self, pool_and_test):
        pool, test = pool_and_test
        data = prepare(test, "classification")
        width = model_input_width(LOGREG, data.X.shape[1], data.X.shape[2])
        params = init_params(LOGREG, width, 0)
        got = evaluate(LOGREG, params, data)
        assert set(got) == {"auc_roc", "ap"}

    def test_regression_metrics_in_hours(self, corpus):
        spec = ModelSpec(family="linreg", task="regression")
        eps = [dataclasses.replace(s, label=24.0 * (1 + i % 3)) for i, s in enumerate(corpus[0])]
        data = prepare(build_features(eps, SCHEMA, WINDOW, BIN_WIDTH, spec), "regression")
        width = model_input_width(spec, data.X.shape[1], data.X.shape[2])
        params = init_params(spec, width, 0)
        got = evaluate(spec, params, data)
        assert set(got) == {"mae_hours", "rmse_hours", "ev"}
        scores_days = predict_scores(spec, params, data)
        want_mae = np.abs(scores_days * 24.0 - data.y * 24.0).mean()
        assert math.isclose(got["mae_hours"], want_mae, rel_tol=1e-12)

    def test_overflow_in_a_later_block_diverges_as_in_serial(self, pool_and_test, monkeypatch):
        pool, _ = pool_and_test
        data = prepare(pool, "classification")
        tr, _ = two_class_split(data)
        reps = -(-300 // data.n)
        X = np.concatenate([data.X] * reps)[:300]
        X[256:] = 1e306  # finite scores at the initial weights, overflow once trained
        val = ArrayData(X=X, y=np.concatenate([data.y] * reps)[:300],
                        episode_ids=tuple(map(str, range(300))))
        hyper = Hyper(lr=1e3, epochs=2, batch_size=8)
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(models, "_usable_cpus", lambda n=cpus: n)
            # the error state is the caller's; predict's worker threads must share it
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DivergenceError) as info:
                train_one(LOGREG, data.subset(tr), val, hyper, seed=0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == ("numeric overflow at epoch 0, in validation: "
                               "non-finite activation in layer 'output'")

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
        assert set(fold_of) == {s.episode_id for s in pool.series}
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

    def test_byte_identical_across_executions_and_orderings(self, cv, corpus, pool_and_test):
        report, _ = cv
        _, test = pool_and_test
        shuffled = list(corpus[0])
        np.random.default_rng(0).shuffle(shuffled)
        pool = build_features(shuffled, SCHEMA, WINDOW, BIN_WIDTH, LOGREG)
        again, _ = run_cv(LOGREG, pool, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=11)
        assert report_to_json(again) == report_to_json(report)

    def test_base_seed_changes_report(self, cv, pool_and_test):
        report, _ = cv
        pool, test = pool_and_test
        other, _ = run_cv(LOGREG, pool, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=12)
        assert report_to_json(other) != report_to_json(report)

    def test_parallel_matches_serial(self, pool_and_test, monkeypatch):
        pool, test = pool_and_test
        # 10 jobs, and 3 jobs, fewer than some CPU counts
        for k, runs in ((5, 2), (3, 1)):
            results = []
            for cpus in (1, 2, 3):
                monkeypatch.setattr(models, "_usable_cpus", lambda n=cpus: n)
                results.append(run_cv(LOGREG, pool, test, CV_HYPER, k=k, runs_per_fold=runs,
                                      base_seed=11))
            (report, selected), others = results[0], results[1:]
            assert len(selected) == k
            for other_report, other_selected in others:
                assert report_to_json(other_report) == report_to_json(report)
                assert sorted(other_selected) == sorted(selected)
                for f, params in selected.items():
                    assert set(other_selected[f]) == set(params)
                    for name, arr in params.items():
                        assert np.array_equal(other_selected[f][name].view(np.uint64),
                                              arr.view(np.uint64)), (k, runs, f, name)

    def test_diverging_runs_are_recorded_not_raised(self, pool_and_test, monkeypatch):
        pool, test = pool_and_test
        # the jobs on pool threads must see the caller's error state too
        for cpus in (1, 2):
            monkeypatch.setattr(models, "_usable_cpus", lambda n=cpus: n)
            with np.errstate(all="ignore"):
                report, selected = run_cv(
                    LOGREG, pool, test, Hyper(lr=1e12, epochs=25, batch_size=8),
                    k=5, runs_per_fold=1, base_seed=0,
                )
            assert report["failed_runs"] == 5
            assert selected == {}
            assert report["aggregate"] == {}
            assert all(r["status"] == "failed" and r["val_metric"] is None for r in report["rows"])

    def test_first_failing_job_in_order_raises(self, pool_and_test, monkeypatch):
        pool, test = pool_and_test
        real_train_one = training.train_one

        def failing_train_one(spec, train_data, val_data, hyper, seed):
            if tuple(seed[1:]) in ((1, 0), (2, 1)):
                raise RuntimeError(f"job {seed[1]},{seed[2]}")
            return real_train_one(spec, train_data, val_data, hyper, seed)

        monkeypatch.setattr(training, "train_one", failing_train_one)
        # jobs (1, 0) and (2, 1) fall in one group, the caller's group and a
        # pool group, or two pool groups
        for cpus in (1, 2, 3):
            monkeypatch.setattr(models, "_usable_cpus", lambda n=cpus: n)
            with pytest.raises(RuntimeError, match=r"^job 1,0$"):
                run_cv(LOGREG, pool, test, CV_HYPER, k=3, runs_per_fold=2, base_seed=11)

    def test_validation_inside_a_job_starts_no_thread(self, monkeypatch):
        series, _ = gen_dataset(CFG, 300)
        pool = build_features(series, SCHEMA, WINDOW, BIN_WIDTH, LOGREG)
        test = build_features(series[:20], SCHEMA, WINDOW, BIN_WIDTH, LOGREG)
        blocks, threads = [], []
        real_forward = models._forward

        def counting_forward(spec, params, x, trace):
            if trace is None:
                blocks.append(len(x))
                threads.append(threading.active_count())
            return real_forward(spec, params, x, trace)

        monkeypatch.setattr(models, "_forward", counting_forward)
        monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        run_cv(LOGREG, pool, test, Hyper(epochs=1, batch_size=50), k=2, runs_per_fold=2)
        assert 128 in blocks  # each validation of 150 rows scores two blocks
        # the caller and one pool thread run the jobs; neither starts another
        assert max(threads) == before + 1

    def test_each_step_frees_its_trace_before_the_next_forward(self, pool_and_test, monkeypatch):
        pool, _ = pool_and_test
        spec = ModelSpec(family="lstm", task="classification", hidden=4)
        data = prepare(build_features(pool.series, SCHEMA, WINDOW, BIN_WIDTH, spec), "classification")
        tr, va = two_class_split(data)
        previous, calls = [], []
        real_forward = training.forward

        def watching_forward(spec, params, features):
            calls.append(all(ref() is None for ref in previous))
            out, trace = real_forward(spec, params, features)
            previous.append(weakref.ref(trace))
            return out, trace

        monkeypatch.setattr(training, "forward", watching_forward)
        train_one(spec, data.take(tr), data.take(va), Hyper(epochs=2, batch_size=4), seed=0)
        assert len(calls) == 2 * -(-len(tr) // 4)
        assert all(calls), f"a trace outlived its step at forward call {calls.index(False)}"

    def test_no_job_copies_fold_rows(self, cv, pool_and_test, monkeypatch):
        report, _ = cv
        pool, test = pool_and_test
        ids = [s.episode_id for s in pool.series]
        assert ids == sorted(ids)  # so putting the pool in id order copies nothing either
        copies = []
        real_subset = ArrayData.subset
        monkeypatch.setattr(ArrayData, "subset",
                            lambda self, idx: copies.append(len(idx)) or real_subset(self, idx))
        again, _ = run_cv(LOGREG, pool, test, CV_HYPER, k=5, runs_per_fold=2, base_seed=11)
        assert copies == []
        assert report_to_json(again) == report_to_json(report)

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


def whole_fraction_sweep(spec, selected_params, test_series, schema, window, bin_width,
                         fractions, base_seed):
    """The reference sweep: each fraction thinned, featurized into one X and
    evaluated whole, one fraction after the other."""
    rows = []
    for fi, fraction in enumerate(fractions):
        thinned = test_series if fraction == 1.0 else [
            drop_observations(s, fraction, [base_seed, fi, ei]) for ei, s in enumerate(test_series)
        ]
        data = prepare(build_features(thinned, schema, window, bin_width, spec), spec.task)
        per_metric = {}
        for f in sorted(selected_params):
            for name, value in evaluate(spec, selected_params[f], data).items():
                per_metric.setdefault(name, []).append(value)
        for name, values in sorted(per_metric.items()):
            arr = np.asarray(values)
            rows.append({"model": models.alias(spec), "fraction": float(fraction), "metric": name,
                         "value": float(arr.mean()), "std": float(arr.std())})
    return rows


SWEEP_WINDOW = 24.0
SWEEP_SYNTH = dict(n_channels=6, rate_per_hour=0.6, window_hours=SWEEP_WINDOW,
                   gap_threshold_hours=4.0, rng_seed=21)
SWEEP_SPECS = {  # 24 steps x 18 inputs in mask mode (6 channels)
    "sa_lstm-mask-regression": ModelSpec(
        family="sa_lstm", task="regression", hidden=8, te_mode="mask",
        attention=models.AttentionSpec(d_a=8, r=2)),
    "lstm-cat_te": ModelSpec(family="lstm", task="classification", hidden=8, te_mode="cat_te",
                             te_cfg=EncoderConfig.temporal(4, SWEEP_WINDOW)),
    "lstm-add_te": ModelSpec(family="lstm", task="classification", hidden=8, te_mode="add_te",
                             te_cfg=EncoderConfig.temporal(8, SWEEP_WINDOW)),
    # regression, so that the metrics see the last bit of every score: this
    # MLP's products round differently in blocks of 200 rows or more
    "mlp-mask-regression": ModelSpec(family="mlp", task="regression", te_mode="mask",
                                     mlp_widths=(16, 16)),
}


@pytest.fixture(scope="module")
def sweep_corpora():
    corpora = {}
    for task in ("timing_classification", "elapsed_regression"):
        cfg = SynthConfig(task=task, **SWEEP_SYNTH)
        corpora[task] = (gen_dataset(cfg, 300)[0], synth_schema(cfg))
    return corpora


class TestStreamedSweep:
    """sweep_dropout thins, featurizes and scores predict's row blocks one by
    one; its rows must equal the whole-fraction reference bit for bit, and
    the models must see the reference's row blocks, whose bounds can change
    BLAS rounding in a way rank metrics do not show."""

    @pytest.mark.parametrize("n", [129, 257, 300])
    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    def test_equals_whole_fraction_sweep(self, sweep_corpora, monkeypatch, name, n):
        spec = SWEEP_SPECS[name]
        series, schema = sweep_corpora[
            "elapsed_regression" if spec.task == "regression" else "timing_classification"]
        test_series = series[:n]
        X = build_features(test_series[:1], schema, SWEEP_WINDOW, 1.0, spec).X
        width = model_input_width(spec, X.shape[1], X.shape[2])
        selected = {f: init_params(spec, width, [5, f]) for f in (0, 2)}
        args = (spec, selected, test_series, schema, SWEEP_WINDOW, 1.0)
        fractions = (1.0, 0.6, 0.3)
        blocks = []
        real_forward = models._forward
        monkeypatch.setattr(models, "_forward", lambda *a: blocks.append(len(a[2])) or real_forward(*a))
        want = whole_fraction_sweep(*args, fractions, 4)
        assert len(want) == len(fractions) * (3 if spec.task == "regression" else 2)
        want_blocks = sorted(blocks)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(models, "_usable_cpus", lambda c=cpus: c)
            blocks.clear()
            assert sweep_dropout(*args, fractions=fractions, base_seed=4) == want, cpus
            assert sorted(blocks) == want_blocks, cpus

    def test_peak_memory_below_one_fraction_of_features(self, monkeypatch):
        cfg = SynthConfig(n_channels=18, rate_per_hour=0.5, window_hours=48.0,
                          task="elapsed_regression", rng_seed=3)
        test_series, _ = gen_dataset(cfg, 1000)
        schema = synth_schema(cfg)
        spec = ModelSpec(family="linreg", task="regression", te_mode="mask")
        params = init_params(spec, model_input_width(spec, 48, 54), 0)
        one_fraction_x = 1000 * 48 * 54 * 8  # bytes of one fraction's X
        monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            sweep_dropout(spec, {0: params}, test_series, schema, 48.0, 1.0, fractions=(1.0, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each thread's 128-episode block peaks at about 9 MiB inside bin_series
        assert peak < one_fraction_x, (peak, one_fraction_x)

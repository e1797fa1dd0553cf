"""Acceptance gate: ten pinned criteria, one verdict line each.

Each test prints and registers a single `[criterion NN] PASS/FAIL` line with
the measured numbers, then asserts the criterion. Tolerances and runtime
budgets are stated inline next to each check.
"""

import math
import time

import numpy as np
import pytest
from conftest import record_criterion

from tembed.benchgen import SynthConfig, gen_dataset, synth_schema
from tembed.dataset import apply_norm, fit_norm
from tembed.encoding import EncoderConfig, estimate_delta, shift_map, te, te_batch
from tembed.metrics import auc_roc, average_precision, explained_variance, mae, rmse
from tembed.models import (
    AttentionSpec,
    ModelSpec,
    backward,
    count_params,
    fan_out,
    forward,
    init_params,
    loss,
    model_input_width,
    solve_hidden_for_budget,
)
from tembed.training import (
    DEFAULT_FRACTIONS,
    ArrayData,
    Hyper,
    build_features,
    evaluate,
    init_opt_state,
    opt_step,
    prepare,
    report_to_json,
    run_cv,
    sweep_dropout,
    sweep_to_csv,
    train_one,
)


def verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    record_criterion(line)
    print(line)
    return line


def test_criterion_01_te_norm_invariance():
    # |‖te(t)‖² − dim/2| < 1e-9 over 1e4 random (t, dim ∈ {4..64}, max_time ∈ [1, 1e4]); < 1 s
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        dim = 2 * int(rng.integers(2, 33))
        max_time = float(rng.uniform(1.0, 1e4))
        t = float(rng.uniform(0.0, max_time))
        vec = te(t, EncoderConfig.temporal(dim, max_time))
        worst = max(worst, abs(float(vec @ vec) - dim / 2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    line = verdict(1, "te norm invariance", ok,
                   f"max |norm^2 - dim/2| = {worst:.3e} over 10000 draws ({elapsed:.2f}s)")
    assert ok, line


def test_criterion_02_linear_shift_law():
    # max‖shift_map(k)(te(t)) − te(t+k)‖∞ < 1e-9 over 1e3 random (t, k); < 1 s
    cfg = EncoderConfig.temporal(32, 48.0)
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1_000):
        t = float(rng.uniform(0.0, cfg.max_time))
        k = float(rng.uniform(-t, cfg.max_time - t))
        got = shift_map(k, cfg).apply(te(t, cfg))
        worst = max(worst, float(np.abs(got - te(t + k, cfg)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    line = verdict(2, "linear shift law", ok,
                   f"max abs error = {worst:.3e} over 1000 (t, k) pairs ({elapsed:.2f}s)")
    assert ok, line


def test_criterion_03_delta_recovery():
    # estimate_delta within 1e-5 for |delta| <= 0.9 * max_time at dim 32, max_time 48
    cfg = EncoderConfig.temporal(32, 48.0)
    bound = 0.9 * cfg.max_time
    rng = np.random.default_rng(103)
    deltas = np.concatenate([
        rng.uniform(-bound, bound, size=2_000),
        [-bound, bound, 0.0],
    ])
    worst = 0.0
    for delta in deltas:
        lo, hi = max(0.0, -delta), min(cfg.max_time, cfg.max_time - delta)
        t1 = float(rng.uniform(lo, hi))
        got = estimate_delta(te(t1, cfg), te(t1 + delta, cfg), cfg)
        worst = max(worst, abs(got - delta))
    ok = worst < 1e-5
    line = verdict(3, "delta recovery", ok,
                   f"max |recovered - true| = {worst:.3e} over {deltas.size} deltas, bound {bound}")
    assert ok, line


GRAD_CASES = [
    ("linreg", "regression", ("none", "mask", "cat_te")),
    ("logreg", "classification", ("none", "mask", "cat_te")),
    ("mlp", "classification", ("none", "mask", "cat_te")),
    ("lstm", "regression", ("none", "mask", "cat_te", "add_te")),
    ("sa_lstm", "classification", ("none", "mask", "cat_te", "add_te")),
]


def _grad_spec(family, task, mode):
    hidden = 8 if family in ("lstm", "sa_lstm") else 0
    te_cfg = None
    if mode == "cat_te":
        te_cfg = EncoderConfig.temporal(4, 8.0)
    elif mode == "add_te":
        te_cfg = EncoderConfig.temporal(hidden, 8.0)
    attention = AttentionSpec(d_a=6, r=3, penalty_c=0.05) if family == "sa_lstm" else None
    return ModelSpec(
        family=family, task=task, hidden=hidden, te_mode=mode, te_cfg=te_cfg,
        attention=attention, head_widths=(6,), mlp_widths=(6, 4),
    )


def test_criterion_04_gradient_correctness():
    # every parameter gradient vs central differences (eps 1e-5), rel < 1e-4,
    # instances of <= 5 steps and hidden <= 8, all families x applicable modes; < 30 s
    t0 = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    checked = 0
    steps = 5
    grid = np.arange(steps, dtype=np.float64)
    for fi, (family, task, modes) in enumerate(GRAD_CASES):
        for mode in modes:
            spec = _grad_spec(family, task, mode)
            width = 4 + (spec.te_cfg.dim if mode in ("cat_te", "add_te") else 0)
            params = init_params(spec, model_input_width(spec, steps, width), rng_seed=2)
            if task == "regression":
                params["out.b"] = params["out.b"] + 1.0  # keep the output clamp active
            x = np.random.default_rng(20 + fi).normal(size=(3, steps, width))
            y = (np.array([0.0, 1.0, 1.0]) if task == "classification"
                 else np.array([0.5, 1.5, 0.25]))
            if mode == "add_te":  # the embedded grid rides after the inputs
                x[..., 4:] = te_batch(grid, spec.te_cfg)

            def loss_at(p):
                out, trace = forward(spec, p, x)
                return loss(trace, y)

            _, trace = forward(spec, params, x)
            loss(trace, y)
            grads = backward(params, trace)
            for name in params:
                flat = params[name].reshape(-1)
                gflat = grads[name].reshape(-1)
                for i in range(flat.size):
                    bumped = {key: arr.copy() for key, arr in params.items()}
                    view = bumped[name].reshape(-1)
                    view[i] = flat[i] + eps
                    up = loss_at(bumped)
                    view[i] = flat[i] - eps
                    down = loss_at(bumped)
                    fd = (up - down) / (2 * eps)
                    rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    line = verdict(4, "gradient correctness", ok,
                   f"max rel error = {worst:.3e} over {checked} parameters, "
                   f"17 family/mode combinations ({elapsed:.1f}s)")
    assert ok, line


def _brute_auc(y, s):
    pos = s[y == 1.0]
    neg = s[y == 0.0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (pos.size * neg.size)


def _brute_ap(y, s):
    n_pos = int(y.sum())
    ap = 0.0
    recall_prev = 0.0
    for threshold in sorted(set(s), reverse=True):
        predicted = s >= threshold
        tp = float((y[predicted] == 1.0).sum())
        precision = tp / predicted.sum()
        recall = tp / n_pos
        ap += precision * (recall - recall_prev)
        recall_prev = recall
    return ap


def test_criterion_05_metric_oracles():
    # auc_roc / average_precision vs O(n^2) enumeration to 1e-12 on 100 batches (n <= 200);
    # mae <= rmse on all; explained-variance edge cases
    rng = np.random.default_rng(105)
    worst_auc = worst_ap = 0.0
    mae_le_rmse = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        if y.sum() == 0:
            y[0] = 1.0
        if y.sum() == n:
            y[0] = 0.0
        s = np.round(rng.normal(size=n), 1)  # one decimal forces plenty of ties
        worst_auc = max(worst_auc, abs(auc_roc(y, s) - _brute_auc(y, s)))
        worst_ap = max(worst_ap, abs(average_precision(y, s) - _brute_ap(y, s)))
        target = rng.normal(size=n)
        pred = rng.normal(size=n)
        mae_le_rmse = mae_le_rmse and mae(target, pred) <= rmse(target, pred) + 1e-15
    target = np.array([1.0, 2.0, 5.0, -3.0])
    ev_shift = explained_variance(target, target + 3.0) == 1.0
    ev_mean = explained_variance(target, np.full(4, target.mean())) == 0.0
    try:
        explained_variance(np.ones(4), np.ones(4))
        ev_const_raises = False
    except ValueError:
        ev_const_raises = True
    ok = (worst_auc < 1e-12 and worst_ap < 1e-12 and mae_le_rmse
          and ev_shift and ev_mean and ev_const_raises)
    line = verdict(5, "metric oracles", ok,
                   f"max |auc - brute| = {worst_auc:.2e}, max |ap - brute| = {worst_ap:.2e}, "
                   f"mae<=rmse {mae_le_rmse}, ev edges {ev_shift}/{ev_mean}/{ev_const_raises}")
    assert ok, line


@pytest.fixture(scope="module")
def timing_bench():
    """The timing-separation experiment; also feeds the dropout sweep.

    Poisson event streams (0.5/h, 48 h window), label = any inter-event gap
    above 6 h. 2000 train (1600 fit / 400 validation), 500 test, hourly bins,
    LSTM hidden 16, default hyperparameters, training seeds 0..4 per arm.
    """
    t0 = time.perf_counter()
    cfg = SynthConfig(n_channels=1, rate_per_hour=0.5, window_hours=48.0,
                      task="timing_classification", gap_threshold_hours=6.0, rng_seed=1000)
    episodes, _ = gen_dataset(cfg, 2500)
    schema = synth_schema(cfg)
    train_raw, test_raw = episodes[:2000], episodes[2000:]
    stats = fit_norm(train_raw, schema)
    train_n = [apply_norm(s, stats, schema) for s in train_raw]
    test_n = [apply_norm(s, stats, schema) for s in test_raw]
    hyper = Hyper()

    specs = {
        "plain": ModelSpec(family="lstm", task="classification", hidden=16, te_mode="none"),
        "catTE": ModelSpec(family="lstm", task="classification", hidden=16, te_mode="cat_te",
                           te_cfg=EncoderConfig.temporal(4, 48.0)),
    }
    # fit, validation and test sets per arm
    data = {name: [prepare(build_features(series, schema, 48.0, 1.0, spec), "classification")
                   for series in (train_n[:1600], train_n[1600:], test_n)]
            for name, spec in specs.items()}

    def train_and_score(job):
        name, seed = job
        fit, val, test = data[name]
        result = train_one(specs[name], fit, val, hyper, seed=seed)
        return evaluate(specs[name], result.params, test)["auc_roc"], result.params

    # the 10 trainings run on a process per CPU, as `tembed train` runs its grid
    jobs = [(name, seed) for name in specs for seed in range(5)]
    done = dict(zip(jobs, fan_out(train_and_score, jobs)))
    arms = {name: {"spec": spec, "aucs": [done[name, seed][0] for seed in range(5)],
                   "models": [done[name, seed][1] for seed in range(5)]}
            for name, spec in specs.items()}
    return {
        "arms": arms,
        "schema": schema,
        "test_series": test_n,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_06_timing_separation(timing_bench):
    # plain LSTM test AUC in [0.45, 0.65] and catTE+LSTM >= 0.85, majority of 5 seeds; < 10 min.
    #
    # The labels hinge on detecting long event-free runs, which the
    # forward-filled value columns encode only implicitly, so value-only
    # inputs stall near 0.6. The catTE columns embed each step's hours since
    # the latest observation in any channel, which differ from episode to
    # episode and expose those runs. Embeddings of the shared grid times
    # would be identical for every episode, carry no class information, and
    # leave the catTE arm near 0.6 as well.
    plain = timing_bench["arms"]["plain"]["aucs"]
    catte = timing_bench["arms"]["catTE"]["aucs"]
    elapsed = timing_bench["elapsed"]
    plain_hits = sum(0.45 <= a <= 0.65 for a in plain)
    catte_hits = sum(a >= 0.85 for a in catte)
    ok = plain_hits >= 3 and catte_hits >= 3 and elapsed < 600.0
    line = verdict(
        6, "timing separation", ok,
        f"plain in [0.45,0.65] {plain_hits}/5 {[round(a, 3) for a in plain]}, "
        f"catTE >= 0.85 {catte_hits}/5 {[round(a, 3) for a in catte]} ({elapsed:.0f}s)",
    )
    assert ok, line


def test_criterion_07_dropout_sweep_shape(timing_bench):
    # complete 1.0 -> 0.1 sweep CSV; fraction-0.1 AUC must not exceed the
    # fraction-1.0 AUC beyond 3 sigma over 10 dropout seeds
    arm = timing_bench["arms"]["catTE"]
    selected = {0: arm["models"][0]}
    schema = timing_bench["schema"]
    test_series = timing_bench["test_series"]

    rows = sweep_dropout(arm["spec"], selected, test_series, schema, 48.0, 1.0,
                         fractions=DEFAULT_FRACTIONS, base_seed=0)
    csv_text = sweep_to_csv(rows)
    lines = csv_text.strip().split("\n")
    complete = (lines[0] == "model,fraction,metric,value,std"
                and len(lines) == 1 + len(DEFAULT_FRACTIONS) * 2)
    fractions_seen = {float(line.split(",")[1]) for line in lines[1:]}
    complete = complete and fractions_seen == set(DEFAULT_FRACTIONS)

    def auc_at(sweep_rows, fraction):
        return next(r["value"] for r in sweep_rows
                    if r["fraction"] == fraction and r["metric"] == "auc_roc")

    auc_full = auc_at(rows, 1.0)
    auc_thin = [auc_at(rows, 0.1)]
    for base_seed in range(1, 10):
        extra = sweep_dropout(arm["spec"], selected, test_series, schema, 48.0, 1.0,
                              fractions=(0.1,), base_seed=base_seed)
        auc_thin.append(auc_at(extra, 0.1))
    diffs = np.asarray(auc_thin) - auc_full
    sigma = float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    ok = complete and float(diffs.mean()) <= 3.0 * sigma
    line = verdict(
        7, "dropout sweep shape", ok,
        f"CSV rows {len(lines) - 1}/{len(DEFAULT_FRACTIONS) * 2}, auc@1.0 {auc_full:.3f}, "
        f"mean auc@0.1 {np.mean(auc_thin):.3f}, mean diff {diffs.mean():+.4f} "
        f"vs 3*sigma {3 * sigma:.4f} over 10 seeds",
    )
    assert ok, line


def test_criterion_08_protocol_fidelity():
    # exactly 50 trainings, every episode validated exactly once per run index,
    # byte-identical reports across two executions with the same base seed
    cfg = SynthConfig(n_channels=2, rate_per_hour=0.9, window_hours=12.0,
                      task="timing_classification", gap_threshold_hours=3.0, rng_seed=21)
    episodes, _ = gen_dataset(cfg, 50)
    schema = synth_schema(cfg)
    spec = ModelSpec(family="logreg", task="classification")
    pool = build_features(episodes[:40], schema, 12.0, 2.0, spec)
    test = build_features(episodes[40:], schema, 12.0, 2.0, spec)
    hyper = Hyper(epochs=1, batch_size=16)

    report_a, _ = run_cv(spec, pool, test, hyper, k=5, runs_per_fold=10, base_seed=4)
    report_b, _ = run_cv(spec, pool, test, hyper, k=5, runs_per_fold=10, base_seed=4)

    n_rows = len(report_a["rows"])
    jobs = {(r["fold"], r["run"]) for r in report_a["rows"]}
    all_jobs_once = jobs == {(f, r) for f in range(5) for r in range(10)} and n_rows == 50
    fold_of = report_a["fold_of"]
    coverage = (set(fold_of) == {s.episode_id for s in pool.series}
                and set(fold_of.values()) <= set(range(5)))
    identical = report_to_json(report_a) == report_to_json(report_b)
    ok = all_jobs_once and coverage and identical
    line = verdict(
        8, "protocol fidelity", ok,
        f"trainings {n_rows}/50, every episode mapped to one validation fold {coverage}, "
        f"reports byte-identical {identical}",
    )
    assert ok, line


def test_criterion_09_budget_solver_ordering():
    # fixed budget: hidden width strictly decreases as the input widens from
    # plain (18 columns) to catTE (+32) to mask (+2 per channel, 18 channels)
    budget = 15_500
    n_channels = SynthConfig().n_channels
    widths = {
        "plain": n_channels,
        "catTE": n_channels + 32,
        "mask": n_channels + 2 * n_channels,
    }
    lstm = ModelSpec(family="lstm", task="classification", hidden=1)
    hidden = {name: solve_hidden_for_budget(lstm, input_dim=w, budget=budget)
              for name, w in widths.items()}
    maximal = all(
        count_params(ModelSpec(family="lstm", task="classification", hidden=h), w) <= budget
        < count_params(ModelSpec(family="lstm", task="classification", hidden=h + 1), w)
        for (name, w), h in zip(widths.items(), hidden.values())
    )
    ordered = hidden["plain"] > hidden["catTE"] > hidden["mask"]
    expected = {"plain": 46, "catTE": 36, "mask": 35}
    ok = ordered and maximal and hidden == expected
    line = verdict(
        9, "budget solver ordering", ok,
        f"budget {budget}: plain {hidden['plain']} > catTE {hidden['catTE']} > "
        f"mask {hidden['mask']} (widths {widths['plain']}/{widths['catTE']}/{widths['mask']}), "
        f"each maximal under budget {maximal}",
    )
    assert ok, line


def test_criterion_10_optimizer_sanity():
    # first-step closed form to 1e-12; running second-moment max never
    # decreases over 1e3 random steps; separable logreg hits accuracy 1.0
    # within 200 epochs
    rng = np.random.default_rng(110)
    params = {"w": rng.normal(size=(6, 4)), "b": rng.normal(size=4)}
    grads = {name: rng.normal(size=arr.shape) for name, arr in params.items()}
    lr, wd, eps = 2e-3, 1e-2, 1e-8
    stepped, _ = opt_step(params, grads, init_opt_state(params, lr=lr, weight_decay=wd))
    closed_err = max(
        float(np.abs(stepped[name]
                     - (params[name] * (1 - lr * wd) - lr * g / (np.abs(g) + eps))).max())
        for name, g in grads.items()
    )

    run_params = {"w": rng.normal(size=8)}
    state = init_opt_state(run_params, lr=1e-3, weight_decay=1e-2)
    monotone = True
    prev = state.vmax["w"].copy()
    for _ in range(1_000):
        run_params, state = opt_step(run_params, {"w": rng.normal(size=8) * 5.0}, state)
        monotone = monotone and bool((state.vmax["w"] >= prev).all())
        prev = state.vmax["w"].copy()

    spec = ModelSpec(family="logreg", task="classification")
    n = 40
    y = np.array([i % 2 for i in range(n)], dtype=np.float64)
    x = rng.normal(scale=0.3, size=(n, 1, 2)) + np.where(y[:, None, None] == 1.0, 2.0, -2.0)
    sep_params = init_params(spec, 2, rng_seed=0)
    state = init_opt_state(sep_params, lr=0.05, weight_decay=0.0)
    epochs_to_perfect = None
    for epoch in range(200):
        out, trace = forward(spec, sep_params, x)
        if float((out.argmax(axis=1) == y).mean()) == 1.0:
            epochs_to_perfect = epoch
            break
        loss(trace, y)
        grads = backward(sep_params, trace)
        sep_params, state = opt_step(sep_params, grads, state)

    ok = closed_err < 1e-12 and monotone and epochs_to_perfect is not None
    line = verdict(
        10, "optimizer sanity", ok,
        f"closed-form error {closed_err:.2e}, vmax monotone over 1000 steps {monotone}, "
        f"separable accuracy 1.0 after {epochs_to_perfect} epochs",
    )
    assert ok, line

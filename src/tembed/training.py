"""Mini-batch training with decoupled weight decay, cross-validated
experiment execution, and report aggregation.

The optimizer is Adam with two modifications: the second-moment estimate
is replaced by its running maximum before bias correction (so the
effective step size never grows back), and weight decay multiplies the
parameters directly instead of entering the gradient. One update:

    m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
    vmax <- max(vmax, v)
    theta <- theta*(1 - lr*wd) - lr * (m/(1-b1^t)) / (sqrt(vmax/(1-b2^t)) + eps)

``run_cv`` executes the full protocol: stratified k-fold split of the
pool, ``runs_per_fold`` trainings per fold (each seeded by [base_seed,
fold, run]), best-validation selection per fold, and test evaluation of
the selected models only. The report it returns contains nothing
volatile, so identical inputs serialize to identical bytes.

Validation metrics: AUC-ROC for classification (higher is better), MAE on
the day scale for regression (lower is better). Test metrics for
regression are reported in hours.

Set TEMBED_MAX_WORKERS to train the fold-by-run grid with a thread pool;
results are merged in (fold, run) order, so parallel and serial execution
produce the same report.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._util import canonical_json, make_rng, seed_entropy
from .dataset import (
    BinnedEpisode,
    IrregularSeries,
    Schema,
    attach_mask,
    attach_te,
    bin_series,
    drop_observations,
    label_convert,
    split_folds,
)
from .metrics import auc_roc, average_precision, explained_variance, mae, rmse
from .models import (
    ModelSpec,
    NumericError,
    alias,
    backward,
    clone_params,
    forward,
    init_params,
    loss,
    model_input_width,
    zeros_like_params,
)

WORKERS_ENV = "TEMBED_MAX_WORKERS"

_FOLD_SALT = 0xF01D


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class Hyper:
    """Training hyperparameters; defaults match the benchmark protocol."""

    lr: float = 1e-3
    epochs: int = 40
    batch_size: int = 100
    weight_decay: float = 1e-2

    def __post_init__(self) -> None:
        if not (self.lr > 0):
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name, low in (("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "weight_decay": self.weight_decay,
        }


@dataclass
class OptState:
    """Per-parameter moments, their running max, and the step counter."""

    m: dict
    v: dict
    vmax: dict
    t: int
    lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float


def init_opt_state(params: dict, lr: float, weight_decay: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptState:
    return OptState(
        m=zeros_like_params(params),
        v=zeros_like_params(params),
        vmax=zeros_like_params(params),
        t=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        weight_decay=weight_decay,
    )


def opt_step(params: dict, grads: dict, state: OptState) -> tuple[dict, OptState]:
    """One functional optimizer update; inputs are left untouched."""
    if set(params) != set(grads):
        raise ValueError("params and grads name different tensors")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient for {name!r}")
    t = state.t + 1
    b1c = 1.0 - state.beta1 ** t
    b2c = 1.0 - state.beta2 ** t
    new_params = {}
    new_m = {}
    new_v = {}
    new_vmax = {}
    for name, theta in params.items():
        g = grads[name]
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        vmax = np.maximum(state.vmax[name], v)
        step = state.lr * (m / b1c) / (np.sqrt(vmax / b2c) + state.eps)
        new_params[name] = theta * (1.0 - state.lr * state.weight_decay) - step
        new_m[name] = m
        new_v[name] = v
        new_vmax[name] = vmax
    new_state = OptState(
        m=new_m, v=new_v, vmax=new_vmax, t=t,
        lr=state.lr, beta1=state.beta1, beta2=state.beta2,
        eps=state.eps, weight_decay=state.weight_decay,
    )
    return new_params, new_state


@dataclass
class ArrayData:
    """Episodes stacked into dense batch tensors for training/evaluation."""

    X: np.ndarray
    y: np.ndarray
    grid_times: np.ndarray
    episode_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    def subset(self, idx) -> "ArrayData":
        ids = tuple(self.episode_ids[int(i)] for i in np.asarray(idx))
        return ArrayData(X=self.X[idx], y=self.y[idx], grid_times=self.grid_times, episode_ids=ids)


def build_features(series_list, schema: Schema, window: float, bin_width: float,
                   spec: ModelSpec) -> list[BinnedEpisode]:
    """Bin each series and attach the feature columns that ``spec.te_mode``
    calls for (add_te needs no extra columns; the model adds the embeddings
    to its hidden states)."""
    out = []
    for s in series_list:
        ep = bin_series(s, schema, window, bin_width)
        if spec.te_mode == "mask":
            ep = attach_mask(ep)
        elif spec.te_mode == "cat_te":
            ep = attach_te(ep, spec.te_cfg)
        out.append(ep)
    return out


def prepare(binned: list[BinnedEpisode], task: str) -> ArrayData:
    """Stack binned episodes; regression labels are converted to days here."""
    if not binned:
        raise ValueError("no episodes to prepare")
    grid = binned[0].grid_times
    for ep in binned[1:]:
        if ep.X.shape != binned[0].X.shape:
            raise ValueError("episodes have inconsistent feature shapes")
        if not np.array_equal(ep.grid_times, grid):
            raise ValueError("episodes have inconsistent grids")
    X = np.stack([ep.X for ep in binned])
    labels = []
    for ep in binned:
        if ep.label is None:
            raise ValueError(f"episode {ep.episode_id!r} has no label")
        labels.append(float(ep.label))
    y = np.asarray(labels)
    if task == "classification":
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("classification labels must be 0 or 1")
    else:
        y = label_convert(y, "to_days")
    return ArrayData(X=X, y=y, grid_times=grid.copy(), episode_ids=tuple(ep.episode_id for ep in binned))


def predict_scores(spec: ModelSpec, params: dict, data: ArrayData, batch_size: int = 256) -> np.ndarray:
    """Positive-class probability (classification) or day-scale prediction
    (regression), one value per episode."""
    outs = []
    for start in range(0, data.n, batch_size):
        chunk = data.X[start : start + batch_size]
        out, _ = forward(spec, params, chunk, grid_times=data.grid_times)
        outs.append(out[:, 1] if spec.task == "classification" else out)
    return np.concatenate(outs)


def evaluate(spec: ModelSpec, params: dict, data: ArrayData) -> dict[str, float]:
    """Test metrics; regression errors are converted back to hours."""
    scores = predict_scores(spec, params, data)
    if spec.task == "classification":
        return {
            "auc_roc": auc_roc(data.y, scores),
            "ap": average_precision(data.y, scores),
        }
    y_hours = label_convert(data.y, "to_hours")
    pred_hours = label_convert(scores, "to_hours")
    return {
        "mae_hours": mae(y_hours, pred_hours),
        "rmse_hours": rmse(y_hours, pred_hours),
        "ev": explained_variance(y_hours, pred_hours),
    }


def val_metric_name(task: str) -> str:
    return "auc_roc" if task == "classification" else "mae_days"


def _val_metric(spec: ModelSpec, params: dict, data: ArrayData) -> float:
    scores = predict_scores(spec, params, data)
    if spec.task == "classification":
        return auc_roc(data.y, scores)
    return mae(data.y, scores)


def _is_better(task: str, candidate: float, incumbent: float) -> bool:
    if task == "classification":
        return candidate > incumbent
    return candidate < incumbent


@dataclass
class TrainResult:
    params: dict
    history: list[dict] = field(default_factory=list)
    best_val: float = float("nan")


def train_one(spec: ModelSpec, train_data: ArrayData, val_data: ArrayData,
              hyper: Hyper, seed) -> TrainResult:
    """Seeded epoch loop with shuffled mini-batches and best-epoch selection.

    Keeps the parameters of the epoch with the best validation metric.
    With zero epochs the initial parameters come back untouched (their
    validation metric is still measured, so selection stays well defined).
    A non-finite loss, gradient, or activation raises DivergenceError.
    """
    entropy = seed_entropy(seed)
    steps, width = train_data.X.shape[1], train_data.X.shape[2]
    params = init_params(spec, model_input_width(spec, steps, width), entropy + [0])
    rng = make_rng(entropy + [1])

    best = TrainResult(params=clone_params(params), history=[])
    best.best_val = _val_metric(spec, params, val_data)
    state = init_opt_state(params, lr=hyper.lr, weight_decay=hyper.weight_decay)
    for epoch in range(hyper.epochs):
        perm = rng.permutation(train_data.n)
        total = 0.0
        try:
            for start in range(0, train_data.n, hyper.batch_size):
                idx = perm[start : start + hyper.batch_size]
                xb = train_data.X[idx]
                yb = train_data.y[idx]
                out, trace = forward(spec, params, xb, grid_times=train_data.grid_times)
                batch_loss = loss(spec, out, yb, trace)
                if not np.isfinite(batch_loss):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                grads = backward(spec, params, trace, yb)
                params, state = opt_step(params, grads, state)
                total += batch_loss * len(idx)
            train_loss = total / train_data.n
            val = _val_metric(spec, params, val_data)
        except NumericError as exc:
            raise DivergenceError(f"numeric overflow at epoch {epoch}: {exc}") from exc
        best.history.append({"epoch": epoch, "train_loss": float(train_loss), "val_metric": float(val)})
        if _is_better(spec.task, val, best.best_val):
            best.best_val = float(val)
            best.params = clone_params(params)
    return best


def aggregate_stats(values) -> dict:
    """Mean, population standard deviation, and standard error of a sample."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("nothing to aggregate")
    std = float(arr.std())
    return {
        "mean": float(arr.mean()),
        "std": std,
        "stderr": std / float(np.sqrt(arr.size)),
        "n": int(arr.size),
    }


def _max_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def run_cv(spec: ModelSpec, pool: list[BinnedEpisode], test: list[BinnedEpisode],
           hyper: Hyper, k: int = 5, runs_per_fold: int = 10,
           base_seed: int = 0) -> tuple[dict, dict[int, dict]]:
    """Full protocol: k folds x runs_per_fold seeded trainings, per-fold
    best-validation selection, test evaluation of the selected models.

    Returns (report, selected_params). The report aggregates test metrics
    over the selected models with mean, population standard deviation, and
    standard error; failed (diverged) runs are recorded and excluded.
    Episodes are taken in id order, fold membership depends only on
    (episode ids, labels, seed), and run (fold, run) is seeded by
    [base_seed, fold, run], so the report is byte-identical across
    executions and input orderings.
    """
    pool = sorted(pool, key=lambda ep: ep.episode_id)
    test = sorted(test, key=lambda ep: ep.episode_id)
    stratify = spec.task == "classification"
    fold_of = split_folds(pool, k, [base_seed, _FOLD_SALT], stratify=stratify)
    pool_data = prepare(pool, spec.task)
    test_data = prepare(test, spec.task)

    jobs = [(f, r) for f in range(k) for r in range(runs_per_fold)]

    def run_job(job: tuple[int, int]) -> dict:
        f, r = job
        train_idx = np.nonzero(fold_of != f)[0]
        val_idx = np.nonzero(fold_of == f)[0]
        row: dict = {"fold": f, "run": r, "seed": [base_seed, f, r]}
        try:
            result = train_one(
                spec, pool_data.subset(train_idx), pool_data.subset(val_idx), hyper,
                [base_seed, f, r],
            )
            row["status"] = "ok"
            row["val_metric"] = result.best_val
            row["_params"] = result.params
        except DivergenceError as exc:
            row["status"] = "failed"
            row["val_metric"] = None
            row["error"] = str(exc)
        return row

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            rows = list(pool_exec.map(run_job, jobs))
    else:
        rows = [run_job(job) for job in jobs]

    selected_params: dict[int, dict] = {}
    for f in range(k):
        fold_rows = [row for row in rows if row["fold"] == f and row["status"] == "ok"]
        if not fold_rows:
            continue
        best_row = fold_rows[0]
        for row in fold_rows[1:]:
            if _is_better(spec.task, row["val_metric"], best_row["val_metric"]):
                best_row = row
        best_row["selected"] = True
        selected_params[f] = best_row["_params"]

    metric_values: dict[str, list[float]] = {}
    for row in rows:
        params = row.pop("_params", None)
        row.setdefault("selected", False)
        if row["selected"]:
            row["test_metrics"] = evaluate(spec, params, test_data)
            for name, value in row["test_metrics"].items():
                metric_values.setdefault(name, []).append(value)
        else:
            row["test_metrics"] = None

    aggregate = {name: aggregate_stats(values) for name, values in sorted(metric_values.items())}

    report = {
        "model": alias(spec),
        "spec": spec.to_dict(),
        "hyper": hyper.to_dict(),
        "k": k,
        "runs_per_fold": runs_per_fold,
        "base_seed": base_seed,
        "n_pool": pool_data.n,
        "n_test": test_data.n,
        "fold_of": {ep.episode_id: int(fold_of[i]) for i, ep in enumerate(pool)},
        "val_metric_name": val_metric_name(spec.task),
        "rows": rows,
        "aggregate": aggregate,
        "failed_runs": sum(1 for row in rows if row["status"] == "failed"),
    }
    return report, selected_params


def report_to_json(report: dict) -> str:
    """Canonical serialization; equal reports give equal bytes."""
    return canonical_json(report)


def report_summary_lines(report: dict) -> list[str]:
    """Table-style rows `model,metric,mean,std`, one per aggregated metric."""
    lines = []
    for name, agg in sorted(report["aggregate"].items()):
        lines.append(f"{report['model']},{name},{agg['mean']:.6g},{agg['std']:.6g}")
    return lines


DEFAULT_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


def sweep_dropout(spec: ModelSpec, selected_params: dict[int, dict],
                  test_series: list[IrregularSeries], schema: Schema,
                  window: float, bin_width: float,
                  fractions=DEFAULT_FRACTIONS, base_seed: int = 0) -> list[dict]:
    """Re-evaluate selected models on test data thinned to each fraction.

    Observations are dropped independently per episode with seeds
    [base_seed, fraction_index, episode_index], features are rebuilt
    exactly as in training, and each row reports the mean and population
    std over the selected models: {model, fraction, metric, value, std}.
    The fraction-1.0 row evaluates the untouched test set.
    """
    if not selected_params:
        raise ValueError("no selected models to sweep")
    rows = []
    for fi, fraction in enumerate(fractions):
        if fraction == 1.0:
            thinned = test_series
        else:
            thinned = [
                drop_observations(s, fraction, [base_seed, fi, ei])
                for ei, s in enumerate(test_series)
            ]
        data = prepare(build_features(thinned, schema, window, bin_width, spec), spec.task)
        per_metric: dict[str, list[float]] = {}
        for f in sorted(selected_params):
            for name, value in evaluate(spec, selected_params[f], data).items():
                per_metric.setdefault(name, []).append(value)
        for name, values in sorted(per_metric.items()):
            arr = np.asarray(values)
            rows.append({
                "model": alias(spec),
                "fraction": float(fraction),
                "metric": name,
                "value": float(arr.mean()),
                "std": float(arr.std()),
            })
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    lines = ["model,fraction,metric,value,std"]
    for row in rows:
        lines.append(
            f"{row['model']},{row['fraction']!r},{row['metric']},{row['value']!r},{row['std']!r}"
        )
    return "\n".join(lines) + "\n"

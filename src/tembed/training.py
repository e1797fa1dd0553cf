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

``run_cv`` trains the fold-by-run grid on a thread per usable CPU through
``models.fan_out`` and merges the results in (fold, run) order, so the
report does not depend on the CPU count; limit the process's CPUs (for
example with ``taskset -c 0``) to train serially. Scoring
(``predict_scores``) goes through ``models.predict``, which fans out the
same way when called outside a job and runs on the job's own thread inside
one, so the CPUs are not oversubscribed. A job reads its fold's episodes
from the pool's X through row indices instead of copying them.

``sweep_dropout`` fans out the same way over (row block, fraction) items:
each thins, featurizes and scores one of ``predict``'s row blocks on the
thread that runs it, so no fraction's feature tensor exists whole, and the
scores are joined in row order before the metrics, which ``evaluate``
computes with the same helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import canonical_json, check_int, check_real, make_rng, seed_entropy
from .dataset import (
    BinnedBatch,
    IrregularSeries,
    Schema,
    attach_mask,
    attach_te,
    bin_series,
    drop_observations,
    label_convert,
    split_folds,
)
from .encoding import te_batch
from .metrics import auc_roc, average_precision, explained_variance, mae, rmse
from .models import (
    ModelSpec,
    NumericError,
    alias,
    backward,
    clone_params,
    fan_out,
    forward,
    init_params,
    loss,
    model_input_width,
    predict,
    row_blocks,
    zeros_like_params,
)

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
        check_real("lr", self.lr, 0, strict=True)
        check_real("weight_decay", self.weight_decay, 0, strict=False)
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)

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
    """Episodes stacked into dense batch tensors for training/evaluation.

    With ``rows``, episode i is ``X[rows[i]]``: a selection (``take``) that
    shares the X it selects from instead of copying it."""

    X: np.ndarray
    y: np.ndarray
    episode_ids: tuple[str, ...]
    rows: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def batch(self, idx) -> np.ndarray:
        """A copy of the features of the episodes at ``idx``."""
        return self.X[idx if self.rows is None else self.rows[idx]]

    def take(self, idx) -> "ArrayData":
        """The episodes at ``idx``, sharing this X."""
        idx = np.asarray(idx, dtype=np.intp)
        ids = tuple(self.episode_ids[i] for i in idx.tolist())
        rows = idx if self.rows is None else self.rows[idx]
        return ArrayData(X=self.X, y=self.y[idx], episode_ids=ids, rows=rows)

    def subset(self, idx) -> "ArrayData":
        """A copy of the episodes at ``idx``."""
        part = self.take(idx)
        return ArrayData(X=self.X[part.rows], y=part.y, episode_ids=part.episode_ids)


# Episodes featurized per pass: the working arrays of bin_series and the
# attachments stay one chunk's worth next to X, whatever the episode count.
_CHUNK = 256


def build_features(series_list, schema: Schema, window: float, bin_width: float,
                   spec: ModelSpec) -> BinnedBatch:
    """Bin the series and write the values and the time columns that
    ``spec.te_mode`` calls for side by side into one X. add_te's columns
    embed the grid times; ``models.forward`` splits them off again and adds
    them to the hidden states. The result keeps X only; M and D are None."""
    series_list = tuple(series_list)
    X = None
    for start in range(0, max(len(series_list), 1), _CHUNK):  # no series: one empty pass
        part = bin_series(series_list[start : start + _CHUNK], schema, window, bin_width)
        columns = [part.X]
        if spec.te_mode == "mask":
            columns += attach_mask(part)
        elif spec.te_mode == "cat_te":
            columns += attach_te(part, spec.te_cfg)
        elif spec.te_mode == "add_te":
            grid_te = te_batch(np.arange(part.X.shape[1]) * float(bin_width), spec.te_cfg)
            columns.append(np.broadcast_to(grid_te, part.X.shape[:2] + grid_te.shape[1:]))
        if X is None:
            X = np.empty((len(series_list), part.X.shape[1], sum(c.shape[2] for c in columns)))
        np.concatenate(columns, axis=2, out=X[start : start + len(part.series)])
    return BinnedBatch(series=series_list, X=X, M=None, D=None, window=float(window))


def _labels(series_list, task: str) -> np.ndarray:
    """The checked labels of the series; regression labels in days."""
    if not series_list:
        raise ValueError("no episodes to prepare")
    labels = []
    for s in series_list:
        if s.label is None:
            raise ValueError(f"episode {s.episode_id!r} has no label")
        labels.append(float(s.label))
    y = np.asarray(labels)
    if task == "classification":
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("classification labels must be 0 or 1")
        return y
    return label_convert(y, "to_days")


def prepare(batch: BinnedBatch, task: str) -> ArrayData:
    """Arrays of a featurized batch; regression labels are converted to days here."""
    return ArrayData(X=batch.X, y=_labels(batch.series, task),
                     episode_ids=tuple(s.episode_id for s in batch.series))


def predict_scores(spec: ModelSpec, params: dict, data: ArrayData) -> np.ndarray:
    """Positive-class probability (classification) or day-scale prediction
    (regression), one value per episode."""
    out = predict(spec, params, data.X, data.rows)
    return out[:, 1] if spec.task == "classification" else out


def evaluate(spec: ModelSpec, params: dict, data: ArrayData) -> dict[str, float]:
    """Test metrics; regression errors are converted back to hours."""
    return _test_metrics(spec.task, data.y, predict_scores(spec, params, data))


def _test_metrics(task: str, y: np.ndarray, scores: np.ndarray) -> dict[str, float]:
    if task == "classification":
        return {
            "auc_roc": auc_roc(y, scores),
            "ap": average_precision(y, scores),
        }
    y_hours = label_convert(y, "to_hours")
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
    A non-finite loss, gradient, or activation raises DivergenceError, whose
    message names the epoch and the batch (or the validation pass).
    """
    entropy = seed_entropy(seed)
    steps, width = train_data.X.shape[1], train_data.X.shape[2]
    params = init_params(spec, model_input_width(spec, steps, width), entropy + [0])
    rng = make_rng(entropy + [1])

    best = TrainResult(params=clone_params(params), history=[])
    state = init_opt_state(params, lr=hyper.lr, weight_decay=hyper.weight_decay)
    where = "before the first epoch"
    try:
        best.best_val = _val_metric(spec, params, val_data)
        for epoch in range(hyper.epochs):
            perm = rng.permutation(train_data.n)
            total = 0.0
            for b, start in enumerate(range(0, train_data.n, hyper.batch_size)):
                where = f"at epoch {epoch}, batch {b}"
                idx = perm[start : start + hyper.batch_size]
                xb = train_data.batch(idx)
                yb = train_data.y[idx]
                out, trace = forward(spec, params, xb)
                batch_loss = loss(spec, out, yb, trace)
                if not np.isfinite(batch_loss):
                    raise DivergenceError("non-finite loss")
                grads = backward(spec, params, trace, yb)
                params, state = opt_step(params, grads, state)
                total += batch_loss * len(idx)
                del out, trace, grads, xb  # freed before the next forward, not after it
            train_loss = total / train_data.n
            where = f"at epoch {epoch}, in validation"
            val = _val_metric(spec, params, val_data)
            best.history.append({"epoch": epoch, "train_loss": float(train_loss), "val_metric": float(val)})
            if _is_better(spec.task, val, best.best_val):
                best.best_val = float(val)
                best.params = clone_params(params)
    except NumericError as exc:
        raise DivergenceError(f"numeric overflow {where}: {exc}") from exc
    except DivergenceError as exc:  # the loss check above or opt_step's gradient check
        raise DivergenceError(f"{exc} {where}") from exc
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


def _in_id_order(batch: BinnedBatch, task: str) -> tuple[list[IrregularSeries], ArrayData]:
    """The batch's episodes and arrays, both sorted by episode id."""
    order = sorted(range(len(batch.series)), key=lambda i: batch.series[i].episode_id)
    data = prepare(batch, task)
    if order != list(range(len(order))):
        data = data.subset(order)
    return [batch.series[i] for i in order], data


def run_cv(spec: ModelSpec, pool: BinnedBatch, test: BinnedBatch,
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
    pool_series, pool_data = _in_id_order(pool, spec.task)
    _, test_data = _in_id_order(test, spec.task)
    stratify = spec.task == "classification"
    fold_of = split_folds(pool_series, k, [base_seed, _FOLD_SALT], stratify=stratify)

    jobs = [(f, r) for f in range(k) for r in range(runs_per_fold)]

    def run_job(job: tuple[int, int]) -> dict:
        f, r = job
        row: dict = {"fold": f, "run": r, "seed": [base_seed, f, r]}
        try:
            result = train_one(
                spec, pool_data.take(np.nonzero(fold_of != f)[0]),
                pool_data.take(np.nonzero(fold_of == f)[0]), hyper, [base_seed, f, r],
            )
            row["status"] = "ok"
            row["val_metric"] = result.best_val
            row["_params"] = result.params
        except DivergenceError as exc:
            row["status"] = "failed"
            row["val_metric"] = None
            row["error"] = str(exc)
        return row

    rows = fan_out(run_job, jobs)

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
        "fold_of": {eid: int(fold_of[i]) for i, eid in enumerate(pool_data.episode_ids)},
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

    Each (row block, fraction) pair is one ``fan_out`` item that thins,
    featurizes and scores its block on the thread that runs it, so no
    fraction's features exist whole. The blocks are ``predict``'s
    (``row_blocks``), so every score rounds as ``evaluate`` on the whole
    fraction would give it.
    """
    if not selected_params:
        raise ValueError("no selected models to sweep")
    fractions = tuple(fractions)
    y = _labels(test_series, spec.task)
    folds = sorted(selected_params)
    # block-major, so that each CPU's contiguous group holds every fraction
    items = [(a, b, fi) for a, b in row_blocks(len(test_series)) for fi in range(len(fractions))]

    def score(item: tuple[int, int, int]) -> list[np.ndarray]:
        a, b, fi = item
        block = test_series[a:b]
        if fractions[fi] != 1.0:
            block = [drop_observations(s, fractions[fi], [base_seed, fi, ei])
                     for ei, s in enumerate(block, start=a)]
        data = ArrayData(X=build_features(block, schema, window, bin_width, spec).X,
                         y=y[a:b], episode_ids=tuple(s.episode_id for s in block))
        return [predict_scores(spec, selected_params[f], data) for f in folds]

    scored = fan_out(score, items)
    rows = []
    for fi, fraction in enumerate(fractions):
        blocks = scored[fi :: len(fractions)]  # this fraction's blocks in row order
        per_metric: dict[str, list[float]] = {}
        for m in range(len(folds)):
            scores = np.concatenate([block[m] for block in blocks])
            for name, value in _test_metrics(spec.task, y, scores).items():
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

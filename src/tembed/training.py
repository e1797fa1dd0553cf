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

Validation metrics (``VAL_METRIC``): AUC-ROC for classification (higher
is better), MAE on the day scale for regression (lower is better). Test
metrics for regression are reported in hours.

``run_cv`` trains the fold-by-run grid through ``models.fan_out``, on
forked ``multiprocessing`` workers (its docstring says when they fork),
and merges the results in (fold, run) order, so the report does not depend
on the CPU count; limit the process's CPUs (for example with
``taskset -c 0``) to train serially.
Scoring (``predict_scores``) goes through ``models.predict``, which runs
in the calling process: the job's own process inside a job. Putting the
episodes in id order and a job's folds select rows of the pool's X
(``ArrayData.take``) and copy none; a forked worker shares those rows with
the caller copy-on-write. ``build_features`` featurizes in ``predict``'s
row blocks.

``sweep_dropout`` fans out the same way over (row block, fraction) items:
each thins, featurizes and scores one of ``predict``'s row blocks in the
process that runs it, so no fraction's feature tensor exists whole, and the
scores are joined in row order before the metrics, which ``evaluate``
computes with the same helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._util import canonical_json, check_int, check_real, make_rng, seed_entropy, to_object
from .dataset import (
    BinnedBatch,
    IrregularSeries,
    Schema,
    attach_mask,
    attach_te,
    bin_series,
    drop_observations,
    split_folds,
)
from .metrics import auc_roc, average_precision, explained_variance, mae, rmse
from .models import (
    _ENCODED_MODES,
    ModelSpec,
    NumericError,
    alias,
    backward,
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
HOURS_PER_DAY = 24.0  # regression labels are hours in the data and days in training
# the optimizer's moment decays and denominator guard (b1, b2 and eps above)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


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


@dataclass
class OptState:
    """Per-parameter moments, their running max, and the step counter."""

    m: dict
    v: dict
    vmax: dict
    t: int
    lr: float
    weight_decay: float


def init_opt_state(params: dict, lr: float, weight_decay: float) -> OptState:
    return OptState(m=zeros_like_params(params), v=zeros_like_params(params),
                    vmax=zeros_like_params(params), t=0, lr=lr, weight_decay=weight_decay)


def opt_step(params: dict, grads: dict, state: OptState) -> tuple[dict, OptState]:
    """One functional optimizer update; inputs are left untouched."""
    if set(params) != set(grads):
        raise ValueError("params and grads name different tensors")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient for {name!r}")
    t = state.t + 1
    b1c = 1.0 - _BETA1 ** t
    b2c = 1.0 - _BETA2 ** t
    new_params, new_m, new_v, new_vmax = {}, {}, {}, {}
    for name, theta in params.items():
        g = grads[name]
        new_m[name] = m = _BETA1 * state.m[name] + (1.0 - _BETA1) * g
        new_v[name] = v = _BETA2 * state.v[name] + (1.0 - _BETA2) * g * g
        new_vmax[name] = vmax = np.maximum(state.vmax[name], v)
        step = state.lr * (m / b1c) / (np.sqrt(vmax / b2c) + _EPS)
        new_params[name] = theta * (1.0 - state.lr * state.weight_decay) - step
    return new_params, replace(state, m=new_m, v=new_v, vmax=new_vmax, t=t)


@dataclass
class ArrayData:
    """Episodes stacked into dense batch tensors for training/evaluation.

    With ``rows``, episode i is ``X[rows[i]]``: a selection (``take``) that
    shares the X it selects from instead of copying it."""

    X: np.ndarray
    y: np.ndarray
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
        return ArrayData(X=self.X, y=self.y[idx], rows=idx if self.rows is None else self.rows[idx])


def build_features(series_list, schema: Schema, window: float, bin_width: float,
                   spec: ModelSpec) -> BinnedBatch:
    """Bin the series and write the values and the time columns that
    ``spec.te_mode`` calls for side by side into one X. cat_te and add_te
    take the same columns, ``attach_te``'s embedding of each step's gap since
    the latest observation; for add_te ``models.forward`` splits them off
    again and adds them to the hidden states. The result keeps X only; M and
    D are None.

    The series are featurized in ``row_blocks``, so the working arrays of
    ``bin_series`` and the attachments stay one block's worth next to X
    whatever the episode count."""
    series_list = tuple(series_list)
    X = None
    for start, stop in row_blocks(len(series_list)):  # no series: one empty pass
        part = bin_series(series_list[start:stop], schema, window, bin_width)
        columns = [part.X]
        if spec.te_mode == "mask":
            columns += attach_mask(part)
        elif spec.te_mode in _ENCODED_MODES:
            columns += attach_te(part, spec.te_cfg)
        if X is None:
            X = np.empty((len(series_list), part.X.shape[1], sum(c.shape[2] for c in columns)))
        np.concatenate(columns, axis=2, out=X[start:stop])
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
        bad, rule = ~np.isin(y, (0.0, 1.0)), "classification labels must be 0 or 1"
    elif not np.isfinite(y).all():
        bad, rule = ~np.isfinite(y), "regression labels must be finite"
    else:
        bad, rule = y < 0, "labels must be >= 0"
    if bad.any():
        first = int(np.argmax(bad))
        raise ValueError(f"episode {series_list[first].episode_id!r} has label {y[first]:g}; {rule}")
    return y if task == "classification" else y / HOURS_PER_DAY


def prepare(batch: BinnedBatch, task: str) -> ArrayData:
    """Arrays of a featurized batch; regression labels are converted to days here."""
    return ArrayData(X=batch.X, y=_labels(batch.series, task))


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
    y_hours, pred_hours = y * HOURS_PER_DAY, scores * HOURS_PER_DAY
    return {
        "mae_hours": mae(y_hours, pred_hours),
        "rmse_hours": rmse(y_hours, pred_hours),
        "ev": explained_variance(y_hours, pred_hours),
    }


# each task's validation metric and its sign: a higher sign * value is better
VAL_METRIC = {"classification": ("auc_roc", 1.0), "regression": ("mae_days", -1.0)}


def _val_metric(spec: ModelSpec, params: dict, data: ArrayData) -> float:
    """``VAL_METRIC``'s metric of the model on ``data``."""
    scores = predict_scores(spec, params, data)
    if spec.task == "classification":
        return auc_roc(data.y, scores)
    return mae(data.y, scores)


@dataclass
class TrainResult:
    params: dict
    history: list[dict] = field(default_factory=list)
    best_val: float = float("nan")


def train_one(spec: ModelSpec, train_data: ArrayData, val_data: ArrayData,
              hyper: Hyper, seed) -> TrainResult:
    """Seeded epoch loop with shuffled mini-batches and best-epoch selection.

    Keeps the parameters of the epoch with the best validation metric; a
    later epoch replaces them only if it is strictly better.
    With zero epochs the initial parameters come back untouched (their
    validation metric is still measured, so selection stays well defined).
    A non-finite loss, gradient, or activation raises DivergenceError, whose
    message names the epoch and the batch (or the validation pass).
    """
    entropy = seed_entropy(seed)
    steps, width = train_data.X.shape[1], train_data.X.shape[2]
    params = init_params(spec, model_input_width(spec, steps, width), entropy + [0])
    if spec.task == "regression":  # max(z, 0) passes no gradient where z <= 0: start at the mean
        params["out.b"] = params["out.b"] + train_data.y.mean()
    rng = make_rng(entropy + [1])

    # opt_step writes new arrays and never into its inputs, so the parameters
    # of the best epoch are kept without a copy
    best = TrainResult(params=params, history=[])
    state = init_opt_state(params, lr=hyper.lr, weight_decay=hyper.weight_decay)
    sign = VAL_METRIC[spec.task][1]
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
                trace = forward(spec, params, xb)[1]
                batch_loss = loss(trace, train_data.y[idx])
                if not np.isfinite(batch_loss):
                    raise DivergenceError("non-finite loss")
                grads = backward(params, trace)
                params, state = opt_step(params, grads, state)
                total += batch_loss * len(idx)
                del trace, grads, xb  # freed before the next forward, not after it
            train_loss = total / train_data.n
            where = f"at epoch {epoch}, in validation"
            val = _val_metric(spec, params, val_data)
            best.history.append({"epoch": epoch, "train_loss": float(train_loss), "val_metric": float(val)})
            if sign * val > sign * best.best_val:
                best.best_val = float(val)
                best.params = params
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


def _aggregate_metrics(per_model: list[dict[str, float]]) -> dict[str, dict]:
    """``aggregate_stats`` of each metric over the models' metric dicts, by
    metric name; each sample is in model order."""
    names = sorted({name for metrics in per_model for name in metrics})
    return {name: aggregate_stats([metrics[name] for metrics in per_model]) for name in names}


def _in_id_order(batch: BinnedBatch, task: str) -> tuple[list[IrregularSeries], ArrayData]:
    """The batch's episodes and arrays, both sorted by episode id; the
    arrays select from the batch's X without copying it."""
    order = sorted(range(len(batch.series)), key=lambda i: batch.series[i].episode_id)
    return [batch.series[i] for i in order], prepare(batch, task).take(order)


def _check_labels(task: str, y_pool: np.ndarray, fold_of: np.ndarray, k: int, y_test: np.ndarray) -> None:
    """Refuse, before any training, a validation fold or a test set without
    both labels, as AUC-ROC and AP rank positives against negatives, and a
    regression test set of one label value, as explained variance divides by
    the labels' variance."""
    if task == "regression":
        if (y_test == y_test[0]).all():
            raise ValueError(f"the test set has {len(y_test)} episode(s), each labelled "
                             f"{y_test[0] * HOURS_PER_DAY:g} hours; explained variance needs two label values")
        return
    for name, y in [(f"validation fold {f}", y_pool[fold_of == f]) for f in range(k)] + [("the test set", y_test)]:
        for label in (1.0, 0.0):
            if not (y == label).any():
                raise ValueError(f"{name} has no episode labelled {label:g}; "
                                 f"the pool has {int((y_pool == label).sum())} of {len(y_pool)}")


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
    executions and input orderings. A classification run whose validation
    folds or test set lack a label, and a regression run whose test set has
    one label value, raise ValueError before any training.
    """
    pool_series, pool_data = _in_id_order(pool, spec.task)
    _, test_data = _in_id_order(test, spec.task)
    fold_of = split_folds(pool_series, k, [base_seed, _FOLD_SALT], stratify=spec.task == "classification")
    _check_labels(spec.task, pool_data.y, fold_of, k, test_data.y)

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
    metric_name, sign = VAL_METRIC[spec.task]
    for f in range(k):
        fold_rows = [row for row in rows if row["fold"] == f and row["status"] == "ok"]
        if not fold_rows:
            continue
        # max keeps the first of equal metrics
        best_row = max(fold_rows, key=lambda row: sign * row["val_metric"])
        best_row["selected"] = True
        selected_params[f] = best_row["_params"]

    for row in rows:
        params = row.pop("_params", None)
        row.setdefault("selected", False)
        row["test_metrics"] = evaluate(spec, params, test_data) if row["selected"] else None
    aggregate = _aggregate_metrics([row["test_metrics"] for row in rows if row["selected"]])

    report = {
        "model": alias(spec),
        "spec": to_object(spec),
        "hyper": to_object(hyper),
        "k": k,
        "runs_per_fold": runs_per_fold,
        "base_seed": base_seed,
        "n_pool": pool_data.n,
        "n_test": test_data.n,
        "fold_of": {s.episode_id: int(fold_of[i]) for i, s in enumerate(pool_series)},
        "val_metric_name": metric_name,
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
    featurizes and scores its block in the process that runs it (the caller
    or a forked worker, which sends back only the scores), so no fraction's
    features exist whole. The blocks are ``predict``'s (``row_blocks``), so
    every score rounds as ``evaluate`` on the whole fraction would give it.
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
        data = ArrayData(X=build_features(block, schema, window, bin_width, spec).X, y=y[a:b])
        return [predict_scores(spec, selected_params[f], data) for f in folds]

    scored = fan_out(score, items)
    rows = []
    for fi, fraction in enumerate(fractions):
        blocks = scored[fi :: len(fractions)]  # this fraction's blocks in row order
        per_model = [_test_metrics(spec.task, y, np.concatenate([block[m] for block in blocks]))
                     for m in range(len(folds))]
        for name, stats in _aggregate_metrics(per_model).items():
            rows.append({"model": alias(spec), "fraction": float(fraction), "metric": name,
                         "value": stats["mean"], "std": stats["std"]})
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    lines = ["model,fraction,metric,value,std"]
    for row in rows:
        lines.append(
            f"{row['model']},{row['fraction']!r},{row['metric']},{row['value']!r},{row['std']!r}"
        )
    return "\n".join(lines) + "\n"

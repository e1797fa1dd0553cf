"""Evaluation metrics: ranking scores for binary classifiers, error scores
for regressors.

All functions are pure, operate on 1-d float64 arrays, and use population
(not sample) variance where variance enters. Ties in scores are handled
exactly: AUC averages ranks over tied groups, AP collapses tied scores into
a single threshold step.
"""

from __future__ import annotations

import numpy as np


def _validate_pair(y_true, y_score):
    t = np.asarray(y_true, dtype=np.float64).ravel()
    s = np.asarray(y_score, dtype=np.float64).ravel()
    if t.shape != s.shape:
        raise ValueError(f"length mismatch: {t.shape[0]} labels vs {s.shape[0]} scores")
    if t.size == 0:
        raise ValueError("metrics are undefined on empty inputs")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return t, s


def _validate_binary(y_true, y_score):
    t, s = _validate_pair(y_true, y_score)
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(t.sum())
    if n_pos == 0 or n_pos == t.size:
        raise ValueError("ranking metrics need at least one positive and one negative label")
    return t, s, n_pos


def auc_roc(y_true, y_score) -> float:
    """Area under the ROC curve via the rank-sum identity.

    Equals the probability that a uniformly random positive outscores a
    uniformly random negative, counting ties as half. Tied scores share the
    average of the ranks they span, which makes the estimate exact rather
    than order-dependent.
    """
    t, s, n_pos = _validate_binary(y_true, y_score)
    n_neg = t.size - n_pos
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    # a tied group spans the 1-based ranks end - count + 1 .. end; its mean
    # is a whole or half number, so exact
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[group]
    rank_sum_pos = float(ranks[t == 1.0].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_precision(y_true, y_score) -> float:
    """Step-wise area under the precision-recall curve.

    AP = sum over thresholds of (recall step) * (precision at threshold),
    descending through distinct score values so tied scores enter as one
    step. No interpolation.
    """
    t, s, n_pos = _validate_binary(y_true, y_score)
    order = np.argsort(-s, kind="stable")
    t_sorted = t[order]
    s_sorted = s[order]
    # last index of each distinct-score block, descending scores
    block_ends = np.nonzero(np.diff(s_sorted))[0]
    block_ends = np.append(block_ends, t.size - 1)
    tp_cum = np.cumsum(t_sorted)
    tp = tp_cum[block_ends]
    n_at = block_ends + 1.0
    precision = tp / n_at
    recall = tp / n_pos
    recall_prev = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - recall_prev) * precision))


def _validate_regression(y_true, y_pred):
    t, p = _validate_pair(y_true, y_pred)
    if not np.isfinite(t).all():
        raise ValueError("targets must be finite")
    return t, p


def mae(y_true, y_pred) -> float:
    """Mean absolute error."""
    t, p = _validate_regression(y_true, y_pred)
    return float(np.mean(np.abs(t - p)))


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    t, p = _validate_regression(y_true, y_pred)
    return float(np.sqrt(np.mean((t - p) ** 2)))


def explained_variance(y_true, y_pred) -> float:
    """1 - Var(residuals) / Var(targets), both population variances.

    1.0 means perfect prediction; 0.0 matches always predicting the target
    mean; negative values are worse than that. Undefined (raises) when the
    targets are constant.
    """
    t, p = _validate_regression(y_true, y_pred)
    var_t = float(np.var(t))
    if var_t == 0.0:
        raise ValueError("explained variance is undefined for constant targets")
    return 1.0 - float(np.var(t - p)) / var_t

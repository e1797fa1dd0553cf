"""The fused LSTM time loop against a per-step reference.

``reference_lstm_forward`` and ``reference_lstm_backward`` are the
straightforward implementation the fused loop replaced: an overflow-safe
exp-form sigmoid per gate, one input GEMM and one set of weight-gradient
products per step. Swapping them into ``tembed.models`` runs the whole
model (dense head, attention pooling, add_te) through the reference, so
``forward``, ``backward`` and ``predict`` are compared end to end.

The two differ only in rounding: the fused loop sums the pre-activation
in another order, takes sigmoid(z) as 0.5 * (1 + tanh(z / 2)) and adds
the weight gradients of all steps in one product. Each tensor must match
within ``RTOL`` of its largest reference magnitude, a few hundred float64
ulps, far below any change in the arithmetic (a dropped term or a
misplaced gate moves values by whole percents).
"""

import numpy as np
import pytest

from tembed import models
from tembed.encoding import EncoderConfig, te_batch
from tembed.models import AttentionSpec, ModelSpec, backward, forward, init_params, loss, predict

RTOL = 1e-13
HIDDEN = 8
WIDTH = 5


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_lstm_forward(params, x, trace):
    B, T, _ = x.shape
    Wx, Wh, b = params["lstm.Wx"], params["lstm.Wh"], params["lstm.b"]
    h_size = Wh.shape[0]
    shape = (B, T, h_size)
    I, F, G, O = np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape)
    C, TanhC, H = np.empty(shape), np.empty(shape), np.empty(shape)
    h = np.zeros((B, h_size))
    c = np.zeros((B, h_size))
    for t in range(T):
        gates = x[:, t] @ Wx + h @ Wh + b
        i = reference_sigmoid(gates[:, :h_size])
        f = reference_sigmoid(gates[:, h_size : 2 * h_size])
        g = np.tanh(gates[:, 2 * h_size : 3 * h_size])
        o = reference_sigmoid(gates[:, 3 * h_size :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        I[:, t], F[:, t], G[:, t], O[:, t] = i, f, g, o
        C[:, t], TanhC[:, t], H[:, t] = c, tc, h
    if trace is not None:  # predict keeps no trace
        trace.gates = (I, F, G, O)
        trace.cells, trace.tanh_cells, trace.H = C, TanhC, H
    return H


def reference_lstm_backward(params, trace, dH, grads):
    x = trace.x
    B, T, _ = x.shape
    Wx, Wh = params["lstm.Wx"], params["lstm.Wh"]
    I, F, G, O = trace.gates
    C, TanhC, H = trace.cells, trace.tanh_cells, trace.H
    h_size = Wh.shape[0]
    if dH.ndim == 2:  # the lstm head passes the gradient of its last step only
        dH = np.concatenate([np.zeros((B, T - 1, h_size)), dH[:, None]], axis=1)
    dWx = np.zeros_like(Wx)
    dWh = np.zeros_like(Wh)
    db = np.zeros(4 * h_size)
    dh_next = np.zeros((B, h_size))
    dc_next = np.zeros((B, h_size))
    for t in range(T - 1, -1, -1):
        dh = dH[:, t] + dh_next
        do = dh * TanhC[:, t]
        dc = dc_next + dh * O[:, t] * (1.0 - TanhC[:, t] ** 2)
        c_prev = C[:, t - 1] if t > 0 else np.zeros((B, h_size))
        h_prev = H[:, t - 1] if t > 0 else np.zeros((B, h_size))
        dgates = np.concatenate(
            [
                dc * G[:, t] * I[:, t] * (1.0 - I[:, t]),
                dc * c_prev * F[:, t] * (1.0 - F[:, t]),
                dc * I[:, t] * (1.0 - G[:, t] ** 2),
                do * O[:, t] * (1.0 - O[:, t]),
            ],
            axis=1,
        )
        dWx += x[:, t].T @ dgates
        dWh += h_prev.T @ dgates
        db += dgates.sum(axis=0)
        dh_next = dgates @ Wh.T
        dc_next = dc * F[:, t]
    grads["lstm.Wx"] = dWx
    grads["lstm.Wh"] = dWh
    grads["lstm.b"] = db


def make_spec(family, te_mode):
    te_cfg = EncoderConfig.temporal(HIDDEN, 48.0) if te_mode in ("cat_te", "add_te") else None
    attention = AttentionSpec(d_a=6, r=3) if family == "sa_lstm" else None
    return ModelSpec(family=family, task="classification", hidden=HIDDEN, te_mode=te_mode,
                     te_cfg=te_cfg, attention=attention)


def run_model(spec, params, x, y):
    out, trace = forward(spec, params, x)
    loss(trace, y)
    return out, trace.H, backward(params, trace), predict(spec, params, x)


def assert_matches(fused, reference, what):
    scale = max(np.abs(reference).max(), np.finfo(float).tiny)
    err = np.abs(fused - reference).max() / scale
    assert err <= RTOL, f"{what}: max error {err:.2e} of the largest magnitude {scale:.2e}"


@pytest.mark.parametrize("T", [1, 2, 48])
@pytest.mark.parametrize("B", [1, 3, 100])
@pytest.mark.parametrize("te_mode", models.TE_MODES)
@pytest.mark.parametrize("family", ["lstm", "sa_lstm"])
def test_fused_lstm_matches_per_step_reference(monkeypatch, family, te_mode, B, T):
    spec = make_spec(family, te_mode)
    params = init_params(spec, WIDTH, [B, T])
    rng = np.random.default_rng([B, T, 1])
    x = rng.normal(size=(B, T, WIDTH))
    y = rng.integers(0, 2, size=B).astype(float)
    if te_mode == "add_te":  # the embedded grid times ride after the inputs
        grid_te = te_batch(np.arange(T, dtype=float), spec.te_cfg)
        x = np.concatenate([x, np.broadcast_to(grid_te, (B, T, HIDDEN))], axis=2)

    fused = run_model(spec, params, x, y)
    monkeypatch.setattr(models, "_lstm_forward", reference_lstm_forward)
    monkeypatch.setattr(models, "_lstm_backward", reference_lstm_backward)
    reference = run_model(spec, params, x, y)

    assert_matches(fused[0], reference[0], "output")
    assert_matches(fused[1], reference[1], "hidden states")
    assert_matches(fused[3], reference[3], "predict output")
    assert np.array_equal(fused[3], fused[0]), "predict differs from forward"
    assert set(fused[2]) == set(reference[2])
    for name in reference[2]:
        assert_matches(fused[2][name], reference[2][name], f"gradient {name}")


@pytest.mark.parametrize("family", ["lstm", "sa_lstm"])
def test_saturated_gates_stay_bounded_without_overflow(family):
    spec = make_spec(family, "none")
    params = init_params(spec, WIDTH, 0)
    rng = np.random.default_rng(1)
    # five input terms of +-1e3 put every pre-activation between 500 and 5,500
    # in magnitude; exp(-z) overflows float64 beyond 709
    params["lstm.Wx"] = rng.choice([-1e3, 1e3], size=params["lstm.Wx"].shape)
    x = rng.choice([-1.0, 1.0], size=(4, 6, WIDTH)) * rng.uniform(0.9, 1.1, size=(4, 6, WIDTH))
    y = np.array([0.0, 1.0, 1.0, 0.0])
    with np.errstate(over="raise", invalid="raise"):
        out, trace = forward(spec, params, x)
        gates = trace.gates.copy()  # backward writes the gate gradients over them
        loss(trace, y)
        grads = backward(params, trace)
    sig = np.concatenate([gates[..., : 2 * HIDDEN], gates[..., 3 * HIDDEN :]], axis=-1)
    assert ((sig >= 0.0) & (sig <= 1.0)).all()
    assert (np.abs(gates[..., 2 * HIDDEN : 3 * HIDDEN]) <= 1.0).all()
    assert np.isin(sig, (0.0, 1.0)).all(), "the inputs failed to saturate the gates"
    assert np.isfinite(out).all() and np.isfinite(trace.H).all()
    assert all(np.isfinite(g).all() for g in grads.values())

"""Model zoo with exact hand-derived gradients.

Families: linear regression, logistic regression, MLP (both consume the
flattened step-by-feature matrix), LSTM (last hidden state feeds a dense
head), and self-attentive LSTM (attention-pooled hidden states feed the
head). Time information enters through one of four input regimes:

* ``none``: binned values only;
* ``mask``: values plus missingness/gap columns (built by the dataset
  module, the model just sees a wider input);
* ``cat_te``: values plus embedding columns of each step's hours since the
  latest observation in any channel (also built by the dataset module);
* ``add_te``: embedding columns of the grid times, the last ``te_cfg.dim``
  input columns (built by ``training.build_features``); ``forward`` splits
  them off and adds them to the LSTM hidden states before pooling, which
  requires the embedding dimension to equal the hidden size.

Classification heads end in a 2-way softmax, regression heads in a single
linear unit clamped at zero. The self-attentive pooling computes
A = rowsoftmax(Ws2 . tanh(Ws1 . H^T)) and penalizes the loss with
c * ||A A^T - I||_F^2 so the r attention rows stay diverse.

``forward`` accepts one episode (steps x features) or a batch
(batch x steps x features); ``loss`` and ``backward`` mirror that, with
batch losses averaged. Gradients are exact reverse-mode derivatives of
``loss``, verified against central finite differences in the test suite.
``backward`` consumes the trace: the LSTM gate gradients overwrite its gate
buffer. ``predict`` returns what ``forward`` returns without its trace: it
runs blocks of rows on a thread per usable CPU through ``fan_out``, and
without a trace the LSTM keeps one step of its gate and cell buffers
instead of every step.
Parameters live in plain dicts of named float64 arrays; all functions
here treat them as immutable.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._util import atomic_write_bytes, check_int, check_real, make_rng
from .encoding import EncoderConfig
from .encoding import te_batch  # noqa: F401  (perfbench/spans.py TARGETS wraps this name)

FAMILIES = ("linreg", "logreg", "mlp", "lstm", "sa_lstm")
TE_MODES = ("none", "mask", "cat_te", "add_te")
TASKS = ("classification", "regression")

_FAMILY_ALIAS = {"linreg": "LinR", "logreg": "LogR", "mlp": "MLP", "lstm": "LSTM", "sa_lstm": "SA-LSTM"}
_MODE_PREFIX = {"none": "", "mask": "BM+", "cat_te": "catTE+", "add_te": "addTE+"}

PARAMS_FORMAT_VERSION = 1

# Rows per inference block: one block's working arrays stay in cache. On one
# thread of a 2-vCPU Xeon, 1,000 SA-LSTM episodes (h=32, 48 steps, 54 inputs)
# took 92 ms in 128-row blocks, 95 ms in 64-row and 122 ms in 256-row ones.
_BLOCK = 128


class NumericError(ValueError):
    """A non-finite value appeared during a forward pass."""


@dataclass(frozen=True)
class AttentionSpec:
    """Structured self-attention sizes: d_a projection width, r attention
    rows, and the row-diversity penalty coefficient."""

    d_a: int = 32
    r: int = 8
    penalty_c: float = 1e-4

    def __post_init__(self) -> None:
        check_int("d_a", self.d_a, 1)
        check_int("r", self.r, 1)
        check_real("penalty_c", self.penalty_c, 0, strict=False)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture family, sizes, input regime, and task."""

    family: str
    task: str
    hidden: int = 0
    head_widths: tuple[int, ...] = (32, 32, 16)
    mlp_widths: tuple[int, ...] = (64, 64, 32, 16)
    te_mode: str = "none"
    te_cfg: EncoderConfig | None = None
    attention: AttentionSpec | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.te_mode not in TE_MODES:
            raise ValueError(f"te_mode must be one of {TE_MODES}, got {self.te_mode!r}")
        recurrent = self.family in ("lstm", "sa_lstm")
        check_int("hidden", self.hidden, 1 if recurrent else 0)
        for width in (*self.head_widths, *self.mlp_widths):
            check_int("layer width", width, 1)
        if not recurrent and self.hidden != 0:
            raise ValueError(f"{self.family} has no hidden state; leave hidden at 0")
        if (self.attention is not None) != (self.family == "sa_lstm"):
            raise ValueError("attention settings are required for sa_lstm and only for sa_lstm")
        if self.te_mode in ("cat_te", "add_te") and self.te_cfg is None:
            raise ValueError(f"te_mode {self.te_mode!r} needs a te_cfg")
        if self.te_mode in ("none", "mask") and self.te_cfg is not None:
            raise ValueError(f"te_mode {self.te_mode!r} takes no te_cfg")
        if self.te_mode == "add_te":
            if not recurrent:
                raise ValueError("add_te applies only to lstm and sa_lstm")
            if self.te_cfg.dim != self.hidden:
                raise ValueError(
                    f"add_te needs te dimension == hidden size, got {self.te_cfg.dim} != {self.hidden}"
                )

    @property
    def n_out(self) -> int:
        return 2 if self.task == "classification" else 1

    @property
    def recurrent(self) -> bool:
        return self.family in ("lstm", "sa_lstm")

    def to_dict(self) -> dict:
        d: dict = {
            "family": self.family,
            "task": self.task,
            "hidden": self.hidden,
            "head_widths": list(self.head_widths),
            "mlp_widths": list(self.mlp_widths),
            "te_mode": self.te_mode,
        }
        if self.te_cfg is not None:
            d["te_cfg"] = {
                "dim": self.te_cfg.dim,
                "max_time": self.te_cfg.max_time,
                "base_kind": self.te_cfg.base_kind,
            }
        if self.attention is not None:
            d["attention"] = {
                "d_a": self.attention.d_a,
                "r": self.attention.r,
                "penalty_c": self.attention.penalty_c,
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        known = {"family", "task", "hidden", "head_widths", "mlp_widths", "te_mode", "te_cfg", "attention"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown model spec keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "head_widths" in kwargs:
            kwargs["head_widths"] = tuple(kwargs["head_widths"])
        if "mlp_widths" in kwargs:
            kwargs["mlp_widths"] = tuple(kwargs["mlp_widths"])
        if kwargs.get("te_cfg") is not None:
            kwargs["te_cfg"] = EncoderConfig(**kwargs["te_cfg"])
        if kwargs.get("attention") is not None:
            kwargs["attention"] = AttentionSpec(**kwargs["attention"])
        return cls(**kwargs)


def alias(spec: ModelSpec) -> str:
    """Short display name, e.g. catTE+LSTM or BM+LogR."""
    return _MODE_PREFIX[spec.te_mode] + _FAMILY_ALIAS[spec.family]


def model_input_width(spec: ModelSpec, steps: int, per_step_width: int) -> int:
    """The input_dim expected by init/count: per-step width for recurrent
    families, flattened width for the rest. The add_te embedding columns
    go to the hidden states, not into the LSTM, so they do not count."""
    if spec.te_mode == "add_te":
        per_step_width -= spec.te_cfg.dim
    return per_step_width if spec.recurrent else steps * per_step_width


def _dense_layer_names(spec: ModelSpec) -> list[str]:
    if spec.family == "mlp":
        return [f"dense{i}" for i in range(len(spec.mlp_widths))]
    if spec.recurrent:
        return [f"head{i}" for i in range(len(spec.head_widths))]
    return []


def _dense_widths(spec: ModelSpec, input_dim: int) -> list[int]:
    """Widths along the dense chain, from its input to the output layer."""
    if spec.family in ("linreg", "logreg"):
        chain_in = input_dim
        hidden = []
    elif spec.family == "mlp":
        chain_in = input_dim
        hidden = list(spec.mlp_widths)
    elif spec.family == "lstm":
        chain_in = spec.hidden
        hidden = list(spec.head_widths)
    else:
        chain_in = spec.attention.r * spec.hidden
        hidden = list(spec.head_widths)
    return [chain_in] + hidden + [spec.n_out]


def init_params(spec: ModelSpec, input_dim: int, rng_seed) -> dict[str, np.ndarray]:
    """Deterministically initialize all tensors for (spec, input_dim).

    Every tensor is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] with the
    fan-in of its layer; the LSTM forget-gate bias is then set to exactly
    1.0 so early training does not forget everything.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    rng = make_rng(rng_seed)
    params: dict[str, np.ndarray] = {}

    def draw(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    if spec.recurrent:
        h = spec.hidden
        params["lstm.Wx"] = draw((input_dim, 4 * h), input_dim)
        params["lstm.Wh"] = draw((h, 4 * h), h)
        params["lstm.b"] = draw((4 * h,), h)
        params["lstm.b"][h : 2 * h] = 1.0
        if spec.family == "sa_lstm":
            att = spec.attention
            params["attn.Ws1"] = draw((att.d_a, h), h)
            params["attn.Ws2"] = draw((att.r, att.d_a), att.d_a)

    widths = _dense_widths(spec, input_dim)
    names = _dense_layer_names(spec) + ["out"]
    for name, a, b in zip(names, widths[:-1], widths[1:]):
        params[f"{name}.W"] = draw((a, b), a)
        params[f"{name}.b"] = draw((b,), a)
    return params


def count_params(spec: ModelSpec, input_dim: int) -> int:
    """Closed-form parameter count; equals the total ParamSet size.

    ``input_dim`` is the flattened width for linreg/logreg/mlp and the
    per-step width for lstm/sa_lstm.
    """
    total = 0
    if spec.recurrent:
        h = spec.hidden
        total += 4 * (h * (input_dim + h) + h)
        if spec.family == "sa_lstm":
            att = spec.attention
            total += att.d_a * h + att.r * att.d_a
    widths = _dense_widths(spec, input_dim)
    total += sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
    return total


def solve_hidden_for_budget(
    family: str,
    input_dim: int,
    budget: int,
    task: str = "classification",
    head_widths: tuple[int, ...] = (32, 32, 16),
    attention: AttentionSpec | None = None,
) -> int:
    """Largest hidden size whose parameter count fits the budget.

    Only the recurrent families have a hidden size to solve for. Because
    the count grows with input width, TE- or mask-widened inputs yield
    smaller hidden sizes under the same budget.
    """
    if family not in ("lstm", "sa_lstm"):
        raise ValueError(f"only lstm and sa_lstm have a hidden size, got {family!r}")
    if family == "sa_lstm" and attention is None:
        attention = AttentionSpec()

    def count(h: int) -> int:
        spec = ModelSpec(
            family=family, task=task, hidden=h, head_widths=head_widths,
            attention=attention if family == "sa_lstm" else None,
        )
        return count_params(spec, input_dim)

    if count(1) > budget:
        raise ValueError(f"budget {budget} is below the smallest {family} ({count(1)} params)")
    h = 1
    while count(h + 1) <= budget:
        h += 1
    return h


@dataclass
class ForwardTrace:
    """Activations cached by forward for the exact backward pass. The LSTM
    buffers are time-major: ``gates`` holds i, f, g, o side by side as
    (steps, batch, 4h), ``cells``/``tanh_cells`` are (steps, batch, h); ``H``
    is (batch, steps, h)."""

    spec: ModelSpec
    x: np.ndarray
    gates: np.ndarray | None = None
    cells: np.ndarray | None = None
    tanh_cells: np.ndarray | None = None
    H: np.ndarray | None = None
    Hp: np.ndarray | None = None
    U: np.ndarray | None = None
    A: np.ndarray | None = None
    dense_inputs: list[np.ndarray] = field(default_factory=list)
    dense_pre: list[np.ndarray] = field(default_factory=list)
    z_out: np.ndarray | None = None
    logp: np.ndarray | None = None
    probs: np.ndarray | None = None
    yhat: np.ndarray | None = None


def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite activation in layer {layer!r}")


def _lstm_forward(params: dict, x: np.ndarray, trace: ForwardTrace | None) -> np.ndarray:
    B, T, _ = x.shape
    Wx, Wh, b = params["lstm.Wx"], params["lstm.Wh"], params["lstm.b"]
    h_size = Wh.shape[0]
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)), so one tanh per step covers all
    # four gates once the i/f/o columns are halved (exact in binary floats).
    half = np.full(4 * h_size, 0.5)
    half[2 * h_size : 3 * h_size] = 1.0
    offset = 1.0 - half
    Wx_half, b_half, Wh_half = Wx * half, b * half, Wh * half
    # Time-major buffers keep each step's slice contiguous. A trace keeps every
    # step for backward; without one they roll over one gate row, two cell rows
    # and one tanh row. H keeps every step, because attention reads them all.
    keep = trace is not None
    gates = np.empty((T if keep else 1, B, 4 * h_size))
    C = np.empty((T if keep else 2, B, h_size))
    TanhC = np.empty((T if keep else 1, B, h_size))
    H = np.empty((B, T, h_size))
    for t in range(T):
        z, c, tanh_c = gates[t % len(gates)], C[t % len(C)], TanhC[t % len(TanhC)]
        # x[:, t] is a strided view: a time-major copy of x raised the peak RSS
        np.matmul(x[:, t], Wx_half, out=z)
        z += b_half
        if t:
            z += H[:, t - 1] @ Wh_half
        np.tanh(z, out=z)
        z *= half
        z += offset
        np.multiply(z[:, :h_size], z[:, 2 * h_size : 3 * h_size], out=c)
        if t:
            c += z[:, h_size : 2 * h_size] * C[(t - 1) % len(C)]
        np.tanh(c, out=tanh_c)
        np.multiply(z[:, 3 * h_size :], tanh_c, out=H[:, t])
    if keep:
        trace.gates, trace.cells, trace.tanh_cells, trace.H = gates, C, TanhC, H
    _check_finite(H, "lstm")
    return H


def _lstm_backward(params: dict, trace: ForwardTrace, dH: np.ndarray, grads: dict) -> None:
    """Consumes the trace: the gate gradients overwrite its gate buffer, and its
    cell and tanh-cell buffers end up holding f and dc/dh for the recurrence."""
    x, H = trace.x, trace.H
    B, T, width = x.shape
    Wh = params["lstm.Wh"]
    h_size = Wh.shape[0]
    dgates = trace.gates
    I, F, G, O = (dgates[..., k * h_size : (k + 1) * h_size] for k in range(4))
    # Local derivative factors of all steps at once, written over the gates:
    # (1 - s) s for each sigmoid gate s times g, c_prev and tanh(c) for i, f
    # and o, and (1 - g^2) i for g. The loop scales the i, f and g factors by
    # dc and the o factor by dh. Every product keeps its operand order, e.g.
    # ((1 - s) * s) * g: the saved parameters and reports depend on its rounding.
    factor = np.subtract(1.0, I)  # the one temporary, later the previous hidden states
    factor *= I
    factor *= G
    np.square(G, out=G)
    np.subtract(1.0, G, out=G)
    G *= I
    I[...] = factor
    C = trace.cells
    np.subtract(1.0, F, out=factor)
    factor *= F
    factor[0] = 0.0
    factor[1:] *= C[:-1]
    forget = C
    forget[...] = F  # c is spent; the recurrence needs f
    F[...] = factor
    TanhC = trace.tanh_cells
    np.subtract(1.0, O, out=factor)
    factor *= O
    factor *= TanhC
    dc_dh = TanhC
    np.square(TanhC, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    np.multiply(O, dc_dh, out=dc_dh)
    O[...] = factor
    blocks = dgates.reshape(T, B, 4, h_size)
    # dH is (batch, steps, h) when the head reads every step (SA-LSTM). The
    # lstm head reads only the last one and passes its (batch, h) gradient,
    # which seeds the recurrence.
    per_step = dH.ndim == 3
    dh_next = np.zeros((B, h_size)) if per_step else dH
    dc_next = np.zeros((B, h_size))
    for t in range(T - 1, -1, -1):
        dh = dH[:, t] + dh_next if per_step else dh_next
        dc = dh * dc_dh[t]
        dc += dc_next
        blocks[t, :, :3] *= dc[:, None]
        blocks[t, :, 3] *= dh
        dc_next = dc * forget[t]
        dh_next = dgates[t] @ Wh.T
    H_prev = factor
    H_prev[0] = 0.0
    H_prev[1:] = H[:, :-1].transpose(1, 0, 2)
    flat = dgates.reshape(T * B, 4 * h_size)
    grads["lstm.Wx"] = x.transpose(1, 0, 2).reshape(T * B, width).T @ flat
    grads["lstm.Wh"] = H_prev.reshape(T * B, h_size).T @ flat
    grads["lstm.b"] = flat.sum(axis=0)


def _dense_forward(spec: ModelSpec, params: dict, feed: np.ndarray,
                   trace: ForwardTrace | None) -> np.ndarray:
    a = feed
    names = _dense_layer_names(spec) + ["out"]
    for idx, name in enumerate(names):
        z = a @ params[f"{name}.W"] + params[f"{name}.b"]
        if trace is not None:
            trace.dense_inputs.append(a)
            trace.dense_pre.append(z)
        a = z if idx == len(names) - 1 else np.maximum(z, 0.0)
    return a


def _dense_backward(spec: ModelSpec, params: dict, trace: ForwardTrace, dz_out: np.ndarray,
                    grads: dict) -> np.ndarray:
    names = _dense_layer_names(spec) + ["out"]
    dz = dz_out
    for idx in range(len(names) - 1, -1, -1):
        name = names[idx]
        a_in = trace.dense_inputs[idx]
        grads[f"{name}.W"] = a_in.T @ dz
        grads[f"{name}.b"] = dz.sum(axis=0)
        da = dz @ params[f"{name}.W"].T
        if idx > 0:
            dz = da * (trace.dense_pre[idx - 1] > 0)
        else:
            dz = da
    return dz


def _as_batch(features) -> tuple[np.ndarray, bool]:
    """(batch, steps, width) float64 features, and whether the caller passed
    one (steps, width) episode."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3:
        raise ValueError(f"features must be (steps, width) or (batch, steps, width), got {x.shape}")
    return x, single


def _forward(spec: ModelSpec, params: dict, x: np.ndarray,
             trace: ForwardTrace | None) -> np.ndarray:
    """Output of the model for the batch ``x``; fills ``trace`` when given one."""
    _check_finite(x, "input")
    B, T, width = x.shape
    Hp = U = A = logp = None
    if spec.recurrent:
        split = width - (spec.te_cfg.dim if spec.te_mode == "add_te" else 0)
        if trace is not None:
            trace.x = x[..., :split]
        H = _lstm_forward(params, x[..., :split], trace)
        Hp = H if split == width else H + x[..., split:]
        if spec.family == "lstm":
            feed = Hp[:, -1]
        else:
            Ws1, Ws2 = params["attn.Ws1"], params["attn.Ws2"]
            U = np.tanh(Hp @ Ws1.T)
            scores = (U @ Ws2.T).transpose(0, 2, 1)
            _check_finite(scores, "attention")
            scores = scores - scores.max(axis=2, keepdims=True)
            expd = np.exp(scores)
            A = expd / expd.sum(axis=2, keepdims=True)
            feed = (A @ Hp).reshape(B, -1)
    else:
        feed = x.reshape(B, T * width)

    z = _dense_forward(spec, params, feed, trace)
    _check_finite(z, "output")
    if spec.task == "classification":
        shifted = z - z.max(axis=1, keepdims=True)
        logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - logsum
        out = np.exp(logp)
    else:
        out = np.maximum(z[:, 0], 0.0)
    if trace is not None:
        trace.Hp, trace.U, trace.A, trace.z_out, trace.logp = Hp, U, A, z, logp
        if spec.task == "classification":
            trace.probs = out
        else:
            trace.yhat = out
    return out


def forward(spec: ModelSpec, params: dict, features):
    """Run the model; returns (output, trace).

    Output is class probabilities (classification) or a non-negative
    prediction (regression). ``features`` may be (steps, width) for one
    episode or (batch, steps, width). In add_te mode their last
    ``te_cfg.dim`` columns are added to the LSTM hidden states, and the
    LSTM and the trace's ``x`` hold only the columns before them.
    """
    x, single = _as_batch(features)
    trace = ForwardTrace(spec=spec, x=x)
    out = _forward(spec, params, x, trace)
    return (out[0] if single else out), trace


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Set inside fan_out's groups: work they start runs on their own thread.
_IN_FAN_OUT = contextvars.ContextVar("tembed_in_fan_out", default=False)


def fan_out(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on a thread per usable CPU.

    The items are dealt out in contiguous groups, one per CPU: the calling
    thread runs the first group and a pool of threads, started for this
    call, the others. Each group runs in a copy of the caller's context, so
    numpy's error state (np.errstate) carries over, and marked as inside a
    fan-out: a fan_out called from a group runs every item on its own thread,
    so that the CPUs are not oversubscribed. The results come back in item
    order; when items fail, the first one in item order raises, and the other
    groups stop after their current item (so an interrupt does not wait for
    whole groups).
    """
    n = min(1 if _IN_FAN_OUT.get() else _usable_cpus(), len(items))
    groups = [items[len(items) * g // n : len(items) * (g + 1) // n] for g in range(n)]
    failed = threading.Event()

    def run(group: list) -> list:
        _IN_FAN_OUT.set(True)
        return [fn(item) for item in group if not failed.is_set()]

    if n <= 1:
        return contextvars.copy_context().run(run, items)
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, g) for g in groups[1:]]
        try:
            results = contextvars.copy_context().run(run, groups[0])
            for future in futures:
                results += future.result()
        except BaseException:
            failed.set()
            raise
    return results


def row_blocks(n: int) -> list[tuple[int, int]]:
    """The (start, stop) row ranges ``predict`` scores ``n`` rows in: blocks
    of ``_BLOCK`` rows, a lone last row joined to the block before it. A
    block of these bounds is one block again, so scoring it alone rounds as
    scoring it within all ``n`` rows does."""
    # numpy computes a one-row product with BLAS gemv, which can round
    # differently from the gemm of a longer block
    bounds = list(range(0, max(n - 1, 1), _BLOCK)) + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def predict(spec: ModelSpec, params: dict, features, rows=None) -> np.ndarray:
    """``forward``'s output without the trace, on every CPU the process may use.

    With ``rows``, the output for ``features[rows]``, gathered block by block
    instead of copied whole. The rows are cut into ``row_blocks``, which
    ``fan_out`` deals out to the CPUs. No block keeps the LSTM gate and
    cell buffers of every step, and each block checks its own inputs. The
    results are joined in row order; when blocks fail, the first one in row
    order raises.
    """
    x, single = _as_batch(features)

    def run(block: tuple[int, int]) -> np.ndarray:
        a, b = block
        return _forward(spec, params, x[a:b] if rows is None else x[rows[a:b]], None)

    out = np.concatenate(fan_out(run, row_blocks(len(x) if rows is None else len(rows))))
    return out[0] if single else out


def _as_target_array(spec: ModelSpec, target, batch: int) -> np.ndarray:
    t = np.asarray(target, dtype=np.float64).ravel()
    if t.shape[0] != batch:
        raise ValueError(f"{batch} outputs but {t.shape[0]} targets")
    if spec.task == "classification":
        if not np.isin(t, (0.0, 1.0)).all():
            raise ValueError("classification targets must be class indices 0 or 1")
    elif not np.isfinite(t).all():
        raise ValueError("regression targets must be finite")
    return t


def attention_penalty(A: np.ndarray, c: float) -> np.ndarray:
    """Per-example c * ||A A^T - I||_F^2 for A of shape (batch, r, steps)."""
    r = A.shape[1]
    G = A @ A.transpose(0, 2, 1) - np.eye(r)
    return c * (G ** 2).sum(axis=(1, 2))


def loss(spec: ModelSpec, output, target, trace: ForwardTrace) -> float:
    """Mean objective over the batch: cross-entropy or squared error, plus
    the attention diversity penalty for sa_lstm."""
    if trace.spec is not spec and trace.spec != spec:
        raise ValueError("trace was produced by a different model spec")
    B = trace.x.shape[0]
    t = _as_target_array(spec, target, B)
    if spec.task == "classification":
        task_loss = -trace.logp[np.arange(B), t.astype(np.int64)].mean()
    else:
        task_loss = ((trace.yhat - t) ** 2).mean()
    total = float(task_loss)
    if spec.family == "sa_lstm":
        total += float(attention_penalty(trace.A, spec.attention.penalty_c).mean())
    return total


def backward(spec: ModelSpec, params: dict, trace: ForwardTrace, target) -> dict:
    """Exact gradients of the loss with respect to every parameter.

    Consumes the trace: the LSTM families write their gate gradients over
    ``trace.gates``, so a second backward of the same trace is wrong."""
    if trace.spec is not spec and trace.spec != spec:
        raise ValueError("trace was produced by a different model spec")
    B = trace.x.shape[0]
    t = _as_target_array(spec, target, B)
    grads: dict[str, np.ndarray] = {}

    if spec.task == "classification":
        dz = trace.probs.copy()
        dz[np.arange(B), t.astype(np.int64)] -= 1.0
        dz *= 1.0 / B
    else:
        dyhat = 2.0 * (trace.yhat - t) / B
        dz = (dyhat * (trace.z_out[:, 0] > 0))[:, None]

    dfeed = _dense_backward(spec, params, trace, dz, grads)

    if not spec.recurrent:
        return grads

    if spec.family == "lstm":
        dHp = dfeed
    else:
        att = spec.attention
        Hp, U, A = trace.Hp, trace.U, trace.A
        dM = dfeed.reshape(B, att.r, spec.hidden)
        dA = dM @ Hp.transpose(0, 2, 1)
        dHp = A.transpose(0, 2, 1) @ dM
        if att.penalty_c != 0.0:
            G = A @ A.transpose(0, 2, 1) - np.eye(att.r)
            dA += (4.0 * att.penalty_c / B) * (G @ A)
        dS = A * (dA - (dA * A).sum(axis=2, keepdims=True))
        dS_bta = dS.transpose(0, 2, 1)
        grads["attn.Ws2"] = np.einsum("btr,bta->ra", dS_bta, U)
        dU = dS_bta @ params["attn.Ws2"]
        dpre = dU * (1.0 - U ** 2)
        grads["attn.Ws1"] = np.einsum("bta,bth->ah", dpre, Hp)
        dHp += dpre @ params["attn.Ws1"]

    _lstm_backward(params, trace, dHp, grads)
    return grads


def zeros_like_params(params: dict) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def clone_params(params: dict) -> dict:
    return {name: arr.copy() for name, arr in params.items()}


def save_params(path: str, params: dict, spec: ModelSpec | None = None) -> None:
    """Serialize named tensors plus a JSON shape manifest; bit-exact round-trip."""
    import io

    meta = {
        "format_version": PARAMS_FORMAT_VERSION,
        "tensors": {name: list(arr.shape) for name, arr in sorted(params.items())},
    }
    if spec is not None:
        meta["model_spec"] = spec.to_dict()
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta, sort_keys=True)), **params)
    atomic_write_bytes(path, buf.getvalue())


def load_params(path: str) -> tuple[dict, dict]:
    """Inverse of save_params; validates shapes against the manifest."""
    with np.load(path) as data:
        meta = json.loads(str(data["__meta__"][()]))
        if meta.get("format_version") != PARAMS_FORMAT_VERSION:
            raise ValueError(f"unsupported params container version {meta.get('format_version')!r}")
        params = {name: data[name] for name in data.files if name != "__meta__"}
    for name, shape in meta["tensors"].items():
        if name not in params:
            raise ValueError(f"container missing tensor {name!r} declared in manifest")
        if list(params[name].shape) != shape:
            raise ValueError(f"tensor {name!r} has shape {params[name].shape}, manifest says {shape}")
    extra = set(params) - set(meta["tensors"])
    if extra:
        raise ValueError(f"container has undeclared tensors: {sorted(extra)}")
    return params, meta

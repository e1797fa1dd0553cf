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
* ``add_te``: the same embedding columns as ``cat_te``, the last
  ``te_cfg.dim`` input columns; ``forward`` splits them off and adds them to
  the LSTM hidden states before pooling, which requires the embedding
  dimension to equal the hidden size.

Classification heads end in a 2-way softmax, regression heads in a single
linear unit clamped at zero, whose bias ``training.train_one`` starts at the
mean training label. The self-attentive pooling computes
A = rowsoftmax(Ws2 . tanh(Ws1 . H^T)) and penalizes the loss with
c * ||A A^T - I||_F^2 so the r attention rows stay diverse.

``forward`` takes a batch (batch x steps x features). ``loss(trace, target)``
checks the targets once, leaves them on the trace and averages over the
batch; ``backward(params, trace)`` takes them off and gives that loss's exact
reverse-mode derivatives, verified against central finite differences in the
test suite. It consumes the trace: the LSTM gate gradients overwrite its gate
buffer. ``predict`` returns what ``forward`` returns without its trace: it
runs blocks of rows in the calling process, and without a trace the LSTM
keeps one step of its gate and cell buffers instead of every step.
``fan_out`` runs a list of items, training jobs or sweep blocks, on a forked
``multiprocessing`` process per usable CPU, and reads the replies in item order.
Parameters live in plain dicts of named float64 arrays; all functions
here treat them as immutable.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import atomic_write_npz, check_int, check_object, check_real, from_object, make_rng, read_npz, to_object
from .encoding import EncoderConfig
from .encoding import te_batch  # noqa: F401  (perfbench/spans.py TARGETS wraps this name)

TASKS = ("classification", "regression")

_FAMILY_ALIAS = {"linreg": "LinR", "logreg": "LogR", "mlp": "MLP", "lstm": "LSTM", "sa_lstm": "SA-LSTM"}
FAMILIES = tuple(_FAMILY_ALIAS)
_MODE_PREFIX = {"none": "", "mask": "BM+", "cat_te": "catTE+", "add_te": "addTE+"}
TE_MODES = tuple(_MODE_PREFIX)
# the input regimes that embed times, and so take an encoder config (te_cfg)
_ENCODED_MODES = ("cat_te", "add_te")

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


def check_task(name: str, value) -> str:
    """``value``, once it is one of ``TASKS``."""
    if value not in TASKS:
        raise ValueError(f"{name} must be {' or '.join(map(repr, TASKS))}, got {value!r}")
    return value


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
        check_task("task", self.task)
        if self.te_mode not in TE_MODES:
            raise ValueError(f"te_mode must be one of {TE_MODES}, got {self.te_mode!r}")
        check_int("hidden", self.hidden, 1 if self.recurrent else 0)
        for name in ("head_widths", "mlp_widths"):  # a JSON list becomes the tuple the field holds
            widths = getattr(self, name)
            if not isinstance(widths, (list, tuple)):
                raise ValueError(f"{name} must be a list of layer widths, got {widths!r}")
            object.__setattr__(self, name, tuple(check_int("layer width", width, 1) for width in widths))
        if not self.recurrent and self.hidden != 0:
            raise ValueError(f"{self.family} has no hidden state; leave hidden at 0")
        if (self.attention is not None) != (self.family == "sa_lstm"):
            raise ValueError("attention settings are required for sa_lstm and only for sa_lstm")
        encoded = self.te_mode in _ENCODED_MODES
        if encoded != (self.te_cfg is not None):
            raise ValueError(f"te_mode {self.te_mode!r} {'needs a' if encoded else 'takes no'} te_cfg")
        if encoded and self.te_cfg.base_kind != "temporal":
            raise ValueError(f"te_cfg must be a temporal encoder, got base_kind {self.te_cfg.base_kind!r}")
        if self.te_mode == "add_te":
            if not self.recurrent:
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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        check_object("model spec", d)
        nested = {key: from_object(sub, f"model spec.{key}", d[key])
                  for key, sub in (("te_cfg", EncoderConfig), ("attention", AttentionSpec))
                  if d.get(key) is not None}
        return from_object(cls, "model spec", {**d, **nested})


def alias(spec: ModelSpec) -> str:
    """Short display name, e.g. catTE+LSTM or BM+LogR."""
    return _MODE_PREFIX[spec.te_mode] + _FAMILY_ALIAS[spec.family]


def _added_width(spec: ModelSpec) -> int:
    """The width of the last input columns, add_te's embedding, that go to the
    hidden states instead of into the LSTM; 0 in every other regime."""
    return spec.te_cfg.dim if spec.te_mode == "add_te" else 0


def model_input_width(spec: ModelSpec, steps: int, per_step_width: int) -> int:
    """The input_dim expected by init/count: per-step width for recurrent
    families, flattened width for the rest, add_te's embedding columns left out."""
    per_step_width -= _added_width(spec)
    return per_step_width if spec.recurrent else steps * per_step_width


def _dense_chain(spec: ModelSpec) -> tuple[list[str], tuple[int, ...]]:
    """The names of the dense layers, ``out`` last, and the widths of the layers
    before it: the MLP's, the recurrent families' head, none for linreg/logreg."""
    widths = spec.mlp_widths if spec.family == "mlp" else spec.head_widths if spec.recurrent else ()
    prefix = "dense" if spec.family == "mlp" else "head"
    return [f"{prefix}{i}" for i in range(len(widths))] + ["out"], widths


def _layout(spec: ModelSpec, input_dim: int) -> list[tuple[str, tuple[int, ...], int]]:
    """Every tensor of the model for ``input_dim`` as (name, shape, fan-in), in the
    order ``init_params`` draws them: the LSTM, the attention, then the dense chain
    from its input (the features, the last hidden state or the r pooled ones) to the
    output layer, whose layers take their input width as fan-in."""
    h, chain_in, tensors = spec.hidden, input_dim, []
    if spec.recurrent:
        tensors += [("lstm.Wx", (input_dim, 4 * h), input_dim), ("lstm.Wh", (h, 4 * h), h),
                    ("lstm.b", (4 * h,), h)]
        chain_in = h
    if spec.family == "sa_lstm":
        att = spec.attention
        tensors += [("attn.Ws1", (att.d_a, h), h), ("attn.Ws2", (att.r, att.d_a), att.d_a)]
        chain_in = att.r * h
    names, hidden = _dense_chain(spec)
    widths = [chain_in, *hidden, spec.n_out]
    for name, a, b in zip(names, widths[:-1], widths[1:]):
        tensors += [(f"{name}.W", (a, b), a), (f"{name}.b", (b,), a)]
    return tensors


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
    for name, shape, fan_in in _layout(spec, input_dim):
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    if spec.recurrent:
        params["lstm.b"][spec.hidden : 2 * spec.hidden] = 1.0
    return params


def count_params(spec: ModelSpec, input_dim: int) -> int:
    """Parameter count; equals the total ParamSet size.

    ``input_dim`` is the flattened width for linreg/logreg/mlp and the
    per-step width for lstm/sa_lstm.
    """
    return sum(math.prod(shape) for _, shape, _ in _layout(spec, input_dim))


def solve_hidden_for_budget(spec: ModelSpec, input_dim: int, budget: int) -> int:
    """Largest hidden size ``h`` for which ``spec`` with hidden ``h`` has at most
    ``budget`` parameters at ``input_dim``; every other part of the spec (head,
    task, attention, input regime) counts as it is.

    Only the recurrent families have a hidden size, and add_te fixes it to the
    embedding dimension. Because the count grows with input width, TE- or
    mask-widened inputs yield smaller hidden sizes under the same budget.
    """
    if not spec.recurrent or spec.te_mode == "add_te":
        fixed = "has no hidden size" if not spec.recurrent else "has its hidden size fixed to te_cfg.dim"
        raise ValueError(f"{alias(spec)} {fixed}; there is none to solve for")

    def count(h: int) -> int:
        return count_params(replace(spec, hidden=h), input_dim)

    if count(1) > budget:
        raise ValueError(f"budget {budget} is below the smallest {alias(spec)} ({count(1)} params)")
    h = 1
    while count(h + 1) <= budget:
        h += 1
    return h


@dataclass
class ForwardTrace:
    """Activations cached by forward for the exact backward pass. The LSTM
    buffers are time-major: ``gates`` holds i, f, g, o side by side as
    (steps, batch, 4h), ``cells``/``tanh_cells`` are (steps, batch, h); ``H``
    is (batch, steps, h). ``out`` is the output ``forward`` returns, ``target``
    the checked targets ``loss`` leaves for ``backward``."""

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
    logp: np.ndarray | None = None
    out: np.ndarray | None = None
    target: np.ndarray | None = None


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
    names = _dense_chain(spec)[0]
    for idx, name in enumerate(names):
        z = a @ params[f"{name}.W"] + params[f"{name}.b"]
        if trace is not None:
            trace.dense_inputs.append(a)
            trace.dense_pre.append(z)
        a = z if idx == len(names) - 1 else np.maximum(z, 0.0)
    return a


def _dense_backward(spec: ModelSpec, params: dict, trace: ForwardTrace, dz_out: np.ndarray,
                    grads: dict) -> np.ndarray:
    names = _dense_chain(spec)[0]
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


def _as_batch(features) -> np.ndarray:
    """(batch, steps, width) float64 features."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"features must be (batch, steps, width), got {x.shape}")
    return x


def _forward(spec: ModelSpec, params: dict, x: np.ndarray,
             trace: ForwardTrace | None) -> np.ndarray:
    """Output of the model for the batch ``x``; fills ``trace`` when given one."""
    _check_finite(x, "input")
    B, T, width = x.shape
    Hp = U = A = logp = None
    if spec.recurrent:
        split = width - _added_width(spec)
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
        trace.Hp, trace.U, trace.A, trace.logp, trace.out = Hp, U, A, logp, out
    return out


def forward(spec: ModelSpec, params: dict, features):
    """Run the model; returns (output, trace).

    Output is class probabilities (classification) or a non-negative
    prediction (regression). ``features`` are (batch, steps, width). In
    add_te mode their last ``te_cfg.dim`` columns are added to the LSTM
    hidden states, and the LSTM and the trace's ``x`` hold only the columns
    before them.
    """
    x = _as_batch(features)
    trace = ForwardTrace(spec=spec, x=x)
    return _forward(spec, params, x, trace), trace


def _usable_cpus() -> int:
    """Groups ``fan_out`` deals items out to: one per CPU this process may
    run on, where its workers can fork: on Linux, from a process that runs
    one thread. Elsewhere one.

    A second thread is most often the BLAS pool numpy starts when it loads
    before ``tembed`` (which sets the BLAS thread variables to 1 where unset)
    or when the user sets OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS,
    MKL_NUM_THREADS) above 1. Each worker forked from such a process starts
    a pool of its own, and on 2 vCPUs the pools fought: a quickstart
    ``train`` took 4.8-18 s on forked workers against about 3 s serially."""
    if not sys.platform.startswith("linux") or len(os.listdir("/proc/self/task")) > 1:
        return 1
    return len(os.sched_getaffinity(0))


def fan_out(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on a process per usable CPU.

    The items are dealt out in contiguous groups, one per CPU but no more
    than there are items; ``_usable_cpus`` allows one group only, unless
    the process runs on Linux with one thread, as it does when ``tembed``
    loads before numpy. The caller runs the first group; each other group
    runs in a fork-context ``multiprocessing.Process`` started for this call,
    which inherits the inputs and numpy's error state (np.errstate)
    copy-on-write and sends back its results, or its first failure, through
    a ``Pipe``. The caller flushes stdout and stderr before each fork; a
    worker's stdin is /dev/null. With one group the items run in place.

    The results come back in item order: the caller runs its group, then
    waits for each worker's reply in item order. When items fail, the first
    one in item order raises: a failure stops its group, and the caller
    raises it once it has heard from every group before it, as one of them
    may fail first; the groups after it, whose replies were not read, are
    killed then. An exception the worker cannot pickle, and a worker that
    ends without a reply, raise ``ChildProcessError`` naming the worker's
    items. Every worker is reaped before fan_out returns or raises.
    """
    n = max(min(_usable_cpus(), len(items)), 1)
    bounds = [len(items) * g // n for g in range(n + 1)]
    workers: list[_Worker] = []
    try:
        for a, b in zip(bounds[1:-1], bounds[2:]):
            workers.append(_Worker(fn, items[a:b], f"items {a}-{b - 1}"))
        results = [fn(item) for item in items[: bounds[1]]]
        for worker in workers:
            results += worker.receive()
        return results
    finally:
        for worker in workers:
            worker.close()


class _Worker:
    """A forked ``multiprocessing`` process that runs one contiguous group of
    ``fan_out``'s items and replies through a one-way pipe: (True, results)
    or (False, first failure). It is no daemon, as an item may fan out too."""

    def __init__(self, fn, group: list, name: str):
        context = multiprocessing.get_context("fork")  # here, not at import: Windows has no fork
        self.name, self.replied = name, False
        self.conn, send = context.Pipe(duplex=False)
        self.process = context.Process(target=_serve, args=(fn, group, send, name))
        opened = _open_fds()
        try:
            self.process.start()
        except OSError:  # no process to run the group; the launcher leaves its own pipes open
            self.conn.close()
            for fd in _open_fds() - opened:
                os.close(int(fd))
            raise
        finally:
            send.close()

    def receive(self) -> list:
        """Wait for the reply and reap the worker; returns its results or
        raises its failure."""
        try:
            ok, reply = self.conn.recv()
        except Exception as exc:  # no reply, a cut one, or one that does not unpickle here
            self.process.join()
            code = self.process.exitcode
            ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            ok, reply = False, ChildProcessError(
                f"fan_out's worker for {self.name} sent no readable reply ({ended}; {exc!r})")
        self.replied = True
        self.close()
        if not ok:
            raise reply
        return reply

    def close(self) -> None:
        """Reap the worker, killed first unless its reply was read, and close
        its pipe; closing it again does nothing."""
        if self.process is None:
            return
        if not self.replied:
            self.process.kill()
        self.process.join()
        self.process.close()  # join leaves the launcher's sentinel pipe open
        self.process = None
        self.conn.close()


def _open_fds() -> set[str]:
    """This process's open file descriptors, less the listing's own."""
    return {fd for fd in os.listdir("/proc/self/fd") if os.path.exists(f"/proc/self/fd/{fd}")}


def _serve(fn, group: list, send, name: str) -> None:
    """A worker's whole life: run the group and send the reply; the fork
    launcher then leaves with ``os._exit``, so no cleanup of the caller's runs twice."""
    try:
        reply = True, [fn(item) for item in group]
    except BaseException as exc:  # the caller raises it
        reply = False, exc
    try:
        send.send(reply)
    except Exception as exc:  # pickling fails before anything is written
        what = "results" if reply[0] else f"{type(reply[1]).__name__}: {reply[1]}"
        send.send((False, ChildProcessError(f"fan_out's worker for {name} cannot send its {what} ({exc})")))


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
    """``forward``'s output without the trace, block by block.

    With ``rows``, the output for ``features[rows]``, gathered block by block
    instead of copied whole. The rows are cut into ``row_blocks``, which
    run one after another in the calling process: a block of 128 rows is
    too little work to pay for a fork. No block keeps the LSTM gate and
    cell buffers of every step, and each block checks its own inputs. The
    results are joined in row order; the first failing block raises.
    """
    x = _as_batch(features)
    return np.concatenate([_forward(spec, params, x[a:b] if rows is None else x[rows[a:b]], None)
                           for a, b in row_blocks(len(x) if rows is None else len(rows))])


def attention_penalty(A: np.ndarray, c: float) -> np.ndarray:
    """Per-example c * ||A A^T - I||_F^2 for A of shape (batch, r, steps)."""
    r = A.shape[1]
    G = A @ A.transpose(0, 2, 1) - np.eye(r)
    return c * (G ** 2).sum(axis=(1, 2))


def loss(trace: ForwardTrace, target) -> float:
    """Mean objective over the batch (cross-entropy or squared error, plus
    sa_lstm's attention penalty); keeps the checked targets for ``backward``."""
    spec, batch = trace.spec, trace.x.shape[0]
    t = np.asarray(target, dtype=np.float64).ravel()
    if t.shape[0] != batch:
        raise ValueError(f"{batch} outputs but {t.shape[0]} targets")
    if spec.task == "classification":
        if not np.isin(t, (0.0, 1.0)).all():
            raise ValueError("classification targets must be class indices 0 or 1")
        task_loss = -trace.logp[np.arange(len(t)), t.astype(np.int64)].mean()
    else:
        if not np.isfinite(t).all():
            raise ValueError("regression targets must be finite")
        task_loss = ((trace.out - t) ** 2).mean()
    trace.target = t
    total = float(task_loss)
    if spec.family == "sa_lstm":
        total += float(attention_penalty(trace.A, spec.attention.penalty_c).mean())
    return total


def backward(params: dict, trace: ForwardTrace) -> dict:
    """Exact gradients of the loss taken on ``trace`` for every parameter.

    Consumes the trace: it takes the targets off, and the LSTM families write
    their gate gradients over ``trace.gates``; with no loss taken, it raises."""
    spec, t = trace.spec, trace.target
    if t is None:
        raise ValueError("backward needs a loss taken on the trace since its last backward")
    trace.target = None
    B = len(t)
    grads: dict[str, np.ndarray] = {}

    if spec.task == "classification":
        dz = trace.out.copy()
        dz[np.arange(B), t.astype(np.int64)] -= 1.0
        dz *= 1.0 / B
    else:
        dyhat = 2.0 * (trace.out - t) / B
        dz = (dyhat * (trace.out > 0))[:, None]

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


def save_params(path: str, params: dict, spec: ModelSpec) -> None:
    """Serialize named tensors plus a JSON shape manifest; bit-exact round-trip."""
    meta = {
        "format_version": PARAMS_FORMAT_VERSION,
        "tensors": {name: list(arr.shape) for name, arr in sorted(params.items())},
        "model_spec": to_object(spec),
    }
    atomic_write_npz(path, meta, params)


def load_params(path: str) -> tuple[dict, dict]:
    """Inverse of save_params; validates shapes against the manifest."""
    meta, params = read_npz(path, "params", PARAMS_FORMAT_VERSION)
    tensors = meta.get("tensors")
    if not isinstance(tensors, dict):
        raise ValueError("manifest lists no tensors")
    for name, shape in tensors.items():
        if name not in params:
            raise ValueError(f"container missing tensor {name!r} declared in manifest")
        if list(params[name].shape) != shape:
            raise ValueError(f"tensor {name!r} has shape {params[name].shape}, manifest says {shape}")
    extra = set(params) - set(tensors)
    if extra:
        raise ValueError(f"container has undeclared tensors: {sorted(extra)}")
    return params, meta

"""Model specs, initialization, counting, forward/backward, persistence."""

import dataclasses
import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import record, records
from tembed import models
from tembed._util import to_object
from tembed.encoding import EncoderConfig, te_batch
from tembed.models import (
    _BLOCK,
    AttentionSpec,
    ModelSpec,
    NumericError,
    alias,
    attention_penalty,
    backward,
    count_params,
    forward,
    init_params,
    load_params,
    loss,
    model_input_width,
    predict,
    save_params,
    solve_hidden_for_budget,
    zeros_like_params,
)

TE8 = EncoderConfig.temporal(8, 48.0)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_stdout(code: str, **env) -> str:
    """The stripped stdout of ``python -c code`` on the package under test, wherever
    pytest found it. The child sees none of the BLAS thread variables but those in
    ``env``: this process holds them, set by conftest's import of tembed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    inherited = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    inherited["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**inherited, **env})
    return out.stdout.strip()


def spec_of(family, task="classification", **kw):
    if family in ("lstm", "sa_lstm"):
        kw.setdefault("hidden", 8)
    if family == "sa_lstm":
        kw.setdefault("attention", AttentionSpec(d_a=6, r=3))
    return ModelSpec(family=family, task=task, **kw)


class TestModelSpec:
    def test_aliases(self):
        assert alias(spec_of("lstm", te_mode="cat_te", te_cfg=TE8)) == "catTE+LSTM"
        assert alias(spec_of("logreg", te_mode="mask")) == "BM+LogR"
        assert alias(spec_of("sa_lstm")) == "SA-LSTM"
        assert alias(spec_of("sa_lstm", te_mode="add_te", te_cfg=TE8)) == "addTE+SA-LSTM"
        assert alias(spec_of("linreg", task="regression")) == "LinR"
        assert alias(spec_of("mlp")) == "MLP"

    def test_recurrent_families_need_hidden(self):
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec(family="lstm", task="classification")

    def test_flat_families_refuse_hidden(self):
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec(family="mlp", task="classification", hidden=4)

    def test_attention_exactly_for_sa_lstm(self):
        with pytest.raises(ValueError, match="attention"):
            ModelSpec(family="sa_lstm", task="classification", hidden=4)
        with pytest.raises(ValueError, match="attention"):
            ModelSpec(family="lstm", task="classification", hidden=4, attention=AttentionSpec())

    def test_te_cfg_pairs_with_te_modes(self):
        with pytest.raises(ValueError, match="te_cfg"):
            spec_of("lstm", te_mode="cat_te")
        with pytest.raises(ValueError, match="te_cfg"):
            spec_of("lstm", te_mode="none", te_cfg=TE8)

    @pytest.mark.parametrize("mode", ["cat_te", "add_te"])
    def test_te_cfg_must_be_temporal(self, mode):
        # te_batch embeds hours since an observation, which needs a temporal base
        with pytest.raises(ValueError, match="^te_cfg must be a temporal encoder, got base_kind 'positional'$"):
            spec_of("lstm", te_mode=mode, te_cfg=EncoderConfig.positional(8))

    def test_add_te_needs_recurrent_and_matching_dim(self):
        with pytest.raises(ValueError, match="add_te"):
            spec_of("mlp", te_mode="add_te", te_cfg=TE8)
        with pytest.raises(ValueError, match="hidden"):
            spec_of("lstm", hidden=4, te_mode="add_te", te_cfg=TE8)
        spec = spec_of("lstm", hidden=8, te_mode="add_te", te_cfg=TE8)
        assert spec.te_cfg.dim == spec.hidden

    def test_n_out_by_task(self):
        assert spec_of("logreg").n_out == 2
        assert spec_of("linreg", task="regression").n_out == 1

    def test_dict_round_trip(self):
        for spec in (
            spec_of("sa_lstm", te_mode="add_te", te_cfg=TE8, hidden=8),
            spec_of("mlp", task="regression"),
            spec_of("lstm", te_mode="cat_te", te_cfg=TE8),
        ):
            assert ModelSpec.from_dict(to_object(spec)) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelSpec.from_dict({"family": "mlp", "task": "classification", "depth": 3})

    def test_input_width_flattens_only_for_flat_families(self):
        assert model_input_width(spec_of("mlp"), steps=48, per_step_width=5) == 240
        assert model_input_width(spec_of("lstm"), steps=48, per_step_width=5) == 5


class TestInitAndCount:
    def test_deterministic_under_seed(self):
        spec = spec_of("sa_lstm")
        a = init_params(spec, 7, rng_seed=3)
        b = init_params(spec, 7, rng_seed=3)
        assert set(a) == set(b)
        for name in a:
            npt.assert_array_equal(a[name], b[name])
        c = init_params(spec, 7, rng_seed=4)
        assert any(not np.array_equal(a[n], c[n]) for n in a)

    def test_forget_gate_bias_is_exactly_one(self):
        spec = spec_of("lstm", hidden=5)
        params = init_params(spec, 3, rng_seed=0)
        npt.assert_array_equal(params["lstm.b"][5:10], np.ones(5))

    def test_uniform_bounds_scale_with_fan_in(self):
        spec = spec_of("lstm", hidden=8)
        params = init_params(spec, 16, rng_seed=1)
        assert np.abs(params["lstm.Wx"]).max() <= 1.0 / 4.0  # fan_in 16
        assert np.abs(params["lstm.Wh"]).max() <= 1.0 / math.sqrt(8)
        assert np.abs(params["out.W"]).max() <= 1.0 / 4.0  # head input 16

    def test_tensor_names_per_family(self):
        assert set(init_params(spec_of("linreg", task="regression"), 4, 0)) == {"out.W", "out.b"}
        assert set(init_params(spec_of("mlp", mlp_widths=(4, 3)), 4, 0)) == {
            "dense0.W", "dense0.b", "dense1.W", "dense1.b", "out.W", "out.b",
        }
        lstm_names = set(init_params(spec_of("lstm", head_widths=(4,)), 4, 0))
        assert lstm_names == {"lstm.Wx", "lstm.Wh", "lstm.b", "head0.W", "head0.b", "out.W", "out.b"}
        assert {"attn.Ws1", "attn.Ws2"} <= set(init_params(spec_of("sa_lstm"), 4, 0))

    def test_rejects_degenerate_width(self):
        with pytest.raises(ValueError):
            init_params(spec_of("mlp"), 0, rng_seed=0)

    @pytest.mark.parametrize(
        "spec",
        [
            spec_of("linreg", task="regression"),
            spec_of("logreg"),
            spec_of("mlp", task="regression"),
            spec_of("lstm", te_mode="cat_te", te_cfg=TE8),
            spec_of("sa_lstm", task="regression"),
        ],
    )
    def test_closed_form_count_matches_actual_tensors(self, spec):
        width = 11
        params = init_params(spec, width, rng_seed=0)
        total = sum(p.size for p in params.values())
        assert count_params(spec, width) == total

    def test_lstm_gate_block_formula(self):
        # 4 gates, each h x (input + h) weights plus h biases
        spec = spec_of("lstm", hidden=3, head_widths=(2,))
        got = count_params(spec, 5)
        lstm = 4 * (3 * (5 + 3) + 3)
        head = (3 * 2 + 2) + (2 * 2 + 2)
        assert got == lstm + head

    def test_attention_and_mlp_formulas(self):
        # sa_lstm: the LSTM, Ws1 (d_a x h) and Ws2 (r x d_a), then a head fed r * h pooled values
        spec = spec_of("sa_lstm", hidden=3, head_widths=(2,), attention=AttentionSpec(d_a=4, r=2))
        lstm = 4 * (3 * (5 + 3) + 3)
        attention = 4 * 3 + 2 * 4
        head = (2 * 3 * 2 + 2) + (2 * 2 + 2)
        assert count_params(spec, 5) == lstm + attention + head
        mlp = spec_of("mlp", task="regression", mlp_widths=(4, 3))
        assert count_params(mlp, 6) == (6 * 4 + 4) + (4 * 3 + 3) + (3 * 1 + 1)


class TestBudgetSolver:
    def test_result_is_maximal_under_budget(self):
        h = solve_hidden_for_budget(spec_of("lstm"), input_dim=18, budget=15500)
        below = count_params(spec_of("lstm", hidden=h), 18)
        above = count_params(spec_of("lstm", hidden=h + 1), 18)
        assert below <= 15500 < above

    def test_wider_inputs_get_smaller_hidden(self):
        budget = 15500
        hs = [solve_hidden_for_budget(spec_of("lstm"), input_dim=w, budget=budget) for w in (18, 50, 54)]
        assert hs[0] > hs[1] > hs[2]

    def test_sa_lstm_budget_includes_attention(self):
        h_plain = solve_hidden_for_budget(spec_of("lstm"), input_dim=18, budget=15500)
        h_attn = solve_hidden_for_budget(
            spec_of("sa_lstm", attention=AttentionSpec(d_a=32, r=8)), input_dim=18, budget=15500
        )
        assert h_attn < h_plain

    @pytest.mark.parametrize("spec", [
        spec_of("lstm", head_widths=(48, 8)),
        spec_of("lstm", task="regression"),
        spec_of("sa_lstm", attention=AttentionSpec(d_a=12, r=5), te_mode="cat_te", te_cfg=TE8),
    ], ids=["head-widths", "regression", "sa-lstm-attention"])
    def test_every_part_of_the_spec_counts(self, spec):
        budget = 9000
        h = solve_hidden_for_budget(spec, input_dim=26, budget=budget)
        below = count_params(dataclasses.replace(spec, hidden=h), 26)
        above = count_params(dataclasses.replace(spec, hidden=h + 1), 26)
        assert below <= budget < above

    def test_rejects_flat_families_and_tiny_budgets(self):
        with pytest.raises(ValueError, match=r"^BM\+MLP has no hidden size; there is none to solve for$"):
            solve_hidden_for_budget(spec_of("mlp", te_mode="mask"), input_dim=10, budget=10_000)
        with pytest.raises(ValueError, match=r"^budget 10 is below the smallest LSTM \(5690 params\)$"):
            solve_hidden_for_budget(spec_of("lstm"), input_dim=1000, budget=10)

    def test_rejects_add_te_whose_hidden_size_is_the_embedding_dimension(self):
        with pytest.raises(ValueError, match=r"^addTE\+SA-LSTM has its hidden size fixed to te_cfg.dim; "):
            solve_hidden_for_budget(spec_of("sa_lstm", te_mode="add_te", te_cfg=TE8), input_dim=10, budget=10_000)


class TestForward:
    def test_linreg_is_clamped_linear_map(self):
        spec = spec_of("linreg", task="regression")
        params = init_params(spec, model_input_width(spec, 2, 6), rng_seed=0)
        x = np.arange(12.0).reshape(1, 2, 6) / 10.0
        out, _ = forward(spec, params, x)
        want = max(float((x.reshape(1, 12) @ params["out.W"] + params["out.b"])[0, 0]), 0.0)
        assert math.isclose(float(out[0]), want, rel_tol=0, abs_tol=1e-12)

    def test_classification_outputs_are_probabilities(self):
        spec = spec_of("logreg")
        params = init_params(spec, 8, rng_seed=1)
        x = np.random.default_rng(0).normal(size=(5, 2, 4))
        out, trace = forward(spec, params, x)
        assert out.shape == (5, 2)
        npt.assert_allclose(out.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)
        assert (out > 0).all()
        npt.assert_allclose(np.exp(trace.logp), out, rtol=0, atol=1e-15)

    def test_regression_outputs_are_nonnegative(self):
        spec = spec_of("lstm", task="regression", hidden=4)
        params = init_params(spec, 3, rng_seed=2)
        x = np.random.default_rng(1).normal(size=(20, 6, 3))
        out, _ = forward(spec, params, x)
        assert out.shape == (20,)
        assert (out >= 0).all()

    def test_batch_rows_independent(self):
        spec = spec_of("sa_lstm")
        params = init_params(spec, 5, rng_seed=3)
        x = np.random.default_rng(3).normal(size=(4, 7, 5))
        out_all, _ = forward(spec, params, x)
        out_one, _ = forward(spec, params, x[2:3])
        npt.assert_allclose(out_one[0], out_all[2], rtol=0, atol=1e-12)

    def test_add_te_shifts_hidden_states(self):
        cfg = EncoderConfig.temporal(4, 48.0)
        base = spec_of("lstm", hidden=4)
        added = spec_of("lstm", hidden=4, te_mode="add_te", te_cfg=cfg)
        params = init_params(base, 3, rng_seed=4)
        x = np.random.default_rng(4).normal(size=(2, 5, 3))
        grid_te = te_batch(np.arange(5.0), cfg)
        out_base, trace_base = forward(base, params, x)
        out_added, trace_added = forward(added, params, with_grid_te(added, x))
        npt.assert_allclose(trace_added.Hp, trace_base.H + grid_te[None], rtol=0, atol=1e-12)
        # the LSTM and its trace see the inputs without the embedding columns
        npt.assert_array_equal(trace_added.x, x)
        npt.assert_array_equal(trace_added.H, trace_base.H)
        assert not np.allclose(out_base, out_added)

    def test_add_te_requires_matching_grid(self):
        # the embedding columns ride after the inputs; features without them
        # do not fit the LSTM weights
        spec = spec_of("lstm", hidden=4, te_mode="add_te", te_cfg=EncoderConfig.temporal(4, 48.0))
        assert model_input_width(spec, 5, 3 + 4) == 3
        params = init_params(spec, 3, rng_seed=0)
        x = np.zeros((1, 5, 3))
        with pytest.raises(ValueError):
            forward(spec, params, x)
        forward(spec, params, with_grid_te(spec, x))

    def test_attention_rows_are_distributions(self):
        spec = spec_of("sa_lstm")
        params = init_params(spec, 5, rng_seed=5)
        x = np.random.default_rng(5).normal(size=(3, 6, 5))
        _, trace = forward(spec, params, x)
        assert trace.A.shape == (3, 3, 6)
        npt.assert_allclose(trace.A.sum(axis=2), np.ones((3, 3)), rtol=0, atol=1e-12)

    def test_nonfinite_input_rejected(self):
        spec = spec_of("logreg")
        params = init_params(spec, 4, rng_seed=0)
        bad = np.full((1, 2, 2), np.nan)
        with pytest.raises(NumericError, match="input"):
            forward(spec, params, bad)

    def test_overflowing_params_raise_named_numeric_error(self):
        spec = spec_of("linreg", task="regression")
        params = init_params(spec, 4, rng_seed=0)
        params["out.W"] = params["out.W"] * np.inf
        with pytest.raises(NumericError, match="output"):
            forward(spec, params, np.ones((1, 2, 2)))


# every valid (family, te_mode) pair and the tasks each family serves
PREDICT_CASES = [
    (family, mode)
    for family in models.FAMILIES
    for mode in models.TE_MODES
    if mode != "add_te" or family in ("lstm", "sa_lstm")
]
TASKS_OF = {"linreg": ("regression",), "logreg": ("classification",)}


def with_grid_te(spec, x):
    """``x`` with add_te's embedding columns appended, here of the grid times
    0, 1, 2, ... (``forward`` adds whatever those columns hold); else ``x``."""
    if spec.te_mode != "add_te":
        return x
    grid_te = te_batch(np.arange(float(x.shape[-2])), spec.te_cfg)
    return np.concatenate([x, np.broadcast_to(grid_te, x.shape[:-1] + grid_te.shape[1:])], axis=-1)


def predict_fixture(family, mode, task, steps=6, width=5):
    """Spec and params for ``width`` inputs per step (add_te's columns not counted)."""
    te_cfg = TE8 if mode in ("cat_te", "add_te") else None
    spec = spec_of(family, task=task, te_mode=mode, te_cfg=te_cfg)
    x_width = width + (TE8.dim if mode == "add_te" else 0)
    params = init_params(spec, model_input_width(spec, steps, x_width), rng_seed=[steps, width])
    return spec, params


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def wait_for(condition, timeout=10.0):
    """Poll ``condition`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestPredict:
    @pytest.mark.parametrize("batch", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("family,mode", PREDICT_CASES)
    def test_bit_equal_to_forward(self, family, mode, batch):
        for task in TASKS_OF.get(family, models.TASKS):
            spec, params = predict_fixture(family, mode, task)
            x = with_grid_te(spec, np.random.default_rng(batch).normal(size=(batch, 6, 5)))
            want, _ = forward(spec, params, x)
            assert same_bits(predict(spec, params, x), want), task

    def test_errors_match_forward(self):
        spec, params = predict_fixture("lstm", "add_te", "classification")
        x = np.zeros((3, 6, 5))
        with pytest.raises(ValueError):  # no embedding columns
            predict(spec, params, x)
        x = with_grid_te(spec, x)
        x[2, 1, 0] = np.nan
        with pytest.raises(NumericError, match="input"):
            predict(spec, params, x)

    @pytest.mark.parametrize("batch,cpus,blocks,workers", [
        (100, 8, [100], None),  # one block, no worker
        (129, 8, [129], None),  # a lone last row joins the block before it
        (130, 8, [128, 2], 1),
        (385, 2, [128, 128, 129], 1),
        (300, 8, [128, 128, 44], 2),  # never more groups than blocks
        (300, 1, [128, 128, 44], None),
    ])
    def test_one_group_per_cpu_and_block(self, monkeypatch, tmp_path, batch, cpus, blocks, workers):
        log = tmp_path / "blocks"
        real_forward = models._forward

        def recording_forward(spec, params, x, trace):
            record(log, os.getpid(), len(x))
            return real_forward(spec, params, x, trace)

        monkeypatch.setattr(models, "_forward", recording_forward)
        monkeypatch.setattr(models, "_usable_cpus", lambda: cpus)
        spec, params = predict_fixture("logreg", "none", "classification")
        x = np.ones((batch, 6, 5))
        # predict scores its blocks in the caller, however many CPUs it has
        predict(spec, params, x)
        assert [(int(pid), int(size)) for pid, size in records(log)] == \
            [(os.getpid(), size) for size in blocks]
        # a fan_out over the blocks, as sweep_dropout's, runs the first group
        # in the caller and each other group in a worker process
        log.unlink()
        models.fan_out(lambda block: predict(spec, params, x[slice(*block)]), models.row_blocks(batch))
        seen = records(log)
        assert sorted(int(size) for _, size in seen) == sorted(blocks)
        pids = {pid for pid, _ in seen}
        assert str(os.getpid()) in pids and len(pids) - 1 == (workers or 0)

    def test_first_failing_block_in_row_order_raises(self, monkeypatch):
        real_forward = models._forward
        failing = set()

        def failing_forward(spec, params, x, trace):
            first = int(x[0, 0, 0])
            if first in failing:
                raise NumericError(f"block at row {first}")
            return real_forward(spec, params, x, trace)

        monkeypatch.setattr(models, "_forward", failing_forward)
        spec, params = predict_fixture("logreg", "none", "classification")
        x = np.broadcast_to(np.arange(640.0)[:, None, None], (640, 6, 5))
        # blocks start at 0, 128, 256, 384 and 512
        for rows, first in (({256, 384}, 256), ({512, 128}, 128), ({0, 512}, 0)):
            failing.clear()
            failing.update(rows)
            with pytest.raises(NumericError, match=f"block at row {first}$"):
                predict(spec, params, x)

    def test_stress_more_workers_than_cores(self, monkeypatch):
        spec, params = predict_fixture("sa_lstm", "add_te", "regression")
        x = with_grid_te(spec, np.random.default_rng(8).normal(size=(8 * 128 + 5, 6, 5)))
        want, _ = forward(spec, params, x)
        monkeypatch.setattr(models, "_usable_cpus", lambda: 8)
        blocks = models.row_blocks(len(x))
        assert len(blocks) == 9  # 8 groups: the caller and 7 workers
        for _ in range(3):
            got = models.fan_out(lambda block: predict(spec, params, x[slice(*block)]), blocks)
            assert same_bits(np.concatenate(got), want)

    def test_calls_inside_a_fan_out_run_their_blocks_themselves(self, monkeypatch, tmp_path):
        spec, params = predict_fixture("lstm", "add_te", "classification")
        x = with_grid_te(spec, np.random.default_rng(9).normal(size=(300, 6, 5)))
        want = forward(spec, params, x)[0]
        log = tmp_path / "blocks"
        real_forward = models._forward
        monkeypatch.setattr(models, "_forward", lambda *a: record(log, os.getpid()) or real_forward(*a))
        monkeypatch.setattr(models, "_usable_cpus", lambda: 4)
        # two jobs, the caller's and one worker's, each scoring its three
        # blocks in its own process
        results = models.fan_out(lambda _: (predict(spec, params, x), os.getpid()), [0, 1])
        worker = results[1][1]
        assert worker != os.getpid()
        assert sorted(pid for (pid,) in records(log)) == sorted([str(os.getpid())] * 3 + [str(worker)] * 3)
        assert all(same_bits(got, want) for got, _ in results)

    def test_import_starts_no_thread(self):
        # and sets each BLAS thread variable to 1 unless the caller set it
        code = ("import os, threading, tembed.cli\n"
                f"print(threading.active_count(), *map(os.getenv, {BLAS_THREAD_VARS}))")
        assert child_stdout(code) == "1 1 1 1"
        assert child_stdout(code, OPENBLAS_NUM_THREADS="2") == "1 2 1 1"
        assert child_stdout(code, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3",
                            MKL_NUM_THREADS="4") == "1 2 3 4"


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("no pickling")


class TwoArgs(Exception):
    """Pickles, but does not unpickle: its one stored arg misses ``b``."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


# how a fan_out call ends: what it raises, and a pattern of the message
FAN_OUT_ENDINGS = {
    "success": (None, None),
    "worker_raises": (KeyError, "item 4"),
    "caller_raises": (KeyError, "item 1"),
    "interrupt": (KeyboardInterrupt, None),
    "worker_killed": (ChildProcessError, r"worker for items 3-5 .*killed by signal 9"),
    "unpicklable": (ChildProcessError, r"worker for items 3-5 cannot send its Unpicklable: item 4"),
    "unreadable": (ChildProcessError, r"worker for items 3-5 sent no readable reply .*TypeError"),
}


def end_fan_out(monkeypatch, case):
    """A fan_out call of 6 items on 2 CPUs that ends as ``case`` of
    ``FAN_OUT_ENDINGS`` says, within 15 s."""
    monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
    raised, match = FAN_OUT_ENDINGS[case]

    def job(i):
        # groups [0, 1, 2] in the caller and [3, 4, 5] in a worker
        if case == "worker_raises" and i == 4:
            raise KeyError("item 4")
        if case == "caller_raises" and i == 1:
            raise KeyError("item 1")
        if case == "interrupt" and i == 1:
            raise KeyboardInterrupt
        if case == "worker_killed" and i == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        if case == "unpicklable" and i == 4:
            raise Unpicklable("item 4")
        if case == "unreadable" and i == 4:
            raise TwoArgs("item", 4)
        if case in ("caller_raises", "interrupt") and i >= 3:
            time.sleep(30)  # killed, not waited for
        return i

    begun = time.monotonic()
    if raised is None:
        assert models.fan_out(job, list(range(6))) == list(range(6))
    else:
        with pytest.raises(raised, match=match):
            models.fan_out(job, list(range(6)))
    assert time.monotonic() - begun < 15


class TestFanOutWorkers:
    """The workers ``fan_out`` forks: however a call ends, it has reaped
    them all and closed their pipes; it forks none from a process that runs
    a second thread, and none where there is no fork."""

    @pytest.mark.parametrize("case", list(FAN_OUT_ENDINGS))
    def test_no_worker_outlives_the_call(self, monkeypatch, case):
        end_fan_out(monkeypatch, case)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork only on Linux")
    @pytest.mark.parametrize("case", list(FAN_OUT_ENDINGS))
    def test_no_file_descriptor_outlives_the_call(self, monkeypatch, case):
        before = len(os.listdir("/proc/self/fd"))
        end_fan_out(monkeypatch, case)
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork only on Linux")
    def test_a_failed_fork_reaps_the_workers_before_it(self, monkeypatch):
        monkeypatch.setattr(models, "_usable_cpus", lambda: 3)
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "no second worker")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        before = len(os.listdir("/proc/self/fd"))
        # groups [0, 1] in the caller, [2, 3] in the first worker; [4, 5] get none
        with pytest.raises(OSError, match="no second worker"):
            models.fan_out(lambda i: i, list(range(6)))
        assert len(forks) == 2
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_runs_in_place_where_there_is_no_fork(self):
        # as on Windows, where get_context("fork") raises ValueError
        code = ("import multiprocessing\n"
                "def no_fork(method=None): raise ValueError(f'cannot find context for {method!r}')\n"
                "multiprocessing.get_context = no_fork\n"
                "from tembed import models\n"
                "models._usable_cpus = lambda: 1\n"
                "print(models.fan_out(lambda i: i * i, [1, 2, 3]), models.fan_out(abs, [-4]))")
        assert child_stdout(code) == "[1, 4, 9] [4]"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork only on Linux")
    def test_forks_only_from_a_process_of_one_thread(self):
        # with no BLAS thread variable set, a process that imports tembed first runs one thread
        code = ("import os\nfrom tembed import models\n"
                "print(len(os.listdir('/proc/self/task')), models._usable_cpus())")
        assert child_stdout(code) == f"1 {len(os.sched_getaffinity(0))}"
        # a BLAS pool the caller asked for, or one numpy started before tembed loaded, keeps
        # every item in the caller
        assert child_stdout(code, OPENBLAS_NUM_THREADS="2").split()[1] == "1"
        assert child_stdout("import numpy\n" + code).split()[1] == "1"
        # with a second thread running, every item runs in the caller
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert models._usable_cpus() == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_fan_out_keeps_item_order_in_contiguous_groups(self, monkeypatch):
        monkeypatch.setattr(models, "_usable_cpus", lambda: 3)

        def job(i):
            return i * i, os.getpid()

        got = models.fan_out(job, list(range(7)))
        assert [square for square, _ in got] == [i * i for i in range(7)]
        # contiguous groups: [0, 1], [2, 3], [4, 5, 6], the first in the caller
        pids = [pid for _, pid in got]
        assert pids[0] == pids[1] == os.getpid()
        assert pids[2] == pids[3] not in (pids[0], pids[4])
        assert pids[4] == pids[5] == pids[6] != pids[0]
        assert models.fan_out(job, []) == []

    def test_an_item_that_calls_fan_out_gets_workers_of_its_own(self, monkeypatch):
        monkeypatch.setattr(models, "_usable_cpus", lambda: 2)

        def job(i):
            return os.getpid(), models.fan_out(lambda j: (10 * i + j, os.getpid()), list(range(3)))

        got = models.fan_out(job, list(range(4)))
        assert [value for _, inner in got for value, _ in inner] == [10 * i + j for i in range(4) for j in range(3)]
        # groups [0, 1] in the caller and [2, 3] in a worker; each item's own
        # call runs its item 0 where the item runs and [1, 2] in a worker of its own
        outer = [pid for pid, _ in got]
        assert outer[0] == outer[1] == os.getpid() != outer[2] == outer[3]
        for pid, inner in got:
            pids = [p for _, p in inner]
            assert pids[0] == pid and pids[1] == pids[2] not in outer

    def test_a_failing_item_stops_the_other_groups(self, monkeypatch, tmp_path):
        monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
        started = tmp_path / "started"

        def job(i):
            record(tmp_path / "ran", i)
            if i == 0:
                wait_for(started.exists)
                raise KeyError("item 0")
            started.touch()
            time.sleep(30)

        # groups [0, 1, 2] in the caller and [3, 4, 5] in a worker: item 0
        # fails while item 3 runs, and the worker is killed inside item 3
        begun = time.monotonic()
        with pytest.raises(KeyError, match="item 0"):
            models.fan_out(job, list(range(6)))
        assert time.monotonic() - begun < 15
        assert sorted(int(i) for (i,) in records(tmp_path / "ran")) == [0, 3]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork only on Linux")
    def test_a_failing_worker_raises_after_the_groups_before_it(self, monkeypatch, tmp_path):
        monkeypatch.setattr(models, "_usable_cpus", lambda: 4)
        before = len(os.listdir("/proc/self/fd"))

        def pid_of(i):
            seen = records(tmp_path / f"pid{i}")
            return int(seen[0][0]) if seen else None

        def job(i):
            record(tmp_path / "ran", i)
            if i in (4, 6):
                record(tmp_path / f"pid{i}", os.getpid())
            if i == 0:
                # once item 6 runs, let item 4 fail, wait until its worker has
                # sent the failure and exited (WNOWAIT leaves it unreaped), and
                # only then let item 3 fail
                wait_for(lambda: pid_of(6))
                (tmp_path / "go4").touch()
                wait_for(lambda: pid_of(4) and os.waitid(os.P_PID, pid_of(4),
                                                         os.WEXITED | os.WNOHANG | os.WNOWAIT))
                (tmp_path / "go3").touch()
            elif i == 2:
                time.sleep(0.5)
            elif i == 3:
                wait_for((tmp_path / "go3").exists)
                raise KeyError("item 3")
            elif i == 4:
                wait_for((tmp_path / "go4").exists)
                raise KeyError("item 4")
            elif i == 6:
                time.sleep(30)  # killed, not waited for
            return i

        # groups [0, 1], [2, 3], [4, 5] and [6, 7]: item 4 fails first, and
        # item 3, which fails later, is the first failure in item order
        begun = time.monotonic()
        with pytest.raises(KeyError, match="item 3"):
            models.fan_out(job, list(range(8)))
        assert time.monotonic() - begun < 15
        assert sorted(int(i) for (i,) in records(tmp_path / "ran")) == [0, 1, 2, 3, 4, 6]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == before


class TestLossAndBackward:
    def test_cross_entropy_hand_case(self):
        spec = spec_of("logreg")
        params = init_params(spec, 4, rng_seed=0)
        x = np.random.default_rng(6).normal(size=(3, 2, 2))
        out, trace = forward(spec, params, x)
        y = np.array([0.0, 1.0, 0.0])
        want = -np.mean([math.log(out[0, 0]), math.log(out[1, 1]), math.log(out[2, 0])])
        assert math.isclose(loss(trace, y), want, rel_tol=0, abs_tol=1e-12)

    def test_mse_hand_case(self):
        spec = spec_of("linreg", task="regression")
        params = init_params(spec, 4, rng_seed=0)
        x = np.random.default_rng(7).normal(size=(2, 2, 2))
        out, trace = forward(spec, params, x)
        y = np.array([1.0, 2.0])
        want = float(((out - y) ** 2).mean())
        assert math.isclose(loss(trace, y), want, rel_tol=0, abs_tol=1e-12)

    def test_sa_lstm_loss_includes_diversity_penalty(self):
        spec = spec_of("sa_lstm", attention=AttentionSpec(d_a=6, r=3, penalty_c=0.5))
        params = init_params(spec, 4, rng_seed=1)
        x = np.random.default_rng(8).normal(size=(2, 5, 4))
        out, trace = forward(spec, params, x)
        y = np.array([0.0, 1.0])
        base = -np.mean([np.log(out[0, 0]), np.log(out[1, 1])])
        penalty = attention_penalty(trace.A, 0.5).mean()
        assert math.isclose(loss(trace, y), base + penalty, rel_tol=0, abs_tol=1e-12)

    def test_attention_penalty_hand_case(self):
        # one-hot rows attending distinct steps are orthonormal: penalty 0
        eye_rows = np.zeros((1, 2, 4))
        eye_rows[0, 0, 0] = 1.0
        eye_rows[0, 1, 2] = 1.0
        npt.assert_allclose(attention_penalty(eye_rows, 3.0), [0.0], rtol=0, atol=1e-15)
        # both rows attending one step: A A^T is all-ones; ||ones - I||_F^2 = 2
        same = np.zeros((1, 2, 4))
        same[0, :, 1] = 1.0
        npt.assert_allclose(attention_penalty(same, 3.0), [6.0], rtol=0, atol=1e-12)

    def test_rejects_bad_targets(self):
        spec = spec_of("logreg")
        params = init_params(spec, 4, rng_seed=0)
        out, trace = forward(spec, params, np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            loss(trace, np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            loss(trace, np.array([0.0]))

    def test_gradients_cover_every_parameter(self):
        spec = spec_of("sa_lstm", te_mode="add_te", te_cfg=TE8, hidden=8)
        params = init_params(spec, 4, rng_seed=2)
        x = np.random.default_rng(9).normal(size=(3, 5, 4))
        _, trace = forward(spec, params, with_grid_te(spec, x))
        loss(trace, np.array([0.0, 1.0, 1.0]))
        grads = backward(params, trace)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.shape == params[name].shape

    def test_backward_without_a_loss_raises(self):
        spec = spec_of("lstm")
        params = init_params(spec, 4, rng_seed=0)
        _, trace = forward(spec, params, np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="backward needs a loss taken on the trace"):
            backward(params, trace)

    def test_second_backward_raises(self):
        # the first backward consumed the trace: its gate buffer holds gradients now
        spec = spec_of("lstm")
        params = init_params(spec, 4, rng_seed=0)
        _, trace = forward(spec, params, np.ones((2, 3, 4)))
        loss(trace, np.array([0.0, 1.0]))
        backward(params, trace)
        with pytest.raises(ValueError, match="backward needs a loss taken on the trace"):
            backward(params, trace)

    @pytest.mark.parametrize(
        "family,task,mode",
        [("logreg", "classification", "none"), ("lstm", "regression", "mask")],
    )
    def test_spot_finite_difference_check(self, family, task, mode):
        spec = spec_of(family, task=task, te_mode=mode)
        width = 3
        params = init_params(spec, model_input_width(spec, 4, width), rng_seed=2)
        if task == "regression":
            params["out.b"] = params["out.b"] + 1.0  # keep the output clamp active
        x = np.random.default_rng(12).normal(size=(3, 4, width))
        y = np.array([0.0, 1.0, 1.0]) if task == "classification" else np.array([0.5, 1.5, 0.25])

        def loss_at(p):
            out, trace = forward(spec, p, x)
            return loss(trace, y)

        _, trace = forward(spec, params, x)
        loss(trace, y)
        grads = backward(params, trace)
        eps = 1e-5
        for name in params:
            flat = params[name].reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                bumped = {key: arr.copy() for key, arr in params.items()}
                bumped[name].reshape(-1)[i] = flat[i] + eps
                up = loss_at(bumped)
                bumped[name].reshape(-1)[i] = flat[i] - eps
                down = loss_at(bumped)
                fd = (up - down) / (2 * eps)
                an = grads[name].reshape(-1)[i]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel < 1e-4, f"{name}[{i}]: fd {fd} vs analytic {an}"


class TestParamUtilities:
    def test_zeros_like_matches_shapes(self):
        spec = spec_of("sa_lstm")
        params = init_params(spec, 4, rng_seed=0)
        zeros = zeros_like_params(params)
        for name in params:
            assert zeros[name].shape == params[name].shape
            assert not zeros[name].any()

    def test_save_load_round_trip(self, tmp_path):
        spec = spec_of("lstm", te_mode="cat_te", te_cfg=TE8)
        params = init_params(spec, 9, rng_seed=5)
        path = str(tmp_path / "params.npz")
        save_params(path, params, spec)
        back, meta = load_params(path)
        assert set(back) == set(params)
        for name in params:
            npt.assert_array_equal(back[name], params[name])
        assert ModelSpec.from_dict(meta["model_spec"]) == spec

    def test_load_rejects_undeclared_tensors(self, tmp_path):
        import json

        path = str(tmp_path / "params.npz")
        meta = {"format_version": 1, "tensors": {"out.W": [2, 2]}}
        np.savez(
            path,
            __meta__=np.array(json.dumps(meta)),
            **{"out.W": np.zeros((2, 2)), "rogue": np.zeros(3)},
        )
        with pytest.raises(ValueError, match="undeclared"):
            load_params(path)

    def test_load_rejects_shape_drift(self, tmp_path):
        import json

        path = str(tmp_path / "params.npz")
        meta = {"format_version": 1, "tensors": {"out.W": [4, 4]}}
        np.savez(path, __meta__=np.array(json.dumps(meta)), **{"out.W": np.zeros((2, 2))})
        with pytest.raises(ValueError, match="shape"):
            load_params(path)

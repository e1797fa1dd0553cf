"""Outside-in tracing for the traced benchmark run.

The program has no span recorder of its own, so the traced run wraps the
module-level names that callers look up at call time (for example
``tembed.training.forward``, which ``train_one`` and ``predict_scores``
resolve on every call) and restores the originals afterwards. Each span
records name, parent, start and end; spans stay in memory and are written
out when the run ends. The untraced run never installs anything, so its
code path is the plain one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

from stats import median, percentile

FORWARD_INFER = "models.forward.infer"
FORWARD_TRAIN = "models.forward.train"


def _forward_name(parent: str | None) -> str:
    # predict_scores is the only inference caller; everything else trains
    return FORWARD_INFER if parent == "training.predict_scores" else FORWARD_TRAIN


def _rows_loaded(result) -> dict:
    return {"rows": sum(s.n_obs for s in result)}


def _episodes_generated(result) -> dict:
    return {"episodes": len(result[0])}


def _best_epoch(result) -> dict:
    # best_val is copied from the history entry of the selected epoch;
    # no match means the initial parameters were kept
    epochs = len(result.history)
    best = next((i for i, h in enumerate(result.history) if h["val_metric"] == result.best_val), -1)
    return {"best_epoch_ratio": (best + 1) / epochs if epochs else 0.0}


def _selection(result) -> dict:
    rows = result[0]["rows"]
    return {"selected": sum(1 for r in rows if r["selected"]), "runs": len(rows)}


# (module, attribute, span name, annotator). A function imported into
# several modules is wrapped under each name a caller uses; the span name is
# the layer that defines it. A callable span name is resolved from the
# parent span at call time.
TARGETS = [
    ("tembed.cli", "cmd_gen", "cli.cmd_gen", None),
    ("tembed.cli", "cmd_train", "cli.cmd_train", None),
    ("tembed.cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("tembed.cli", "gen_dataset", "benchgen.gen_dataset", _episodes_generated),
    ("tembed.benchgen", "gen_dataset", "benchgen.gen_dataset", _episodes_generated),
    ("tembed.cli", "write_csv", "dataset.write_csv", None),
    ("tembed.cli", "load_csv", "dataset.load_csv", _rows_loaded),
    ("tembed.cli", "fit_norm", "dataset.fit_norm", None),
    ("tembed.dataset", "fit_norm", "dataset.fit_norm", None),
    ("tembed.cli", "apply_norm", "dataset.apply_norm", None),
    ("tembed.dataset", "apply_norm", "dataset.apply_norm", None),
    ("tembed.cli", "train_test_split", "dataset.split", None),
    ("tembed.training", "split_folds", "dataset.split", None),
    ("tembed.cli", "build_features", "training.build_features", None),
    ("tembed.training", "build_features", "training.build_features", None),
    ("tembed.training", "bin_series", "dataset.bin_series", None),
    ("tembed.training", "attach_mask", "dataset.attach_mask", None),
    ("tembed.training", "attach_te", "dataset.attach_te", None),
    ("tembed.training", "drop_observations", "dataset.drop_observations", None),
    ("tembed.dataset", "te_batch", "encoding.te_batch", None),
    ("tembed.models", "te_batch", "encoding.te_batch", None),
    ("tembed.training", "prepare", "training.prepare", None),
    ("tembed.cli", "run_cv", "training.run_cv", _selection),
    ("tembed.training", "train_one", "training.train_one", _best_epoch),
    ("tembed.training", "init_params", "models.init_params", None),
    ("tembed.models", "init_params", "models.init_params", None),
    ("tembed.training", "forward", _forward_name, None),
    ("tembed.training", "loss", "models.loss", None),
    ("tembed.training", "backward", "models.backward", None),
    ("tembed.training", "opt_step", "training.opt_step", None),
    ("tembed.training", "predict_scores", "training.predict_scores", None),
    ("tembed.training", "evaluate", "training.evaluate", None),
    ("tembed.training", "auc_roc", "metrics.auc_roc", None),
    ("tembed.training", "average_precision", "metrics.average_precision", None),
    ("tembed.training", "mae", "metrics.regression", None),
    ("tembed.training", "rmse", "metrics.regression", None),
    ("tembed.training", "explained_variance", "metrics.regression", None),
    ("tembed.cli", "save_params", "models.save_params", None),
    ("tembed.cli", "load_params", "models.load_params", None),
    ("tembed.cli", "sweep_dropout", "training.sweep_dropout", None),
    ("tembed.training", "sweep_dropout", "training.sweep_dropout", None),
]


class Recorder:
    """In-memory spans: each is [name, parent index, start ns, end ns, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        if callable(name):
            name = name(None if parent is None else self.spans[parent][0])
        self.spans.append([name, parent, time.perf_counter_ns(), 0, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if annotate is not None:
                self.spans[index][4] = annotate(result)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for module_name, attr, name, annotate in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, annotate))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, info) in enumerate(self.spans):
                record = {"id": i, "name": name, "parent": parent, "start_ns": start, "end_ns": end}
                if info is not None:
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")


# Per-layer metrics the traced run reports, by the layer span they read.
DURATION_STATS = {  # name -> reported statistics of per-call durations
    FORWARD_TRAIN: ("ms_p50", "ms_p90", "calls", "total_ms"),
    "models.backward": ("ms_p50", "ms_p90", "calls", "total_ms"),
    FORWARD_INFER: ("ms_p50", "ms_p90", "calls", "total_ms"),
    "dataset.bin_series": ("calls", "total_ms", "us_p50", "us_p90"),
    "dataset.attach_mask": ("total_ms",),
    "dataset.attach_te": ("total_ms",),
    "training.prepare": ("total_ms",),
    "dataset.drop_observations": ("total_ms",),
    "dataset.load_csv": ("total_ms",),
    "dataset.write_csv": ("total_ms",),
    "benchgen.gen_dataset": ("total_ms",),
    "dataset.fit_norm": ("total_ms",),
    "dataset.apply_norm": ("total_ms",),
    "dataset.split": ("total_ms",),
    "models.save_params": ("total_ms",),
    "models.load_params": ("total_ms",),
    "models.init_params": ("total_ms",),
    "models.loss": ("total_ms",),
    "training.predict_scores": ("total_ms",),
    "training.opt_step": ("ms_p50", "calls", "total_ms"),
    "metrics.auc_roc": ("calls", "total_ms"),
    "metrics.average_precision": ("total_ms",),
    "metrics.regression": ("total_ms",),
    "encoding.te_batch": ("calls", "total_ms"),
}
SELF_TIMES = (
    "training.build_features",
    "training.run_cv",
    "training.train_one",
    "training.evaluate",
    "training.sweep_dropout",
    "cli.cmd_gen",
    "cli.cmd_train",
    "cli.cmd_sweep",
)
ROOT = "bench.rep"


def _per_call(durations_ns: list[int], stat: str, reps: int) -> float:
    ms = [d / 1e6 for d in durations_ns]
    if stat == "calls":
        return len(ms) / reps
    if stat == "total_ms":
        return sum(ms) / reps
    unit, q = stat.split("_p")
    scale = 1000.0 if unit == "us" else 1.0
    return percentile(ms, float(q)) * scale


def layer_metrics(rec: Recorder, roots: list[int]) -> dict[str, float]:
    """Per-repetition layer figures over the traced repetitions ``roots``.

    Totals, call counts and self times are means per repetition; per-call
    percentiles pool the calls of every traced repetition; the sum of all
    self times is the median over repetitions, comparable with the median
    repetition wall time. Self time is a span's duration minus the time its
    children cover; the program is serial, so children never overlap and
    their durations add.
    """
    reps = len(roots)
    root_of: dict[int, int] = {}
    child_ns = [0] * len(rec.spans)
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    infos: dict[str, list[tuple[int, dict]]] = {}
    wanted = set(roots)
    for i, (name, parent, start, end, info) in enumerate(rec.spans):
        root = i if i in wanted else root_of.get(parent)
        if root is None:
            continue
        root_of[i] = root
        if parent is not None:
            child_ns[parent] += end - start
        durations.setdefault(name, []).append(end - start)
        if info is not None:
            infos.setdefault(name, []).append((end - start, info))
    self_per_root = {root: 0 for root in roots}
    for i, root in root_of.items():
        name, _, start, end, _ = rec.spans[i]
        own = (end - start) - child_ns[i]
        self_ns[name] = self_ns.get(name, 0) + own
        self_per_root[root] += own

    out: dict[str, float] = {}
    for name, stats in DURATION_STATS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = _per_call(durations.get(name, []), stat, reps)
    for name in SELF_TIMES:
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / reps

    def rate(name: str, key: str) -> float:
        pairs = infos.get(name, [])
        seconds = sum(d for d, _ in pairs) / 1e9
        return sum(info[key] for _, info in pairs) / seconds if seconds else 0.0

    out["dataset.load_csv.rows_per_s"] = rate("dataset.load_csv", "rows")
    out["benchgen.gen_dataset.episodes_per_s"] = rate("benchgen.gen_dataset", "episodes")
    runs = [info for _, info in infos.get("training.run_cv", [])]
    total_runs = sum(info["runs"] for info in runs)
    out["training.selected_ratio"] = (
        sum(info["selected"] for info in runs) / total_runs if total_runs else 0.0
    )
    fits = [info["best_epoch_ratio"] for _, info in infos.get("training.train_one", [])]
    out["training.best_epoch_ratio"] = sum(fits) / len(fits) if fits else 0.0

    train_ns = sum(durations.get("training.train_one", []))
    val_ns = sum(
        end - start
        for i in root_of
        for name, parent, start, end, _ in [rec.spans[i]]
        if name == "training.predict_scores" and _under(rec, parent, "training.train_one")
    )
    out["training.validation_share"] = val_ns / train_ns if train_ns else 0.0

    out["trace.self_sum_ms"] = median(self_per_root.values()) / 1e6
    out["trace.unattributed_ms"] = self_ns.get(ROOT, 0) / 1e6 / reps
    out["trace.spans_per_rep"] = len(root_of) / reps
    return out


def _under(rec: Recorder, index: int | None, name: str) -> bool:
    while index is not None:
        if rec.spans[index][0] == name:
            return True
        index = rec.spans[index][1]
    return False

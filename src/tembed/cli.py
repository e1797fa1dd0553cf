"""Command-line entry point: dataset generation, training, dropout sweeps,
and timestamp encoding, each driven by a JSON config plus a few flag
overrides.

Subcommands:

* ``gen``    write a synthetic dataset (data.csv, labels.csv, schema.json,
             manifest.json) from a SynthConfig;
* ``train``  run the cross-validated protocol on a dataset and write the
             report, summary CSV, and selected model parameters;
* ``sweep``  re-evaluate a finished training run under observation
             dropout and write the fraction-by-metric CSV;
* ``encode`` append time-embedding columns to a CSV of timestamps.

Every command validates its whole config up front and reports all
problems at once, refuses to overwrite existing outputs unless --force is
given, and is deterministic for a fixed config and seed. The train command
runs its fold-by-run grid on a thread per CPU the process may use; its
outputs do not depend on that count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._util import atomic_write_text, check_int, check_real, float_repr, write_json_document
from .benchgen import SynthConfig, gen_dataset, synth_schema
from .dataset import (
    NormStats,
    Schema,
    apply_norm,
    fit_norm,
    load_csv,
    load_schema,
    save_schema,
    train_test_split,
    write_csv,
)
from .encoding import EncoderConfig, te_batch
from .models import AttentionSpec, ModelSpec, load_params, save_params
from .training import (
    DEFAULT_FRACTIONS,
    Hyper,
    build_features,
    report_summary_lines,
    report_to_json,
    run_cv,
    sweep_dropout,
    sweep_to_csv,
)

DATA_FILE = "data.csv"
LABELS_FILE = "labels.csv"
SCHEMA_FILE = "schema.json"
MANIFEST_FILE = "manifest.json"
REPORT_JSON = "report.json"
REPORT_CSV = "report.csv"
EXPERIMENT_FILE = "experiment.json"
SWEEP_CSV = "sweep.csv"


class CliError(Exception):
    """A user-facing problem: bad config, missing file, refused overwrite."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from None


def _check_keys(section: dict, allowed: set[str], context: str, problems: list[str]) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        problems.append(f"{context}: unknown keys {unknown}")


def _refuse_existing(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise CliError(f"{path} already exists; pass --force to overwrite")


def _require(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)


def _require_valid(problems: list[str], check, *args, **kwargs) -> bool:
    """Record the problem ``check(*args, **kwargs)`` raises, if any; True if it passes."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        problems.append(str(exc))
        return False
    return True


def _fail_if(problems: list[str]) -> None:
    if problems:
        raise CliError("config problems:\n  " + "\n  ".join(problems))


def cmd_gen(args) -> int:
    config = _load_config(args.config)
    problems: list[str] = []
    _check_keys(config, {"synth", "n_episodes", "out"}, "top level", problems)
    _require("synth" in config, "top level: missing 'synth' section", problems)
    _require("n_episodes" in config, "top level: missing 'n_episodes'", problems)
    out_dir = args.out or config.get("out")
    _require(out_dir is not None, "no output directory (config 'out' or --out)", problems)
    synth = None
    if "synth" in config:
        synth_dict = dict(config["synth"])
        if args.seed is not None:
            synth_dict["rng_seed"] = args.seed
        try:
            synth = SynthConfig.from_dict(synth_dict)
        except (ValueError, TypeError) as exc:
            problems.append(f"synth: {exc}")
    n_episodes = config.get("n_episodes")
    if n_episodes is not None:
        _require_valid(problems, check_int, "n_episodes", n_episodes, 1)
    _fail_if(problems)

    _refuse_existing(out_dir, args.force)
    episodes, manifest = gen_dataset(synth, n_episodes)
    schema = synth_schema(synth)
    os.makedirs(out_dir, exist_ok=True)
    write_csv(episodes, schema, os.path.join(out_dir, DATA_FILE), os.path.join(out_dir, LABELS_FILE))
    save_schema(os.path.join(out_dir, SCHEMA_FILE), schema)
    write_json_document(os.path.join(out_dir, MANIFEST_FILE), manifest)
    print(f"wrote {n_episodes} episodes to {out_dir}")
    for key, value in sorted(manifest["class_balance"].items()):
        print(f"{key}: {value:.4f}")
    return 0


_MODEL_KEYS = {"family", "hidden", "te_mode", "te_dim", "te_max_time",
               "head_widths", "mlp_widths", "attention"}
_TRAIN_KEYS = {"lr", "epochs", "batch_size", "weight_decay", "k", "runs_per_fold"}


def _build_model_spec(model: dict, task: str, window: float | None, problems: list[str]) -> ModelSpec | None:
    _check_keys(model, _MODEL_KEYS, "model", problems)
    family = model.get("family")
    te_mode = model.get("te_mode", "none")
    te_cfg = None
    if te_mode in ("cat_te", "add_te"):
        if window is None and "te_max_time" not in model:
            return None  # te_max_time defaults to features.window, whose problem is reported
        dim = model.get("te_dim", 32)
        max_time = model.get("te_max_time", window)
        try:
            te_cfg = EncoderConfig.temporal(dim, max_time)
        except (ValueError, TypeError) as exc:
            problems.append(f"model: {exc}")
            return None
    attention = None
    if family == "sa_lstm":
        att = dict(model.get("attention", {}))
        _check_keys(att, {"d_a", "r", "penalty_c"}, "model.attention", problems)
        try:
            attention = AttentionSpec(**att)
        except (ValueError, TypeError) as exc:
            problems.append(f"model.attention: {exc}")
            return None
    kwargs = {}
    if "head_widths" in model:
        kwargs["head_widths"] = tuple(model["head_widths"])
    if "mlp_widths" in model:
        kwargs["mlp_widths"] = tuple(model["mlp_widths"])
    try:
        return ModelSpec(
            family=family, task=task, hidden=model.get("hidden", 0),
            te_mode=te_mode, te_cfg=te_cfg, attention=attention, **kwargs,
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"model: {exc}")
        return None


def _load_dataset(data: dict, problems: list[str]):
    """Resolve the data section to (episodes, schema) or record problems.

    Either {"dir": ...} / explicit CSV paths, or an inline synthetic
    source {"synth": {...}, "n_episodes": N}.
    """
    _check_keys(data, {"dir", "data_csv", "labels_csv", "schema", "synth", "n_episodes"},
                "data", problems)
    if "synth" in data:
        try:
            synth = SynthConfig.from_dict(data["synth"])
        except (ValueError, TypeError) as exc:
            problems.append(f"data.synth: {exc}")
            return None
        n = data.get("n_episodes")
        if not _require_valid(problems, check_int, "data.n_episodes", n, 1):
            return None
        episodes, _ = gen_dataset(synth, n)
        return episodes, synth_schema(synth)
    if "dir" in data:
        base = data["dir"]
        paths = {
            "data_csv": os.path.join(base, DATA_FILE),
            "labels_csv": os.path.join(base, LABELS_FILE),
            "schema": os.path.join(base, SCHEMA_FILE),
        }
    else:
        paths = {key: data.get(key) for key in ("data_csv", "labels_csv", "schema")}
    missing = [name for name, p in paths.items() if p is None or not os.path.exists(p)]
    if missing:
        for name in missing:
            problems.append(f"data.{name}: file not found ({paths[name]})")
        return None
    schema = load_schema(paths["schema"])
    episodes = load_csv(paths["data_csv"], schema, paths["labels_csv"])
    return episodes, schema


def cmd_train(args) -> int:
    config = _load_config(args.config)
    problems: list[str] = []
    _check_keys(config, {"data", "task", "model", "features", "train", "test_fraction", "seed", "out"},
                "top level", problems)
    for required in ("data", "task", "model"):
        _require(required in config, f"top level: missing '{required}' section", problems)
    task = config.get("task")
    if task not in ("classification", "regression"):
        problems.append(f"task must be 'classification' or 'regression', got {task!r}")
    features = dict(config.get("features", {}))
    _check_keys(features, {"window", "bin_width"}, "features", problems)
    window = features.get("window", 48.0)
    bin_width = features.get("bin_width", 1.0)
    window_ok = _require_valid(problems, check_real, "features.window", window, 0, strict=True)
    _require_valid(problems, check_real, "features.bin_width", bin_width, 0, strict=True)

    train_cfg = dict(config.get("train", {}))
    _check_keys(train_cfg, _TRAIN_KEYS, "train", problems)
    k = train_cfg.pop("k", 5)
    runs_per_fold = train_cfg.pop("runs_per_fold", 10)
    hyper = None
    try:
        hyper = Hyper(**train_cfg)
    except (ValueError, TypeError) as exc:
        problems.append(f"train: {exc}")
    _require_valid(problems, check_int, "train.k", k, 2)
    _require_valid(problems, check_int, "train.runs_per_fold", runs_per_fold, 1)

    test_fraction = config.get("test_fraction", 0.2)
    if not (isinstance(test_fraction, (int, float)) and 0 < test_fraction < 1):
        problems.append(f"test_fraction must lie in (0, 1), got {test_fraction!r}")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    _require_valid(problems, check_int, "seed", seed, 0)
    out_dir = args.out or config.get("out")
    _require(out_dir is not None, "no output directory (config 'out' or --out)", problems)

    spec = None
    if task in ("classification", "regression") and isinstance(config.get("model"), dict):
        spec = _build_model_spec(config["model"], task, window if window_ok else None, problems)
    loaded = None
    if isinstance(config.get("data"), dict):
        loaded = _load_dataset(config["data"], problems)
    _fail_if(problems)
    _refuse_existing(out_dir, args.force)

    episodes, schema = loaded
    window, bin_width = float(window), float(bin_width)
    stratify = task == "classification"
    pool_raw, test_raw = train_test_split(episodes, test_fraction, [seed, 1], stratify=stratify)
    stats = fit_norm(pool_raw, schema)
    pool = [apply_norm(s, stats, schema) for s in pool_raw]
    test = [apply_norm(s, stats, schema) for s in test_raw]

    report, selected = run_cv(
        spec,
        build_features(pool, schema, window, bin_width, spec),
        build_features(test, schema, window, bin_width, spec),
        hyper, k=k, runs_per_fold=runs_per_fold, base_seed=seed,
    )

    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, REPORT_JSON), report_to_json(report) + "\n")
    csv_lines = ["model,metric,mean,std,stderr,n"]
    for name, agg in sorted(report["aggregate"].items()):
        csv_lines.append(
            f"{report['model']},{name},{float_repr(agg['mean'])},{float_repr(agg['std'])},"
            f"{float_repr(agg['stderr'])},{agg['n']}"
        )
    atomic_write_text(os.path.join(out_dir, REPORT_CSV), "\n".join(csv_lines) + "\n")
    for f, params in sorted(selected.items()):
        save_params(os.path.join(out_dir, f"params_fold{f}.npz"), params, spec)
    experiment = {
        "data": config["data"],
        "task": task,
        "spec": spec.to_dict(),
        "window": window,
        "bin_width": bin_width,
        "seed": seed,
        "k": k,
        "runs_per_fold": runs_per_fold,
        "test_ids": sorted(s.episode_id for s in test_raw),
        "selected_folds": sorted(selected),
        "norm_stats": stats.to_dict(),
    }
    write_json_document(os.path.join(out_dir, EXPERIMENT_FILE), experiment)
    for line in report_summary_lines(report):
        print(line)
    print(f"wrote {out_dir}")
    return 0


def _parse_fractions(values, source: str, problems: list[str]) -> list[float] | None:
    """Check keep fractions from --keep-fractions or the config: one or more numbers
    in (0, 1], returned unique and descending, or None after recording a problem."""
    try:
        fractions = [float(v) for v in values]
    except (TypeError, ValueError):
        problems.append(f"{source} must be comma-separated numbers, got {values!r}")
        return None
    if not fractions or any(not (0 < f <= 1) for f in fractions):
        problems.append(f"{source} must be one or more numbers in (0, 1], got {values!r}")
        return None
    return sorted(set(fractions), reverse=True)


def cmd_sweep(args) -> int:
    config = _load_config(args.config) if args.config else {}
    problems: list[str] = []
    _check_keys(config, {"run_dir", "fractions", "seed", "out"}, "top level", problems)
    run_dir = args.run_dir or config.get("run_dir")
    _require(run_dir is not None, "no training run directory (config 'run_dir' or --run-dir)", problems)
    if args.keep_fractions:
        tokens = [tok for tok in args.keep_fractions.split(",") if tok.strip()]
        fractions = _parse_fractions(tokens, "--keep-fractions", problems)
    elif "fractions" in config:
        fractions = _parse_fractions(config["fractions"], "config fractions", problems)
    else:
        fractions = list(DEFAULT_FRACTIONS)
    _require_valid(problems, check_int, "seed",
                   args.seed if args.seed is not None else config.get("seed", 0), 0)
    _fail_if(problems)
    exp_path = os.path.join(run_dir, EXPERIMENT_FILE)
    if not os.path.exists(exp_path):
        raise CliError(f"no {EXPERIMENT_FILE} in {run_dir}; run `tembed train` first")
    with open(exp_path) as fh:
        experiment = json.load(fh)
    seed = args.seed if args.seed is not None else config.get("seed", experiment["seed"])
    out_dir = args.out or config.get("out") or run_dir
    out_path = os.path.join(out_dir, SWEEP_CSV)
    _refuse_existing(out_path, args.force)

    spec = ModelSpec.from_dict(experiment["spec"])
    loaded = _load_dataset(experiment["data"], problems)
    _fail_if(problems)
    episodes, schema = loaded
    test_ids = set(experiment["test_ids"])
    test_raw = [s for s in episodes if s.episode_id in test_ids]
    if len(test_raw) != len(test_ids):
        raise CliError("dataset no longer contains every test episode of the training run")
    stats = NormStats.from_dict(experiment["norm_stats"])
    test = [apply_norm(s, stats, schema) for s in test_raw]

    selected_params: dict[int, dict] = {}
    for f in experiment["selected_folds"]:
        path = os.path.join(run_dir, f"params_fold{f}.npz")
        if not os.path.exists(path):
            raise CliError(f"missing model file {path}")
        params, _ = load_params(path)
        selected_params[f] = params

    rows = sweep_dropout(spec, selected_params, test, schema,
                         experiment["window"], experiment["bin_width"],
                         fractions=fractions, base_seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(out_path, sweep_to_csv(rows))
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def cmd_encode(args) -> int:
    config = _load_config(args.config) if args.config else {}
    problems: list[str] = []
    _check_keys(config, {"input", "dim", "max_time", "out"}, "top level", problems)
    input_path = args.input or config.get("input")
    out_path = args.out or config.get("out")
    dim = args.dim if args.dim is not None else config.get("dim", 32)
    max_time = args.max_time if args.max_time is not None else config.get("max_time")
    _require(input_path is not None, "no input CSV (config 'input' or --input)", problems)
    _require(out_path is not None, "no output path (config 'out' or --out)", problems)
    _require(max_time is not None, "no max_time (config 'max_time' or --max-time)", problems)
    cfg = None
    if max_time is not None:
        try:
            cfg = EncoderConfig.temporal(dim, max_time)
        except ValueError as exc:
            problems.append(str(exc))
    _fail_if(problems)
    if not os.path.exists(input_path):
        raise CliError(f"input file not found: {input_path}")
    _refuse_existing(out_path, args.force)

    with open(input_path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CliError(f"{input_path} is empty; expected a header row")
    header = lines[0]
    if "," in header:
        raise CliError(f"{input_path}: expected a single timestamp column, header is {header!r}")
    times = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            t = float(line)
        except ValueError:
            raise CliError(f"line {line_no}: timestamp {line!r} is not a number") from None
        if not np.isfinite(t):
            raise CliError(f"line {line_no}: timestamp {line!r} is not finite")
        if t < 0:
            raise CliError(f"line {line_no}: timestamp {line!r} is negative")
        times.append(t)
    mat = te_batch(np.asarray(times), cfg)
    out_lines = [",".join([header] + [f"te_{i}" for i in range(cfg.dim)])]
    for t, row in zip(times, mat):
        out_lines.append(",".join([float_repr(t)] + [float_repr(v) for v in row]))
    atomic_write_text(out_path, "\n".join(out_lines) + "\n")
    print(f"wrote {len(times)} rows to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tembed",
        description="Time-embedding toolkit: synthetic benchmarks, model training, "
                    "dropout sweeps, and timestamp encoding.",
        epilog="train and sweep use every CPU the process may run on; limit them with "
               "taskset, e.g. `taskset -c 0 tembed train ...` to train serially.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--config", required=True, help="JSON config with synth settings")
    p_gen.add_argument("--out", help="output directory (overrides config)")
    p_gen.add_argument("--seed", type=int, help="override the generator seed")
    p_gen.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="run the cross-validated training protocol")
    p_train.add_argument("--config", required=True, help="JSON experiment config")
    p_train.add_argument("--out", help="output directory (overrides config)")
    p_train.add_argument("--seed", type=int, help="override the base seed")
    p_train.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="observation-dropout sweep of a training run")
    p_sweep.add_argument("--config", help="JSON sweep config")
    p_sweep.add_argument("--run-dir", help="directory written by `tembed train`")
    p_sweep.add_argument("--keep-fractions", help="comma-separated fractions, e.g. 1.0,0.5,0.1")
    p_sweep.add_argument("--out", help="output directory (overrides config; default: the run directory)")
    p_sweep.add_argument("--seed", type=int, help="override the dropout seed")
    p_sweep.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_sweep.set_defaults(func=cmd_sweep)

    p_enc = sub.add_parser("encode", help="append TE columns to a timestamp CSV")
    p_enc.add_argument("--input", help="CSV with one timestamp column")
    p_enc.add_argument("--dim", type=int, help="embedding dimension (default 32)")
    p_enc.add_argument("--max-time", type=float, dest="max_time", help="largest encodable time")
    p_enc.add_argument("--config", help="JSON config (flags override it)")
    p_enc.add_argument("--out", help="output CSV path")
    p_enc.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_enc.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

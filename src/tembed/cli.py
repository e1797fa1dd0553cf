"""Command-line entry point: dataset generation, training, dropout sweeps,
and timestamp encoding, each driven by a JSON config plus a few flag
overrides.

Subcommands:

* ``gen``    write a synthetic dataset (data.csv, labels.csv, schema.json,
             manifest.json) from a SynthConfig;
* ``train``  run the cross-validated protocol on a dataset and write the
             report, summary CSV, selected model parameters and the
             normalized test episodes;
* ``sweep``  re-evaluate a finished training run under observation
             dropout and write the fraction-by-metric CSV; it reads only
             the run directory, never the training data, and a damaged
             run file is an error that names the file;
* ``encode`` append time-embedding columns to a CSV of timestamps.

Every command validates its whole config up front and reports all
problems at once, one ``section: message`` line each, refuses to overwrite
existing outputs unless --force is given, and is deterministic for a fixed
config and seed. The config and each of its sections is a JSON object, read
through ``_util.check_object`` (keys, required keys, path strings) or
``_util.from_object`` (the same, then the section's dataclass); a section
with an unknown key still has its known entries checked. The train command
runs its fold-by-run grid on a thread per CPU the process may use; its
outputs do not depend on that count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ._util import (
    atomic_write_text,
    check_int,
    check_object,
    check_real,
    float_repr,
    from_object,
    read_json_document,
    write_json_document,
)
from .benchgen import SynthConfig, gen_dataset, synth_schema
from .dataset import (
    Schema,
    apply_norm,
    fit_norm,
    load_csv,
    load_episodes,
    load_schema,
    save_episodes,
    save_schema,
    train_test_split,
    write_csv,
)
from .encoding import EncoderConfig, te_batch
from .models import (
    AttentionSpec,
    ModelSpec,
    alias,
    init_params,
    load_params,
    model_input_width,
    save_params,
)
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
TEST_EPISODES_FILE = "test_episodes.npz"
SWEEP_CSV = "sweep.csv"
# the experiment.json entries the sweep reads
_EXPERIMENT_KEYS = ("spec", "window", "bin_width", "seed", "test_ids", "selected_folds")


class CliError(Exception):
    """A user-facing problem: bad config, missing file, refused overwrite."""


def _load_config(path: str) -> dict:
    try:
        return check_object(path, read_json_document(path))
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise CliError(f"config {exc}") from None


def _refuse_existing(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise CliError(f"{path} already exists; pass --force to overwrite")


def _require(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)


def _checked(problems: list[str], check, *args, **kwargs):
    """``check(*args, **kwargs)``, or None after recording the ValueError it raises."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        problems.append(str(exc))
        return None


def _fail_if(problems: list[str]) -> None:
    if problems:
        raise CliError("config problems:\n  " + "\n  ".join(problems))


def cmd_gen(args) -> int:
    config = _load_config(args.config)
    problems: list[str] = []
    _checked(problems, check_object, "top level", config, ("synth", "n_episodes", "out"),
             ("synth", "n_episodes"), paths=("out",))
    out_dir = args.out or config.get("out")
    _require(out_dir is not None, "no output directory (config 'out' or --out)", problems)
    synth = _checked(problems, check_object, "synth", config.get("synth", {}))
    if synth is not None:
        if args.seed is not None:
            synth = {**synth, "rng_seed": args.seed}
        synth = _checked(problems, from_object, SynthConfig, "synth", synth)
    n_episodes = _checked(problems, check_int, "n_episodes", config.get("n_episodes", 1), 1)
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


_MODEL_KEYS = ("family", "hidden", "te_mode", "te_dim", "te_max_time", "head_widths", "mlp_widths",
               "attention")
_DATA_PATHS = ("dir", "data_csv", "labels_csv", "schema")


def _build_model_spec(model, task: str, window: float | None, problems: list[str]) -> ModelSpec | None:
    if _checked(problems, check_object, "model", model) is None:
        return None
    _checked(problems, check_object, "model", model, _MODEL_KEYS)  # the known entries are still checked
    te_mode = model.get("te_mode", "none")
    te_cfg = attention = None
    if te_mode in ("cat_te", "add_te"):
        if window is None and "te_max_time" not in model:
            return None  # te_max_time defaults to features.window, whose problem is reported
        try:
            te_cfg = EncoderConfig.temporal(model.get("te_dim", 32), model.get("te_max_time", window))
        except ValueError as exc:
            problems.append(f"model: {exc}")
            return None
    if model.get("family") == "sa_lstm":
        attention = _checked(problems, from_object, AttentionSpec, "model.attention",
                             model.get("attention", {}))
        if attention is None:
            return None
    return _checked(problems, from_object, ModelSpec, "model", {
        "family": model.get("family"), "task": task, "te_cfg": te_cfg, "attention": attention,
        **{key: model[key] for key in ("hidden", "te_mode", "head_widths", "mlp_widths") if key in model}})


def _load_dataset(data, problems: list[str]):
    """Resolve the data section to (episodes, schema) or record problems.

    Either {"dir": ...} / explicit CSV paths, or an inline synthetic
    source {"synth": {...}, "n_episodes": N}.
    """
    if _checked(problems, check_object, "data", data, paths=_DATA_PATHS) is None:
        return None
    _checked(problems, check_object, "data", data, ("synth", "n_episodes", *_DATA_PATHS))
    if "synth" in data:
        synth = _checked(problems, from_object, SynthConfig, "data.synth", data["synth"])
        n = _checked(problems, check_int, "data.n_episodes", data.get("n_episodes"), 1)
        if synth is None or n is None:
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
    _checked(problems, check_object, "top level", config,
             ("data", "task", "model", "features", "train", "test_fraction", "seed", "out"),
             ("data", "task", "model"), paths=("out",))
    task = config.get("task")
    if task not in ("classification", "regression"):
        problems.append(f"task must be 'classification' or 'regression', got {task!r}")
    features = _checked(problems, check_object, "features", config.get("features", {})) or {}
    _checked(problems, check_object, "features", features, ("window", "bin_width"))  # entries still checked
    window = features.get("window", 48.0)
    bin_width = features.get("bin_width", 1.0)
    window_ok = _checked(problems, check_real, "features.window", window, 0, strict=True) is not None
    _checked(problems, check_real, "features.bin_width", bin_width, 0, strict=True)

    train = _checked(problems, check_object, "train", config.get("train", {})) or {}
    k = train.get("k", 5)
    runs_per_fold = train.get("runs_per_fold", 10)
    hyper = _checked(problems, from_object, Hyper, "train",
                     {key: value for key, value in train.items() if key not in ("k", "runs_per_fold")})
    _checked(problems, check_int, "train.k", k, 2)
    _checked(problems, check_int, "train.runs_per_fold", runs_per_fold, 1)

    test_fraction = config.get("test_fraction", 0.2)
    if not (isinstance(test_fraction, (int, float)) and 0 < test_fraction < 1):
        problems.append(f"test_fraction must lie in (0, 1), got {test_fraction!r}")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    _checked(problems, check_int, "seed", seed, 0)
    out_dir = args.out or config.get("out")
    _require(out_dir is not None, "no output directory (config 'out' or --out)", problems)

    spec = None  # an absent section is reported above, as a missing key
    if task in ("classification", "regression") and "model" in config:
        spec = _build_model_spec(config["model"], task, window if window_ok else None, problems)
    loaded = _load_dataset(config["data"], problems) if "data" in config else None
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
    save_episodes(os.path.join(out_dir, TEST_EPISODES_FILE), test, schema)
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
    except (TypeError, ValueError, OverflowError):
        problems.append(f"{source} must be comma-separated numbers, got {values!r}")
        return None
    if not fractions or any(not (0 < f <= 1) for f in fractions):
        problems.append(f"{source} must be one or more numbers in (0, 1], got {values!r}")
        return None
    return sorted(set(fractions), reverse=True)


def _load_test_set(run_dir: str, test_ids: list[str]) -> tuple[list, Schema]:
    """The normalized test episodes and schema that `tembed train` saved in
    ``run_dir``, checked against the run's test ids."""
    path = os.path.join(run_dir, TEST_EPISODES_FILE)
    if not os.path.exists(path):
        raise CliError(f"no {TEST_EPISODES_FILE} in {run_dir}; re-run `tembed train` to write it")
    try:
        test, schema = load_episodes(path)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    if sorted(s.episode_id for s in test) != test_ids:
        raise CliError(f"{path}: episode ids differ from the test_ids of {EXPERIMENT_FILE}")
    return test, schema


def _read_experiment(run_dir: str) -> tuple[dict, ModelSpec]:
    """The ``experiment.json`` of a training run and its model spec, with
    every entry the sweep reads checked."""
    path = os.path.join(run_dir, EXPERIMENT_FILE)
    if not os.path.exists(path):
        raise CliError(f"no {EXPERIMENT_FILE} in {run_dir}; run `tembed train` first")
    experiment = read_json_document(path)
    try:
        check_object("experiment", experiment, required=_EXPERIMENT_KEYS)
        spec = ModelSpec.from_dict(experiment["spec"])
        check_real("window", experiment["window"], 0, strict=True)
        check_real("bin_width", experiment["bin_width"], 0, strict=True)
        check_int("seed", experiment["seed"], 0)
        folds = experiment["selected_folds"]
        if not isinstance(folds, list) or not all(type(f) is int and f >= 0 for f in folds):
            raise ValueError(f"selected_folds must be a list of fold numbers, got {folds!r}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    return experiment, spec


def _load_selected_params(run_dir: str, experiment: dict, spec: ModelSpec,
                          schema: Schema) -> dict[int, dict]:
    """The parameters of the run's selected models, each checked against the
    tensors that ``spec`` needs for the run's features."""
    features = build_features([], schema, experiment["window"], experiment["bin_width"], spec)
    width = model_input_width(spec, *features.X.shape[1:])
    needed = {name: arr.shape for name, arr in init_params(spec, width, 0).items()}
    selected: dict[int, dict] = {}
    for f in experiment["selected_folds"]:
        path = os.path.join(run_dir, f"params_fold{f}.npz")
        if not os.path.exists(path):
            raise CliError(f"missing model file {path}")
        try:
            params, _ = load_params(path)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
        shapes = {name: arr.shape for name, arr in params.items()}
        wrong = sorted(name for name in shapes.keys() | needed.keys() if shapes.get(name) != needed.get(name))
        if wrong:
            raise CliError(f"{path}: tensors {wrong} are missing, extra or misshapen "
                           f"for the run's {alias(spec)}")
        selected[f] = params
    return selected


def cmd_sweep(args) -> int:
    config = _load_config(args.config) if args.config else {}
    problems: list[str] = []
    _checked(problems, check_object, "top level", config, ("run_dir", "fractions", "seed", "out"),
             paths=("run_dir", "out"))
    run_dir = args.run_dir or config.get("run_dir")
    _require(run_dir is not None, "no training run directory (config 'run_dir' or --run-dir)", problems)
    if args.keep_fractions:
        tokens = [tok for tok in args.keep_fractions.split(",") if tok.strip()]
        fractions = _parse_fractions(tokens, "--keep-fractions", problems)
    elif "fractions" in config:
        fractions = _parse_fractions(config["fractions"], "config fractions", problems)
    else:
        fractions = list(DEFAULT_FRACTIONS)
    _checked(problems, check_int, "seed",
                   args.seed if args.seed is not None else config.get("seed", 0), 0)
    _fail_if(problems)
    experiment, spec = _read_experiment(run_dir)
    seed = args.seed if args.seed is not None else config.get("seed", experiment["seed"])
    out_dir = args.out or config.get("out") or run_dir
    out_path = os.path.join(out_dir, SWEEP_CSV)
    _refuse_existing(out_path, args.force)

    test, schema = _load_test_set(run_dir, experiment["test_ids"])
    selected_params = _load_selected_params(run_dir, experiment, spec, schema)
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
    _checked(problems, check_object, "top level", config, ("input", "dim", "max_time", "out"),
             paths=("input", "out"))
    input_path = args.input or config.get("input")
    out_path = args.out or config.get("out")
    dim = args.dim if args.dim is not None else config.get("dim", 32)
    max_time = args.max_time if args.max_time is not None else config.get("max_time")
    _require(input_path is not None, "no input CSV (config 'input' or --input)", problems)
    _require(out_path is not None, "no output path (config 'out' or --out)", problems)
    _require(max_time is not None, "no max_time (config 'max_time' or --max-time)", problems)
    cfg = _checked(problems, EncoderConfig.temporal, dim, max_time) if max_time is not None else None
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
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: dataset generation, training, dropout sweeps,
and timestamp encoding, each driven by a JSON config plus a few flag
overrides.

Subcommands:

* ``gen``    write a synthetic dataset (data.csv, labels.csv, schema.json,
             manifest.json) from a SynthConfig;
* ``train``  run the cross-validated protocol on a dataset and write the
             report, summary CSV, selected model parameters and the
             normalized test episodes; with --force over an earlier run,
             it removes that run's ``sweep.csv`` and each
             ``params_fold*.npz`` that it does not rewrite;
* ``sweep``  re-evaluate a finished training run under observation
             dropout and write the fraction-by-metric CSV; it reads only
             the run directory, never the training data, and a damaged
             run file is an error that names the file;
* ``encode`` append time-embedding columns to a CSV of timestamps.

Every command validates its whole config up front, before it reads any data,
and reports all problems at once, refuses to overwrite existing outputs
unless --force is given, and an output of the wrong kind (a file for a
directory or the reverse) or below a file even with it, and is deterministic
for a fixed config and seed. Each config section has one table below, read
by ``_util.check_section``: each key once, with its default and its check; a
dataclass section takes its keys and defaults from its fields and leaves the
checks to its constructor. Flags are merged into the config first, so a flag
value is checked as its config entry is. The train command runs its
fold-by-run grid through ``models.fan_out`` (see there for when workers
fork); its outputs do not depend on the CPU count.
"""

from __future__ import annotations

import argparse
import fnmatch
import numbers
import os
import sys
from functools import partial

import numpy as np

from ._util import (
    PATH,
    REQUIRED,
    TOP,
    Needed,
    atomic_write_text,
    check_int,
    check_object,
    check_real,
    check_section,
    field_table,
    float_repr,
    from_object,
    open_text,
    read_json_document,
    to_object,
    write_json_document,
)
from .benchgen import SynthConfig, gen_dataset, synth_schema
from .dataset import (
    Schema,
    _parse_float,
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
from .encoding import EncoderConfig, _check_window, te_batch
from .models import (
    _ENCODED_MODES,
    TASKS,
    AttentionSpec,
    ModelSpec,
    _layout,
    alias,
    check_task,
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
PARAMS_FILE = "params_fold{}.npz"  # one per selected fold


class CliError(Exception):
    """A user-facing problem: bad config, missing file, refused overwrite."""


COUNT = partial(check_int, low=1)
SEED = partial(check_int, low=0)
POSITIVE = partial(check_real, low=0, strict=True)
_NO_OUT = Needed("no output directory (config 'out' or --out)")


def _fractions(name: str, values) -> list[float]:
    """Keep fractions: one or more numbers in (0, 1], returned unique and descending."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers in (0, 1], got {values!r}")
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{name} must be comma-separated numbers, got {values!r}")
    if not values or not all(0 < v <= 1 for v in values):
        raise ValueError(f"{name} must be one or more numbers in (0, 1], got {values!r}")
    return sorted({float(v) for v in values}, reverse=True)


def _number(text: str):
    """``float(text)``, or ``text`` itself where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _fold_numbers(name: str, folds) -> list[int]:
    if not isinstance(folds, list) or not all(type(f) is int and f >= 0 for f in folds):
        raise ValueError(f"{name} must be a list of fold numbers, got {folds!r}")
    return folds


# One table per config section, {key: (default, check)}; see _util.check_section.
GEN = {"synth": (REQUIRED, partial(from_object, SynthConfig)), "n_episodes": (REQUIRED, COUNT), "out": (_NO_OUT, PATH)}
# data, model, features and train are sections with tables of their own
TRAIN = {"data": (REQUIRED, None), "task": (REQUIRED, check_task), "model": (REQUIRED, None), "features": (None, None),
         "train": (None, None), "test_fraction": (0.2, partial(check_real, low=0, strict=True, below=1)),
         "seed": (0, SEED), "out": (_NO_OUT, PATH)}
DATA = {"synth": (None, partial(from_object, SynthConfig)), "n_episodes": (None, COUNT),
        **dict.fromkeys(("dir", "data_csv", "labels_csv", "schema"), (None, PATH))}
# te_dim and te_max_time (by default features.window) make the encoder config of cat_te and add_te
MODEL = {**{key: entry for key, entry in field_table(ModelSpec).items() if key not in ("task", "te_cfg")},
         "attention": (None, partial(from_object, AttentionSpec)), "te_dim": (32, None), "te_max_time": (None, None)}
FEATURES = {"window": (48.0, POSITIVE), "bin_width": (1.0, POSITIVE)}
PROTOCOL = {**field_table(Hyper), "k": (5, partial(check_int, low=2)), "runs_per_fold": (10, COUNT)}
SWEEP = {"run_dir": (Needed("no training run directory (config 'run_dir' or --run-dir)"), PATH),
         "fractions": (DEFAULT_FRACTIONS, lambda name, values: _fractions(f"config {name}", values)),
         "seed": (None, SEED),  # None: the training run's seed
         "out": (None, PATH)}  # None: the run directory
ENCODE = {"input": (Needed("no input CSV (config 'input' or --input)"), PATH), "dim": (32, None),
          "max_time": (Needed("no max_time (config 'max_time' or --max-time)"), None),
          "out": (Needed("no output path (config 'out' or --out)"), PATH)}
# the experiment.json that `tembed train` writes; the sweep reads the REQUIRED entries
EXPERIMENT = {"spec": (REQUIRED, lambda name, spec: ModelSpec.from_dict(spec)), "window": (REQUIRED, POSITIVE),
              "bin_width": (REQUIRED, POSITIVE), "seed": (REQUIRED, SEED), "test_ids": (REQUIRED, None),
              "selected_folds": (REQUIRED, _fold_numbers),
              **dict.fromkeys(("data", "task", "k", "runs_per_fold", "norm_stats"), (None, None))}


def _load_config(path: str | None, **flags) -> dict:
    """The config document at ``path`` ({} for none), each flag that was given in place
    of its entry."""
    try:
        config = check_object(path, read_json_document(path)) if path else {}
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise CliError(f"config {exc}") from None
    return {**config, **{key: value for key, value in flags.items() if value is not None}}


def _refuse_existing(path: str, force: bool, *, directory: bool) -> None:
    """Refuse an output ``path`` that exists: without --force, and even with it where
    it is a directory and ``directory`` is False or the reverse; and one whose nearest
    existing ancestor is not a directory, as nothing can be written below it."""
    if not os.path.exists(path):
        ancestor = os.path.dirname(path)
        while ancestor and not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if ancestor and not os.path.isdir(ancestor):
            raise CliError(f"cannot write {path}: {ancestor} is not a directory")
        return
    if os.path.isdir(path) != directory:
        raise CliError(f"{path} exists and is {'not ' if directory else ''}a directory")
    if not force:
        raise CliError(f"{path} already exists; pass --force to overwrite")


def _fail_if(problems: list[str]) -> None:
    if problems:
        raise CliError("config problems:\n  " + "\n  ".join(problems))


def cmd_gen(args) -> int:
    config = _load_config(args.config, out=args.out)
    if args.seed is not None and isinstance(config.get("synth"), dict):
        config["synth"] = {**config["synth"], "rng_seed": args.seed}
    problems: list[str] = []
    gen = check_section(TOP, config, GEN, problems)
    _fail_if(problems)

    synth, n_episodes, out_dir = gen["synth"], gen["n_episodes"], gen["out"]
    _refuse_existing(out_dir, args.force, directory=True)
    episodes, manifest = gen_dataset(synth, n_episodes)
    schema = synth_schema(synth)
    write_csv(episodes, schema, os.path.join(out_dir, DATA_FILE), os.path.join(out_dir, LABELS_FILE))
    save_schema(os.path.join(out_dir, SCHEMA_FILE), schema)
    write_json_document(os.path.join(out_dir, MANIFEST_FILE), manifest)
    print(f"wrote {n_episodes} episodes to {out_dir}")
    for key, value in sorted(manifest["class_balance"].items()):
        print(f"{key}: {value:.4f}")
    return 0


def _model_spec(task, window, *, te_dim, te_max_time, attention, **entries) -> ModelSpec:
    """The ModelSpec of a model section. The encoder entries are checked whatever the
    te_mode and the attention entry whatever the family; each is used only where it applies.
    Both embedding regimes' encoders must reach the features' window (None: a window that failed its check)."""
    te_cfg = EncoderConfig.temporal(te_dim, te_max_time)
    spec = ModelSpec(task=task, te_cfg=te_cfg if entries["te_mode"] in _ENCODED_MODES else None,
                     attention=(attention or AttentionSpec()) if entries["family"] == "sa_lstm" else None,
                     **entries)
    if spec.te_cfg is not None and window is not None:
        _check_window(spec.te_cfg, window)
    return spec


def _data_files(data: dict, problems: list[str]) -> dict:
    """The data, labels and schema paths of a checked data section ({} for synth), after
    recording a problem unless it gives exactly one source and each of its files exists.
    Nothing is read."""
    given = [key for key in ("synth", "dir", "data_csv", "labels_csv", "schema") if data[key] is not None]
    if given not in (["synth"], ["dir"], ["data_csv", "labels_csv", "schema"]):
        problems.append("data: needs exactly one source, synth with n_episodes, dir, or data_csv, labels_csv and "
                        f"schema together; got {given or 'none'}")
        return {}
    if data["synth"] is not None:
        if data["n_episodes"] is None:
            problems.append("data: synth needs n_episodes")
        return {}
    names = {"data_csv": DATA_FILE, "labels_csv": LABELS_FILE, "schema": SCHEMA_FILE}
    paths = {key: data[key] if data["dir"] is None else os.path.join(data["dir"], name) for key, name in names.items()}
    problems += [f"data.{key}: file not found ({path})" for key, path in paths.items() if not os.path.exists(path)]
    return paths


def _protocol(k, runs_per_fold, **hyper) -> tuple[Hyper, int, int]:
    return Hyper(**hyper), k, runs_per_fold


def cmd_train(args) -> int:
    config = _load_config(args.config, out=args.out, seed=args.seed)
    problems: list[str] = []
    top = check_section(TOP, config, TRAIN, problems)
    features = check_section("features", config.get("features", {}), FEATURES, problems)
    protocol = check_section("train", config.get("train", {}), PROTOCOL, problems, _protocol)
    # a bad window is listed already; the model takes the default one but is not checked against it
    window = features["window"] if features else FEATURES["window"][0]
    # so is a bad or missing task; the model is checked as a classifier's
    task = config["task"] if config.get("task") in TASKS else TASKS[0]
    spec = data = None  # an absent section is listed above, as a missing key
    if "model" in config:
        spec = check_section("model", config["model"], {**MODEL, "te_max_time": (window, None)}, problems,
                             partial(_model_spec, task, window if features else None))
    if "data" in config:
        data = check_section("data", config["data"], DATA, problems)
    paths = _data_files(data, problems) if data is not None else {}
    _fail_if(problems)
    _refuse_existing(top["out"], args.force, directory=True)

    if data["synth"] is not None:
        episodes, schema = gen_dataset(data["synth"], data["n_episodes"])[0], synth_schema(data["synth"])
    else:
        schema = load_schema(paths["schema"])
        episodes = load_csv(paths["data_csv"], schema, paths["labels_csv"])
    hyper, k, runs_per_fold = protocol
    task, seed, out_dir = top["task"], top["seed"], top["out"]
    window, bin_width = float(features["window"]), float(features["bin_width"])
    stratify = task == "classification"
    pool_raw, test_raw = train_test_split(episodes, top["test_fraction"], [seed, 1], stratify=stratify)
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
    # an earlier run's (--force) sweep and fold models describe models this run did not train
    written = {PARAMS_FILE.format(f) for f in selected}
    for name in [SWEEP_CSV, *fnmatch.filter(os.listdir(out_dir), PARAMS_FILE.format("*"))]:
        if name not in written and os.path.isfile(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))
    atomic_write_text(os.path.join(out_dir, REPORT_JSON), report_to_json(report) + "\n")
    csv_lines = ["model,metric,mean,std,stderr,n"]
    for name, agg in sorted(report["aggregate"].items()):
        csv_lines.append(
            f"{report['model']},{name},{float_repr(agg['mean'])},{float_repr(agg['std'])},"
            f"{float_repr(agg['stderr'])},{agg['n']}"
        )
    atomic_write_text(os.path.join(out_dir, REPORT_CSV), "\n".join(csv_lines) + "\n")
    for f, params in sorted(selected.items()):
        save_params(os.path.join(out_dir, PARAMS_FILE.format(f)), params, spec)
    save_episodes(os.path.join(out_dir, TEST_EPISODES_FILE), test, schema)
    experiment = {
        "data": config["data"],
        "task": task,
        "spec": to_object(spec),
        "window": window,
        "bin_width": bin_width,
        "seed": seed,
        "k": k,
        "runs_per_fold": runs_per_fold,
        "test_ids": sorted(s.episode_id for s in test_raw),
        "selected_folds": sorted(selected),
        "norm_stats": to_object(stats),
    }
    write_json_document(os.path.join(out_dir, EXPERIMENT_FILE), experiment)
    for line in report_summary_lines(report):
        print(line)
    print(f"wrote {out_dir}")
    return 0


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


def _read_experiment(run_dir: str) -> dict:
    """The ``experiment.json`` of a training run, its ``spec`` a ModelSpec, with every
    entry the sweep reads checked."""
    path = os.path.join(run_dir, EXPERIMENT_FILE)
    if not os.path.exists(path):
        raise CliError(f"no {EXPERIMENT_FILE} in {run_dir}; run `tembed train` first")
    problems: list[str] = []
    experiment = check_section("experiment", read_json_document(path), EXPERIMENT, problems)
    if problems:
        raise CliError(f"{path}: {'; '.join(problems)}")
    return experiment


def _load_selected_params(run_dir: str, experiment: dict, schema: Schema) -> dict[int, dict]:
    """The parameters of the run's selected models, each checked against the
    tensors that its spec needs for the run's features."""
    spec = experiment["spec"]
    features = build_features([], schema, experiment["window"], experiment["bin_width"], spec)
    width = model_input_width(spec, *features.X.shape[1:])
    needed = {name: shape for name, shape, _ in _layout(spec, width)}
    selected: dict[int, dict] = {}
    for f in experiment["selected_folds"]:
        path = os.path.join(run_dir, PARAMS_FILE.format(f))
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
    # --keep-fractions goes in as a list, each token a number where it parses as one
    flag = ([_number(tok) for tok in args.keep_fractions.split(",") if tok.strip()]
            if args.keep_fractions is not None else None)
    config = _load_config(args.config, run_dir=args.run_dir, seed=args.seed, out=args.out, fractions=flag)
    problems: list[str] = []
    sweep = check_section(TOP, config, SWEEP, problems)
    _fail_if(problems)
    run_dir = sweep["run_dir"]
    experiment = _read_experiment(run_dir)
    seed = experiment["seed"] if sweep["seed"] is None else sweep["seed"]
    out_dir = sweep["out"] or run_dir
    out_path = os.path.join(out_dir, SWEEP_CSV)
    _refuse_existing(out_dir, force=True, directory=True)  # by default the run directory, which exists
    _refuse_existing(out_path, args.force, directory=False)

    test, schema = _load_test_set(run_dir, experiment["test_ids"])
    selected_params = _load_selected_params(run_dir, experiment, schema)
    rows = sweep_dropout(experiment["spec"], selected_params, test, schema,
                         experiment["window"], experiment["bin_width"],
                         fractions=sweep["fractions"], base_seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(out_path, sweep_to_csv(rows))
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def cmd_encode(args) -> int:
    config = _load_config(args.config, input=args.input, dim=args.dim, max_time=args.max_time, out=args.out)
    problems: list[str] = []
    encode = check_section(TOP, config, ENCODE, problems, lambda dim, max_time, **paths: {
        **paths, "cfg": EncoderConfig.temporal(dim, max_time)})
    _fail_if(problems)
    input_path, out_path, cfg = encode["input"], encode["out"], encode["cfg"]
    if not os.path.exists(input_path):
        raise CliError(f"input file not found: {input_path}")
    _refuse_existing(out_path, args.force, directory=False)

    with open_text(input_path) as fh:
        lines = fh.read().split("\n")  # \r\n and \r read as \n; splitlines would also split at \f, \x85, ...
    if lines == [""]:
        raise CliError(f"{input_path} is empty; expected a header row")
    header = lines[0]
    if "," in header:
        raise CliError(f"{input_path}: expected a single timestamp column, header is {header!r}")
    times = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        t = _parse_float(line, "timestamp", line_no)
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

"""Malformed configs for every command, drawn with ``hypothesis``.

Each example starts from a tiny valid config (a logistic regression, k=2,
R=1, one epoch, 28 inline synthetic episodes) and replaces one entry or
section with a bool, null, NaN, a string, a negative, a float where an int
belongs, a list or an object, or adds an unknown key to one section. Every
run must end in exit 0, or in exit 1 with an ``error:`` line; an exception
escaping ``main`` is a failure. Strings are drawn from ``"ab. "`` so that a
drawn output path stays inside the example's working directory. Tiny
positive ``bin_width``s are never drawn: they size the feature grid, which is
a separate question. Pinned ``@example`` cases are failures this test found,
now mended.

A second property puts a value of the wrong JSON kind under one key: a list,
object, string or bool where a number belongs, a non-list where a list
belongs, a non-bool for ``value_mix`` and a non-object for ``model.attention``.
Every such config must exit 1 with its problem listed, whatever the model
family leaves unused.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tembed.cli import main

SYNTH = {"n_channels": 2, "rate_per_hour": 0.9, "window_hours": 12.0,
         "task": "timing_classification", "gap_threshold_hours": 3.0, "rng_seed": 7}
MODEL_KEYS = ("family", "hidden", "te_mode", "te_dim", "te_max_time", "head_widths", "mlp_widths",
              "attention")


def base_config(command, run_dir, work):
    """The tiny valid config of ``command``, writing under ``work``."""
    out = os.path.join(work, "out")
    return {
        "gen": {"synth": dict(SYNTH), "n_episodes": 28, "out": out},
        "train": {"data": {"synth": dict(SYNTH), "n_episodes": 28}, "task": "classification",
                  "model": {"family": "logreg"}, "features": {"window": 12.0, "bin_width": 2.0},
                  "train": {"epochs": 1, "batch_size": 8, "k": 2, "runs_per_fold": 1},
                  "test_fraction": 0.25, "seed": 3, "out": out},
        "sweep": {"run_dir": run_dir, "fractions": [1.0, 0.5], "seed": 0, "out": out},
        "encode": {"input": os.path.join(work, "times.csv"), "dim": 4, "max_time": 48.0,
                   "out": os.path.join(work, "encoded.csv")},
    }[command]


# every entry a drawn value may replace, known keys that the base leaves out included
SLOTS = {
    "gen": [("synth",), ("n_episodes",), ("out",), *(("synth", key) for key in SYNTH)],
    "train": [("data",), ("task",), ("model",), ("features",), ("train",), ("test_fraction",), ("seed",),
              ("out",), ("data", "synth"), ("data", "n_episodes"), ("data", "dir"), ("data", "data_csv"),
              *(("data", "synth", key) for key in SYNTH), *(("model", key) for key in MODEL_KEYS),
              ("features", "window"), ("features", "bin_width"),
              *(("train", key) for key in ("lr", "epochs", "batch_size", "weight_decay", "k",
                                           "runs_per_fold"))],
    "sweep": [("run_dir",), ("fractions",), ("seed",), ("out",)],
    "encode": [("input",), ("dim",), ("max_time",), ("out",)],
}
SECTIONS = {"gen": [(), ("synth",)], "sweep": [()], "encode": [()],
            "train": [(), ("data",), ("data", "synth"), ("model",), ("features",), ("train",)]}
UNKNOWN = object()  # adds the key "bogus" to the section instead of replacing an entry

VALUES = st.one_of(
    st.booleans(), st.none(), st.just(math.nan), st.text(st.sampled_from("ab. "), max_size=3),
    st.sampled_from([-1, -2.5]), st.sampled_from([1.5, 2.5]),
    st.lists(st.sampled_from([1, 2, "a", None]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "bogus"]), st.integers(0, 2), max_size=1),
)

LISTS = st.lists(st.sampled_from([1, 0.5, "a"]), max_size=2)
OBJECTS = st.dictionaries(st.sampled_from(["a", "0.5"]), st.integers(0, 2), max_size=1)
TEXT = st.text(st.sampled_from("ab.1 "), max_size=3)
NOT_A_NUMBER = st.one_of(LISTS, OBJECTS, TEXT, st.booleans())
NOT_A_LIST = st.one_of(st.sampled_from([1, 0.5]), OBJECTS, TEXT, st.booleans(), st.none())
NOT_A_BOOL = st.one_of(st.sampled_from([0, 1, 0.5]), LISTS, OBJECTS, TEXT, st.none())
NOT_AN_OBJECT = st.one_of(st.sampled_from([1, 0.5]), LISTS, TEXT, st.booleans())
SYNTH_NUMBERS = ("n_channels", "rate_per_hour", "window_hours", "gap_threshold_hours", "rng_seed")
# (slot, values of a kind its entry never takes) for each command
WRONG_KINDS = {
    "gen": [(("n_episodes",), NOT_A_NUMBER), *((("synth", key), NOT_A_NUMBER) for key in SYNTH_NUMBERS),
            (("synth", "value_mix"), NOT_A_BOOL)],
    "train": [*(((key,), NOT_A_NUMBER) for key in ("test_fraction", "seed")),
              (("data", "n_episodes"), NOT_A_NUMBER), *((("data", "synth", key), NOT_A_NUMBER) for key in SYNTH_NUMBERS),
              (("data", "synth", "value_mix"), NOT_A_BOOL),
              *((("model", key), NOT_A_NUMBER) for key in ("hidden", "te_dim", "te_max_time")),
              *((("model", key), NOT_A_LIST) for key in ("head_widths", "mlp_widths")),
              (("model", "attention"), NOT_AN_OBJECT),
              *((("features", key), NOT_A_NUMBER) for key in ("window", "bin_width")),
              *((("train", key), NOT_A_NUMBER) for key in ("lr", "epochs", "batch_size", "weight_decay", "k",
                                                           "runs_per_fold"))],
    "sweep": [(("seed",), NOT_A_NUMBER), (("fractions",), NOT_A_LIST)],
    "encode": [(("dim",), NOT_A_NUMBER), (("max_time",), NOT_A_NUMBER)],
}
WRONG_KIND_CASES = st.one_of(*(st.tuples(st.just(command), st.just(slot), values)
                               for command, slots in WRONG_KINDS.items() for slot, values in slots))


def mutations(command):
    return st.one_of(st.tuples(st.sampled_from(SLOTS[command]), VALUES),
                     st.tuples(st.sampled_from(SECTIONS[command]), st.just(UNKNOWN)))


def mutate(config, path, value):
    section = config
    for key in path[:-1] if value is not UNKNOWN else path:
        section = section[key]
    if value is UNKNOWN:
        section["bogus"] = 1
    else:
        section[path[-1]] = value


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("fuzz_run"))
    config = base_config("train", None, work)
    path = os.path.join(work, "train.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert main(["train", "--config", path]) == 0
    return config["out"]


def run_config(command, run_dir, mutation=None):
    """The exit code and stderr of ``command`` on its base config, ``mutation`` applied."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        config = copy.deepcopy(base_config(command, run_dir, work))
        if mutation is not None:
            mutate(config, *mutation)
        with open(os.path.join(work, "times.csv"), "w") as fh:
            fh.write("t\n0.5\n1.0\n")  # inside every max_time drawn, so nothing aliases
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(config, fh)
        stderr = io.StringIO()
        os.chdir(work)  # a drawn relative path lands here
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main([command, "--config", os.path.join(work, "config.json")])
        finally:
            os.chdir(cwd)
    return code, stderr.getvalue()


def check_command(command, run_dir, mutation):
    code, stderr = run_config(command, run_dir, mutation)
    error_line = any(line.startswith("error: ") for line in stderr.splitlines())
    assert (code == 0 or (code == 1 and error_line)) and "Traceback" not in stderr, (code, stderr)


@pytest.mark.parametrize("command", sorted(SLOTS))
def test_base_configs_run(run_dir, command):
    assert run_config(command, run_dir)[0] == 0


@settings(max_examples=200)
@given(mutation=mutations("train"))
@example(mutation=(("data",), None))
@example(mutation=(("features", "window"), 10**400))  # an int no float holds
def test_train_configs_run_or_name_the_problem(run_dir, mutation):
    check_command("train", run_dir, mutation)


@settings(max_examples=80)
@given(mutation=mutations("gen"))
@example(mutation=(("synth",), None))
@example(mutation=(("n_episodes",), None))
def test_gen_configs_run_or_name_the_problem(run_dir, mutation):
    check_command("gen", run_dir, mutation)


@settings(max_examples=50)
@given(mutation=mutations("sweep"))
@example(mutation=(("run_dir",), False))
@example(mutation=(("fractions",), [10**400]))
def test_sweep_configs_run_or_name_the_problem(run_dir, mutation):
    check_command("sweep", run_dir, mutation)


@settings(max_examples=50)
@given(mutation=mutations("encode"))
@example(mutation=(("out",), False))
@example(mutation=(("input",), math.nan))
def test_encode_configs_run_or_name_the_problem(run_dir, mutation):
    check_command("encode", run_dir, mutation)


@settings(max_examples=60)
@given(case=WRONG_KIND_CASES)
@example(case=("gen", ("synth", "value_mix"), "no"))
@example(case=("sweep", ("fractions",), "1"))
@example(case=("sweep", ("fractions",), {"0.5": 1}))
@example(case=("train", ("model", "te_dim"), []))
@example(case=("train", ("model", "te_max_time"), "x"))
@example(case=("train", ("model", "attention"), []))
def test_a_value_of_the_wrong_kind_is_a_named_problem(run_dir, case):
    command, slot, value = case
    code, stderr = run_config(command, run_dir, (slot, value))
    assert code == 1 and stderr.startswith("error: config problems:\n  "), (code, stderr)

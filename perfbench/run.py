"""Benchmark for the tembed pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Workloads (see workloads.py for why each exists): timing_lstm, wide_sweep,
quickstart_cv. A run sets up the workload's inputs at least five times and
for at least three seconds (the median is ``setup_s``), runs one untimed
warm-up repetition, then repeats the workload's timed operation for about
``--seconds`` seconds. The host-speed kernel of calib.py runs before and
after every set-up and every timed stage, and each timing is reported in
reference-host seconds (the raw clock readings are reported beside). Every
repetition's outputs are checked: no divergence, the same digest as the
warm-up, and quality equal to the value recorded in reference.json for
that seed (where one is recorded). A repetition that fails any check
counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced repetitions alternate: the traced
ones run with the wrappers of spans.py installed and give the per-layer
metrics, and the difference between the two kinds is reported as the
tracing overhead. Human-readable lines above the result show every metric
with its unit; the full record (fingerprint, samples, failures) goes to
``DIR/<workload>-seed<N>-trace<T>.json`` and a traced run's spans to
``DIR/<workload>-seed<N>.spans.jsonl`` (DIR defaults to perfbench/out).

Seeds from 1000 up are held out: tune on smaller seeds, then confirm a
claim on held-out ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import env
import spans
import stats

HELD_OUT_FROM = 1000
SETUPS = 5  # set-ups per run at least; cheap ones repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
MAX_SETUPS = 25
MIN_REPS = 3  # timed repetitions per run at least; a traced run needs 2 of each kind
QUALITY_RTOL = 1e-6


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory for the run record and spans")
    return p.parse_args(argv)


def _tree_hash(directory: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("__", ".")) and d != "out")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, directory).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(workload, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    config = json.dumps(workload.config, sort_keys=True, separators=(",", ":"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in env.BLAS_THREAD_VARS},
        "workload": workload.name,
        "seed": seed,
        "seed_role": "held-out" if seed >= HELD_OUT_FROM else "tuning",
        "config_hash": hashlib.sha256(config.encode()).hexdigest()[:16],
        "program_hash": _tree_hash(os.path.join(env.SRC, "tembed")),
        "benchmark_hash": _tree_hash(os.path.dirname(os.path.abspath(__file__))),
    }


def _quality_failures(quality: dict, reference: dict | None) -> list[str]:
    failures = []
    for name, value in quality.items():
        if not math.isfinite(value):
            failures.append(f"{name} is {value}")
        elif name == "test_auc" and not 0.0 <= value <= 1.0:
            failures.append(f"{name} {value} outside [0, 1]")
        elif reference is not None and name in reference:
            ref = reference[name]
            if abs(value - ref) > QUALITY_RTOL * max(1.0, abs(ref)):
                failures.append(f"{name} {value!r} differs from reference {ref!r}")
    return failures


class Runner:
    """Times and checks repetitions of one workload."""

    def __init__(self, workload, reference: dict | None, recorder=None) -> None:
        self.workload = workload
        self.reference = reference
        self.recorder = recorder
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def repetition(self, state, traced: bool) -> dict | None:
        """One checked repetition; returns its timings, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            if traced:
                self.recorder.install()
                try:
                    with self.recorder.span(spans.ROOT) as root:
                        timer, output = self.workload.run(state, calibrate=False)
                finally:
                    self.recorder.uninstall()
            else:
                timer, output = self.workload.run(state, calibrate=True)
                root = None
            quality, digest, work, failures = self.workload.check(state, output)
        except Exception:  # a repetition that raises is a failed operation; keep measuring
            self._fail(self.attempted, [traceback.format_exc(limit=3).strip()])
            return None
        failures += _quality_failures(quality, self.reference)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("outputs differ from the warm-up repetition" + (" (traced)" if traced else ""))
        if failures:
            self._fail(self.attempted, failures)
            return None
        rep = {"wall": sum(timer.stages.values()), "stages": timer.stages, "work": work,
               "quality": quality, "root": root}
        if timer.host is not None:
            rep["host"] = timer.host
            rep["scaled"] = timer.scaled()
            rep["slowdown"] = rep["wall"] / sum(rep["scaled"].values())
        return rep

    def _fail(self, rep: int, messages: list[str]) -> None:
        self.failed += 1
        self.failures += [f"repetition {rep}: {m}" for m in messages]


def _summary(samples: list[float], unit: str, better: str, bound: float | None) -> dict:
    q1, q3 = stats.quartiles(samples)
    entry = {"value": stats.median(samples), "unit": unit, "better": better, "q1": q1, "q3": q3,
             "n": len(samples), "samples": samples}
    t = stats.tail(samples)
    if t is not None:
        entry["tail_pct"], entry["tail"] = t
    if bound is not None:
        entry["bound"] = bound
    return entry


RATE_NAMES = {"train_s": "train_episode_epochs_per_s", "sweep_s": "sweep_episodes_per_s"}


def end_to_end(workload, setups: list[float], scaled_setups: list[float], reps: list[dict],
               failed: int, attempted: int, bounds: dict) -> dict:
    """Every end-to-end figure of the workload, by name.

    Timings are in reference-host seconds (see calib.py); ``raw_setup_s``,
    ``raw_wall_s`` and ``host_slowdown`` show what the clock read and how
    busy the host was.
    """
    wall_bound = bounds["wall_s"]
    out = {
        "setup_s": _summary(scaled_setups, "s", "lower", bounds["setup_s"]),
        "wall_s": _summary([sum(r["scaled"].values()) for r in reps], "s", "lower", wall_bound),
    }
    for stage in workload.stages:
        out[stage] = _summary([r["scaled"][stage] for r in reps], "s", "lower", wall_bound)
    if workload.total_name:
        out[workload.total_name] = _summary([sum(r["scaled"].values()) for r in reps], "s",
                                            "lower", wall_bound)
    for stage, name in RATE_NAMES.items():
        if stage in reps[0]["work"]:
            out[name] = _summary([r["work"][stage] / r["scaled"][stage] for r in reps], "1/s",
                                 "higher", wall_bound)
    out["raw_setup_s"] = _summary(setups, "s", "lower", None)
    out["raw_wall_s"] = _summary([r["wall"] for r in reps], "s", "lower", None)
    out["host_slowdown"] = _summary([r["slowdown"] for r in reps], "x", "lower", None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = _summary([rss_mb], "MB", "lower", bounds["peak_rss_mb"])
    out["failed_fraction"] = _summary([failed / attempted], "ratio", "lower", 0.0)
    for name in workload.quality:
        unit, better = ("AUC", "higher") if name == "test_auc" else ("h", "lower")
        out[name] = _summary([reps[0]["quality"][name]], unit, better, 0.0)
    return out


def _print_metric(name: str, m: dict) -> None:
    line = f"  {name:<28} {m['value']:.6g} {m['unit']}"
    if m["n"] > 1:
        line += f"  (median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}"
        line += f"; p{m['tail_pct']:.0f} {m['tail']:.6g})" if "tail" in m else "; no tail percentile)"
    print(line)


def _trace_report(recorder, plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer figures plus the tracing overhead, and whether the traced
    repetitions' self times add up to the untraced wall time within it."""
    layers = spans.layer_metrics(recorder, [r["root"] for r in traced])
    plain_ms = stats.median([r["wall"] for r in plain]) * 1e3
    traced_ms = stats.median([r["wall"] for r in traced]) * 1e3
    layers["trace.wall_ms"] = traced_ms
    layers["trace.untraced_wall_ms"] = plain_ms
    layers["trace.overhead_ms"] = traced_ms - plain_ms
    layers["trace.overhead_frac"] = (traced_ms - plain_ms) / plain_ms
    gap = abs(layers["trace.self_sum_ms"] - plain_ms)
    within = gap <= abs(layers["trace.overhead_ms"]) + 1.0  # 1 ms for clock reads outside spans
    print("per layer (per traced repetition):")
    for name in sorted(layers):
        print(f"  {name:<44} {layers[name]:.6g}")
    print(f"self times sum to {layers['trace.self_sum_ms']:.2f} ms against an untraced "
          f"wall of {plain_ms:.2f} ms: gap {gap:.2f} ms, tracing overhead "
          f"{layers['trace.overhead_ms']:.2f} ms: {'within' if within else 'NOT within'} it")
    return layers, within


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        root = env.prepare()
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    import calib
    import workloads

    out_dir = os.path.abspath(args.out or os.path.join(here, "out"))
    try:
        workload = workloads.make(args.workload, out_dir)
    except KeyError:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(here, "reference.json")) as fh:
        reference = json.load(fh)["quality"].get(workload.name, {}).get(str(args.seed))
    print(f"workload {workload.name}: {workload.why}")
    fp = fingerprint(workload, args.seed)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if reference is None:
        print(f"no reference quality recorded for seed {args.seed}; checking repeatability only")

    recorder = spans.Recorder() if args.trace else None
    runner = Runner(workload, reference, recorder)
    setups = []
    state = None
    try:
        setup_host = [calib.measure()]
        while len(setups) < SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
            if state is not None:
                workload.teardown(state)
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(args.seed)
            setups.append(time.perf_counter() - t0)
            setup_host.append(calib.measure())
        runner.repetition(state, traced=False)  # warm-up: checked, not timed
        plain, traced = [], []
        start = time.perf_counter()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if args.trace:
                enough = min(len(plain), len(traced)) >= 2
            else:
                enough = len(plain) >= MIN_REPS
            if enough and elapsed + last > args.seconds:
                break
            if elapsed > 2 * args.seconds:
                break
            tracing = bool(args.trace) and len(traced) < len(plain)
            rep = runner.repetition(state, traced=tracing)
            if rep is not None:
                (traced if tracing else plain).append(rep)
                last = rep["wall"]
    finally:
        if state is not None:
            workload.teardown(state)

    for message in runner.failures:
        print(f"FAILED {message}")
    if not plain or (args.trace and not traced):
        print("error: no repetition succeeded; nothing to report", file=sys.stderr)
        return 1

    scaled_setups = [calib.scale(t, setup_host[i], setup_host[i + 1]) for i, t in enumerate(setups)]
    e2e = end_to_end(workload, setups, scaled_setups, plain, runner.failed, runner.attempted,
                     bounds)
    print("end-to-end:")
    for name, m in e2e.items():
        _print_metric(name, m)
    record = {"fingerprint": fp, "workload": workload.name, "seed": args.seed,
              "trace": args.trace, "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.failures, "end_to_end": e2e,
              "calibration": {"ref_s": calib.REF_S, "setups": setup_host,
                              "repetitions": [r["host"] for r in plain]}}
    if args.trace:
        record["per_layer"], record["self_times_within_overhead"] = _trace_report(
            recorder, plain, traced)
        recorder.write(os.path.join(out_dir, f"{workload.name}-seed{args.seed}.spans.jsonl"))

    listed = contract["per_layer"] if args.trace else contract["end_to_end"]
    values = record["per_layer"] if args.trace else {k: v["value"] for k, v in e2e.items()}
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run did not produce: {missing}",
              file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

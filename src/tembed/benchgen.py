"""Synthetic benchmark: irregular episodes whose labels depend on WHEN
observations happened, not on what was measured.

Each channel of an episode is sampled from a homogeneous Poisson process
over the window; values are standard normal noise. Labels are functionals
of the channel-0 observation times, with the window edges counted as gap
boundaries:

* ``timing_classification``: 1 iff the largest gap between consecutive
  channel-0 events (including the stretches before the first and after the
  last event) exceeds the threshold;
* ``elapsed_regression``: the sum of those gaps, each capped at the
  threshold (hours).

Because values carry no label information, any model whose features
discard observation timing can do no better than guessing, which is what
makes this dataset a ground-truth oracle for time-encoding claims. The
optional ``value_mix`` flag blends a value statistic into the label for
experiments that want both kinds of signal.

Generation is deterministic: episode i is drawn from a counter-based
stream keyed by (rng_seed, i), so datasets are reproducible across
platforms and episodes can be generated in any order or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import RNG_ALGORITHM, canonical_json, check_int, check_real, from_object, make_rng, sha256_hex, to_object
from .dataset import ChannelSpec, IrregularSeries, Schema

TASKS = ("timing_classification", "elapsed_regression")

# value_mix blends this many sigmas of the channel-0 value maximum into
# classification labels; see _value_signal.
_VALUE_MIX_CUTOFF = 2.0


@dataclass(frozen=True)
class SynthConfig:
    """Shape of the synthetic task: arrival rate, window, label rule, seed."""

    n_channels: int = 18
    rate_per_hour: float = 0.5
    window_hours: float = 48.0
    task: str = "timing_classification"
    gap_threshold_hours: float = 6.0
    rng_seed: int = 0
    value_mix: bool = False

    def __post_init__(self) -> None:
        check_int("n_channels", self.n_channels, 1)
        check_int("rng_seed", self.rng_seed, 0)
        check_real("rate_per_hour", self.rate_per_hour, 0, strict=True)
        check_real("window_hours", self.window_hours, 0, strict=True)
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if not isinstance(self.value_mix, bool):
            raise ValueError(f"value_mix must be true or false, got {self.value_mix!r}")
        if check_real("gap_threshold_hours", self.gap_threshold_hours, 0, strict=True) >= self.window_hours:
            raise ValueError(
                f"gap_threshold_hours must lie in (0, window), got {self.gap_threshold_hours}"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        return from_object(cls, "synth config", d)


def synth_schema(cfg: SynthConfig) -> Schema:
    """All-real channels named ch00, ch01, ..."""
    width = max(2, len(str(cfg.n_channels - 1)))
    return Schema(
        channels=tuple(
            ChannelSpec(name=f"ch{ch:0{width}d}", kind="real") for ch in range(cfg.n_channels)
        )
    )


def _augmented_gaps(times: np.ndarray, window: float) -> np.ndarray:
    """Gaps between consecutive events with the window edges as boundaries.

    No events at all means one gap spanning the whole window.
    """
    edges = np.concatenate(([0.0], np.sort(times), [window]))
    return np.diff(edges)


def _value_signal(series: IrregularSeries, cutoff: float) -> bool:
    values = series.values[series.channel_idx == 0]
    return values.size > 0 and float(values.max()) > cutoff


def oracle_label(series: IrregularSeries, cfg: SynthConfig) -> float:
    """Recompute the label from raw timestamps (and values when mixed)."""
    gaps = _augmented_gaps(series.times[series.channel_idx == 0], cfg.window_hours)
    if cfg.task == "timing_classification":
        label = 1.0 if float(gaps.max()) > cfg.gap_threshold_hours else 0.0
        if cfg.value_mix and _value_signal(series, _VALUE_MIX_CUTOFF):
            label = 1.0
        return label
    capped = float(np.minimum(gaps, cfg.gap_threshold_hours).sum())
    if cfg.value_mix:
        values = series.values[series.channel_idx == 0]
        capped += float(values.mean()) if values.size else 0.0
        capped = max(capped, 0.0)
    return capped


def gen_episode(cfg: SynthConfig, episode_index: int) -> IrregularSeries:
    """Draw one episode from the stream keyed by (cfg.rng_seed, episode_index)."""
    if episode_index < 0:
        raise ValueError(f"episode_index must be >= 0, got {episode_index}")
    rng = make_rng([cfg.rng_seed, episode_index])
    all_times = []
    all_chans = []
    all_values = []
    for ch in range(cfg.n_channels):
        n = int(rng.poisson(cfg.rate_per_hour * cfg.window_hours))
        times = np.sort(rng.uniform(0.0, cfg.window_hours, size=n))
        values = rng.standard_normal(n)
        all_times.append(times)
        all_chans.append(np.full(n, ch, dtype=np.int64))
        all_values.append(values)
    series = IrregularSeries(
        episode_id=f"ep{episode_index:06d}",
        times=np.concatenate(all_times),
        channel_idx=np.concatenate(all_chans),
        values=np.concatenate(all_values),
    )
    series.label = oracle_label(series, cfg)
    return series


def gen_dataset(cfg: SynthConfig, n_episodes: int) -> tuple[list[IrregularSeries], dict]:
    """Generate ``n_episodes`` labeled episodes plus a reproducibility manifest.

    The manifest records the config, its hash, the RNG algorithm and
    per-episode seeding rule, and the class balance, and contains nothing
    volatile, so identical inputs give a byte-identical manifest.
    """
    check_int("n_episodes", n_episodes, 1)
    episodes = [gen_episode(cfg, i) for i in range(n_episodes)]
    labels = np.array([ep.label for ep in episodes])
    balance: dict[str, float]
    if cfg.task == "timing_classification":
        balance = {"positive_rate": float(labels.mean())}
    else:
        balance = {"label_mean": float(labels.mean()), "label_std": float(labels.std())}
    config_dict = to_object(cfg)
    manifest = {
        "config": config_dict,
        "config_hash": sha256_hex(canonical_json({"config": config_dict, "n_episodes": n_episodes}).encode()),
        "n_episodes": n_episodes,
        "rng_algorithm": RNG_ALGORITHM,
        "episode_seed_rule": "stream keyed by [rng_seed, episode_index]",
        "class_balance": balance,
    }
    return episodes, manifest


def expected_count_bounds(cfg: SynthConfig, n_episodes: int, n_sigma: float = 3.0) -> tuple[float, float]:
    """3-sigma band for the mean per-channel observation count over a dataset."""
    lam = cfg.rate_per_hour * cfg.window_hours
    sigma = math.sqrt(lam / n_episodes)
    return lam - n_sigma * sigma, lam + n_sigma * sigma

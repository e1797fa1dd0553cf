"""Sinusoidal encodings of integer positions and continuous timestamps.

An :class:`EncoderConfig` fixes an even dimension ``dim`` and a base, and
every encoding interleaves sine/cosine pairs, one pair per frequency:

    values[2i]   = sin(t / base**(2i/dim))
    values[2i+1] = cos(t / base**(2i/dim))        i in [0, dim/2)

Positional configs use base 10000 and integer positions; temporal configs
use base ``max_time`` and real timestamps expressed in the same unit as
``max_time`` (hours everywhere in this package).

Three structural facts make these encodings useful as model inputs:

* every pair lies on the unit circle, so ``|enc(t)|^2 == dim/2`` for any t
  (no large feature values, no matter how large the time gap);
* advancing time by a fixed offset k is a linear map: a block-diagonal
  2x2 rotation per pair (:func:`shift_map`), independent of t;
* consequently the offset between two encodings can be recovered with no
  trainable machinery (:func:`estimate_delta`), up to the half-period of
  the slowest sinusoid.

Times beyond the base are accepted but alias (the slowest pair wraps);
a one-time :class:`AliasingWarning` is emitted when that happens.

All functions here are pure: no mutable state, bit-identical outputs for
identical inputs, safe to call from any number of threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import check_int, check_real

POSITIONAL_BASE = 10000.0

_TWO_PI = 2.0 * math.pi


class AliasingWarning(UserWarning):
    """A time beyond the encoder base was encoded; values wrap around."""


class InvalidEmbeddingError(ValueError):
    """A vector handed to delta recovery is not a valid sinusoidal encoding."""


class DeltaAmbiguityError(ValueError):
    """The requested offset range exceeds what the slowest pair can resolve."""


@dataclass(frozen=True)
class EncoderConfig:
    """Dimension and base of one sinusoidal encoding family.

    ``base_kind`` selects the base: ``"positional"`` pins it to 10000,
    ``"temporal"`` uses ``max_time``. ``dim`` must be even and >= 2,
    ``max_time`` positive and finite.
    """

    dim: int
    max_time: float
    base_kind: str = "temporal"

    def __post_init__(self) -> None:
        if check_int("dim", self.dim, 2) % 2 != 0:
            raise ValueError(f"dim must be an even integer >= 2, got {self.dim}")
        check_real("max_time", self.max_time, 0, strict=True)
        if self.base_kind not in ("positional", "temporal"):
            raise ValueError(f"base_kind must be 'positional' or 'temporal', got {self.base_kind!r}")

    @classmethod
    def positional(cls, dim: int) -> "EncoderConfig":
        return cls(dim=dim, max_time=POSITIONAL_BASE, base_kind="positional")

    @classmethod
    def temporal(cls, dim: int, max_time: float) -> "EncoderConfig":
        # checked before float() turns a bool into a number
        return cls(dim=dim, max_time=float(check_real("max_time", max_time, 0, strict=True)),
                   base_kind="temporal")

    @property
    def base(self) -> float:
        return POSITIONAL_BASE if self.base_kind == "positional" else float(self.max_time)


def frequencies(cfg: EncoderConfig) -> np.ndarray:
    """Angular frequencies of the dim/2 pairs: base**(-2i/dim), i = 0..dim/2-1.

    Pair 0 oscillates fastest (frequency 1); the last pair is slowest and
    sets both the aliasing horizon and the delta-recovery range.
    """
    i = np.arange(cfg.dim // 2, dtype=np.float64)
    return cfg.base ** (-2.0 * i / cfg.dim)


_ALIAS_MESSAGE = (
    "encoding a time beyond the base (max_time for temporal configs, 10000 for "
    "positional): the slowest sinusoid wraps and distinct times may collide"
)


def _warn_if_aliasing(t_max: float, cfg: EncoderConfig) -> None:
    if t_max > cfg.base:
        warnings.warn(_ALIAS_MESSAGE, AliasingWarning, stacklevel=3)


def _check_window(cfg: EncoderConfig, window: float) -> None:
    """Refuse a config whose max_time is below ``window``: gaps up to the window would alias."""
    if cfg.max_time < window:
        raise ValueError(f"encoder max_time {cfg.max_time:g} is smaller than the window {window:g}; "
                         "observation gaps would alias")


def _encode(times: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    angles = times[:, None] * frequencies(cfg)[None, :]
    out = np.empty((times.shape[0], cfg.dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def te(time: float, cfg: EncoderConfig) -> np.ndarray:
    """Encode one continuous timestamp under a temporal config.

    ``time`` must be finite and >= 0; values beyond ``max_time`` alias and
    trigger a one-time AliasingWarning. This is row 0 of ``te_batch``.
    """
    return te_batch(np.array([float(time)]), cfg)[0]


def pe(pos: int, cfg: EncoderConfig) -> np.ndarray:
    """Encode one integer position under a positional (base 10000) config.

    Positions beyond 10000 alias, mirroring the temporal case.
    """
    if cfg.base_kind != "positional":
        raise ValueError("pe() requires a positional config; use te() for temporal ones")
    if isinstance(pos, bool) or not isinstance(pos, (int, np.integer)):
        raise ValueError(f"pos must be a non-negative integer, got {pos!r}")
    if pos < 0:
        raise ValueError(f"pos must be a non-negative integer, got {pos!r}")
    _warn_if_aliasing(float(pos), cfg)
    return _encode(np.array([float(pos)], dtype=np.float64), cfg)[0]


def te_batch(times, cfg: EncoderConfig) -> np.ndarray:
    """Encode a vector of timestamps; row j equals ``te(times[j], cfg)``.

    An empty input yields an empty (0, dim) matrix. Invalid entries are
    reported with their row index.
    """
    if cfg.base_kind != "temporal":
        raise ValueError("te_batch() requires a temporal config")
    arr = np.asarray(times, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"times must be a 1-d vector, got shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"times[{row}] is not finite: {arr[row]!r}")
    neg = arr < 0
    if neg.any():
        row = int(np.argmax(neg))
        raise ValueError(f"times[{row}] is negative: {arr[row]!r}")
    _warn_if_aliasing(float(arr.max(initial=0.0)), cfg)
    return _encode(arr, cfg)


@dataclass(frozen=True)
class ShiftMap:
    """Linear map advancing every encoding of one config by a fixed offset.

    ``angles[i]`` is the rotation applied to pair i; the full map is the
    block-diagonal stack of the dim/2 plane rotations.
    """

    angles: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Rotate one encoding (dim,) or a stack (n, dim) of them."""
        v = np.asarray(vec, dtype=np.float64)
        if v.shape[-1] != 2 * self.angles.shape[0]:
            raise ValueError(
                f"vector has {v.shape[-1]} components, map expects {2 * self.angles.shape[0]}"
            )
        cos_a = np.cos(self.angles)
        sin_a = np.sin(self.angles)
        s = v[..., 0::2]
        c = v[..., 1::2]
        out = np.empty_like(v)
        out[..., 0::2] = s * cos_a + c * sin_a
        out[..., 1::2] = c * cos_a - s * sin_a
        return out

    def inverse(self) -> "ShiftMap":
        return ShiftMap(angles=-self.angles)


def shift_map(k: float, cfg: EncoderConfig) -> ShiftMap:
    """Build the rotation advancing encodings by offset ``k`` (may be negative)."""
    kf = float(k)
    if not math.isfinite(kf):
        raise ValueError(f"shift offset must be finite, got {k!r}")
    return ShiftMap(angles=kf * frequencies(cfg))


def delta_range(cfg: EncoderConfig) -> float:
    """Largest |delta| the slowest pair can resolve: pi * base**((dim-2)/dim)."""
    return math.pi * cfg.base ** ((cfg.dim - 2) / cfg.dim)


_PAIR_NORM_TOL = 1e-6


def _check_embedding(vec: np.ndarray, cfg: EncoderConfig, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (cfg.dim,):
        raise InvalidEmbeddingError(f"{name} has shape {v.shape}, expected ({cfg.dim},)")
    pair_norms = v[0::2] ** 2 + v[1::2] ** 2
    worst = float(np.max(np.abs(pair_norms - 1.0)))
    if worst > _PAIR_NORM_TOL:
        raise InvalidEmbeddingError(
            f"{name} violates the unit pair-norm invariant by {worst:.3e}; "
            "not a valid sinusoidal encoding"
        )
    return v


def estimate_delta(
    a: np.ndarray,
    b: np.ndarray,
    cfg: EncoderConfig,
    max_abs_delta: float | None = None,
) -> float:
    """Recover the time offset between two encodings of the same config.

    Returns delta such that encoding(t + delta) == b whenever a == encoding(t).
    The slowest pair fixes the branch, then each faster pair sharpens the
    estimate (coarse-to-fine phase unwrapping), so precision is set by the
    frequency-1 pair while range is set by the slowest one.

    ``max_abs_delta`` declares the offset range the caller needs. Ranges at
    or beyond the slowest half-period (``delta_range(cfg)``) cannot be
    resolved unambiguously and raise :class:`DeltaAmbiguityError`; by
    default the full resolvable range is assumed.
    """
    va = _check_embedding(a, cfg, "a")
    vb = _check_embedding(b, cfg, "b")
    limit = delta_range(cfg)
    if max_abs_delta is not None:
        if not (math.isfinite(max_abs_delta) and max_abs_delta >= 0):
            raise ValueError(f"max_abs_delta must be a non-negative real, got {max_abs_delta!r}")
        if max_abs_delta > limit:
            raise DeltaAmbiguityError(
                f"requested range {max_abs_delta:g} exceeds the resolvable "
                f"half-period {limit:g} of the slowest pair (dim={cfg.dim}, base={cfg.base:g})"
            )
    omega = frequencies(cfg)
    sa, ca = va[0::2], va[1::2]
    sb, cb = vb[0::2], vb[1::2]
    # principal value of (angle_b - angle_a) per pair, in (-pi, pi]
    dangle = np.arctan2(sb * ca - cb * sa, cb * ca + sb * sa)
    npairs = cfg.dim // 2
    est = dangle[npairs - 1] / omega[npairs - 1]
    for i in range(npairs - 2, -1, -1):
        wraps = round((est * omega[i] - dangle[i]) / _TWO_PI)
        est = (dangle[i] + _TWO_PI * wraps) / omega[i]
    return float(est)

"""Host-speed calibration.

The benchmark runs on a few virtual CPUs of a shared host, and the load of
other tenants changes how fast the same code runs, by up to about 2x, over
seconds to minutes. ``measure()`` times a fixed kernel that belongs to the
benchmark, not to the program. About two thirds of it is small-matrix numpy
shaped like LSTM steps, the rest float formatting and parsing like a CSV
round trip: the two kinds of work the program does. run.py measures it
before and after every set-up and every timed stage and scales the
stage's time by the host speed seen around it (``scale``), so a change to
the program moves a scaled time and a busy host moves it much less. The
raw times are reported beside the scaled ones.

``REF_S`` is about the fastest time of the kernel seen on a 2-vCPU Xeon
(Sapphire Rapids, KVM) over some 500 measurements; a scaled time reads as
seconds on that host at its least busy.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REF_S = 0.03
REPEATS = 3

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((48, 100, 8))
_W = _RNG.standard_normal((8, 128)) * 0.3
_U = _RNG.standard_normal((32, 128)) * 0.3


def _kernel() -> float:
    h = np.zeros((100, 32))
    c = np.zeros((100, 32))
    for x in _X:
        z = x @ _W + h @ _U
        gates = np.empty_like(z)
        pos = z >= 0
        gates[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        gates[~pos] = ez / (1.0 + ez)
        c = gates[:, :32] * c + gates[:, 32:64] * np.tanh(z[:, 96:])
        h = gates[:, 64:96] * np.tanh(c)
    text = "\n".join(f"ep{i % 97},{i * 0.37:.6g},ch{i % 7},{(i * 1.3) % 11:.6g}"
                     for i in range(3000))
    rows: dict[str, list] = {}
    for line in text.split("\n"):
        ep, t, ch, v = line.split(",")
        rows.setdefault(ep, []).append((float(t), ch, float(v)))
    return float(h.sum()) + len(rows)


def measure() -> float:
    """Median seconds of a few runs of the kernel.

    The collector is off meanwhile, so the program's live objects cannot
    lengthen the kernel.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, in reference-host seconds.

    The host's slowdown over the reference is the mean of the two kernel
    times over ``REF_S``.
    """
    return seconds * 2 * REF_S / (before + after)

"""Sinusoidal time embeddings and a supervised-learning harness for
irregularly sampled multivariate time series.

The public surface is organized by stage: ``encoding`` (timestamp
embeddings, shift maps, delta recovery), ``dataset`` (irregular series,
normalization, binning, feature attachment, splits), ``benchgen``
(synthetic timing benchmark), ``models`` (linear, MLP, LSTM, and
self-attentive LSTM with exact gradients), ``training`` (optimizer,
cross-validation protocol, dropout sweeps), ``metrics`` (ranking and
error scores), and ``cli`` (the ``tembed`` command).

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where they are unset, before numpy loads, so that the
process runs one thread and ``models.fan_out`` forks a worker per CPU. A value
already set is kept, and a process that loaded numpy first keeps numpy's BLAS
pool and runs ``fan_out``'s items serially. Child processes inherit the
variables.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .encoding import (
    AliasingWarning,
    DeltaAmbiguityError,
    EncoderConfig,
    InvalidEmbeddingError,
    ShiftMap,
    delta_range,
    estimate_delta,
    pe,
    shift_map,
    te,
    te_batch,
)

__all__ = [
    "AliasingWarning",
    "DeltaAmbiguityError",
    "EncoderConfig",
    "InvalidEmbeddingError",
    "ShiftMap",
    "delta_range",
    "estimate_delta",
    "pe",
    "shift_map",
    "te",
    "te_batch",
]

__version__ = "0.1.0"

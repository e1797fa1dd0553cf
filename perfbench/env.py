"""Process set-up shared by the benchmark scripts.

``prepare()`` must run before numpy is imported: it pins the BLAS pool to
one thread (unless the caller already chose a setting), refuses a run that
would let ``tembed`` train on a thread pool, and puts the checkout's own
``src/`` first on the import path so the benchmark measures the source
tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Read by the BLAS libraries numpy may load; recorded in every fingerprint.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_ENV = "TEMBED_MAX_WORKERS"


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory or environment."""


def prepare() -> str:
    """Make ``import tembed`` resolve to ``<checkout>/src``; return the checkout root."""
    if os.environ.get(WORKERS_ENV) is not None:
        raise SetupError(
            f"{WORKERS_ENV} is set; the benchmark measures the serial program, unset it"
        )
    if not os.path.isfile(os.path.join(SRC, "tembed", "__init__.py")):
        raise SetupError(f"no tembed sources under {SRC}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if "tembed" in sys.modules:
        raise SetupError("tembed was imported before the benchmark set its path")
    sys.path.insert(0, SRC)
    import tembed

    if os.path.dirname(os.path.abspath(tembed.__file__)) != os.path.join(SRC, "tembed"):
        raise SetupError(f"tembed imported from {tembed.__file__}, expected {SRC}")
    return ROOT

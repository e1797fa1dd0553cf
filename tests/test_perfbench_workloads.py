"""Every benchmark workload runs against the current program.

``perfbench/workloads.py`` drives the public functions of the ``tembed``
modules. This smoke test runs each workload once, as ``perfbench/run.py``
does (set-up, one repetition, the output check, teardown), so a change that
breaks a call the benchmark makes fails here instead of in the benchmark.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", ["timing_lstm", "wide_sweep", "quickstart_cv"])
def test_workload_runs_and_checks_clean(workloads, name, tmp_path):
    workload = workloads.make(name, str(tmp_path))
    state = workload.setup(1005)
    try:
        timer, output = workload.run(state, False)
        quality, digest, _, failures = workload.check(state, output)
    finally:
        workload.teardown(state)
    assert failures == []
    assert set(timer.stages) == set(workload.stages)
    assert set(quality) == set(workload.quality) and digest

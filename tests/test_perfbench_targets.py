"""The benchmark's traced run finds every function it wraps.

``perfbench/spans.py`` wraps program functions by (module, attribute) and
looks each one up with ``getattr`` when a traced run starts. A rename in
``src/`` would crash that run; this test makes it fail here first.
"""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_every_traced_target_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)
    missing = []
    for module, attr, _, _ in spans.TARGETS:
        try:
            target = getattr(importlib.import_module(module), attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(target), f"{module}.{attr} is not callable"
    assert not missing, f"traced targets missing from the program: {missing}"

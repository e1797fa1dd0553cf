"""Shared pytest wiring.

The acceptance tests register one verdict line per criterion; printing them
in the terminal summary keeps the whole scorecard visible in one place even
when pytest captures per-test output.

Property tests share one hypothesis profile: derandomized, so every run
draws the same examples, with no deadline and no example database. Each
test still sets its own ``max_examples``.

``models.fan_out`` runs items in forked workers, so a test fails when it
leaves a child process behind, running or unreaped, and a test that must
see what happened inside an item writes it to a file with ``record``.
"""

import tembed  # noqa: F401  first: it sets the BLAS thread variables, which numpy reads as it loads

import os

import pytest
from hypothesis import settings

settings.register_profile("tembed", derandomize=True, deadline=None, database=None)
settings.load_profile("tembed")

CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter) -> None:
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, unreaped' if pid else 'running'})")


def record(path, *values) -> None:
    """Append one line of ``values`` to the file ``path``; unlike a list, it
    also keeps what a forked ``fan_out`` worker records."""
    with open(path, "a") as fh:
        fh.write(" ".join(map(str, values)) + "\n")


def records(path) -> list[list[str]]:
    """The lines ``record`` appended to ``path``, split into their values."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [line.split() for line in fh]

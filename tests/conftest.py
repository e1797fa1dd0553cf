"""Shared pytest wiring.

The acceptance tests register one verdict line per criterion; printing them
in the terminal summary keeps the whole scorecard visible in one place even
when pytest captures per-test output.

Property tests share one hypothesis profile: derandomized, so every run
draws the same examples, with no deadline and no example database. Each
test still sets its own ``max_examples``.
"""

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

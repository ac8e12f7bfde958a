"""Shared test plumbing.

The acceptance module records one verdict line per criterion; replaying them
in the terminal summary keeps the verdicts visible without -s.
"""

import warnings

# Hypothesis's pytest plugin reports a failing ``@given`` test through
# ``hypothesis.extra._patching``, which imports ``libcst``, whose
# ``mypy_extensions.TypedDict`` raises a ``DeprecationWarning``: under ``-W
# error::DeprecationWarning`` that report ends the session with an
# INTERNALERROR. Importing it here first, with that warning ignored for this
# import only, keeps such a failure a failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no Hypothesis or no libcst: nothing to pre-import
        pass

ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

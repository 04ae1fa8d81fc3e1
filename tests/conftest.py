"""Shared pytest plumbing: collects acceptance-criterion verdicts and prints
them as one PASS/FAIL line each in the terminal summary, and fails any test
that leaves an ended child process unreaped."""

import os

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    """Callable the acceptance tests use to register their verdict line."""
    return ACCEPTANCE_LINES.append


@pytest.fixture(autouse=True)
def no_stray_children():
    """A test must reap every child process that has ended. A running child is
    allowed: a spawn-context pool leaves its resource tracker running."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    assert pid == 0, f"child process {pid} was left unreaped (wait status {status})"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

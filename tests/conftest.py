"""Shared pytest plumbing: collects acceptance-criterion verdicts and prints
them as one PASS/FAIL line each in the terminal summary, and fails any test
that leaves a child process behind."""

import os

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    """Callable the acceptance tests use to register their verdict line."""
    return ACCEPTANCE_LINES.append


@pytest.fixture(autouse=True)
def no_stray_children():
    """A test must leave no child process behind, running or ended: every
    worker it starts has ended and been reaped when it returns."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    if pid == 0:
        pytest.fail("a child process is still running")
    pytest.fail(f"child process {pid} was left unreaped (wait status {status})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

"""Fixtures every test runs under."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process behind, running or unreaped:
    `run` forks a trajectory.csv writer and must reap it on every path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "a running child process" if pid == 0 else f"unreaped child process {pid}"
    pytest.fail(f"the test left {left} behind")

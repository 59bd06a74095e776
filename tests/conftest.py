"""Test-wide settings: one hypothesis profile for every property test, and a guard
that fails a test which leaves a child process of the test run behind."""

import os
import time

import pytest
from hypothesis import settings

# Examples run whole kernels, and some take longer than hypothesis's default
# 200 ms deadline; each test bounds its cost by its strategies and max_examples.
settings.register_profile("hdp-lab", deadline=None)
settings.load_profile("hdp-lab")

#: seconds the guard waits for a child that is still running to end
CHILD_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail a test after which this process still has a child, unreaped or running.

    ``core._fork_map``, which verify and the ensembles fork through, joins
    every worker before it returns, also on failure.  A child left behind is
    reaped here if it ends within ``CHILD_GRACE_S``, so the failure stays
    with the test that left it.
    """
    yield
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child at all
        if pid:
            pytest.fail(f"the test left child process {pid} unreaped (wait status {status})")
        if time.monotonic() > deadline:
            pytest.fail(f"a child process is still running {CHILD_GRACE_S} s after the test")
        time.sleep(0.05)

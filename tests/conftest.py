"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import outersix


@pytest.fixture
def package_env():
    """Environment for a child interpreter that must import the same
    `outersix` the suite imports, installed or not."""
    root = str(Path(outersix.__file__).resolve().parents[1])
    paths = filter(None, [root, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture
def reset_caches():
    """Clears the given functions' lru_caches at once and again after the
    test, so a planted defect meets no warm result and leaves no poisoned
    one behind for a later test."""
    functions = []

    def reset(*cached):
        functions.extend(cached)
        for function in cached:
            function.cache_clear()

    yield reset
    for function in functions:
        function.cache_clear()


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fails a test that leaves a child process of pytest unreaped, such as
    a forked check lane that run_checks did not wait for.  POSIX only."""
    yield
    if os.name != "posix":
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one if it has ended
    except ChildProcessError:
        return  # no child at all
    state = "still running" if pid == 0 else f"pid {pid}, ended but not reaped"
    pytest.fail(f"the test left a child process behind: {state}")

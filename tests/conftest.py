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

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

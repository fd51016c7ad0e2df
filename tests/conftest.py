"""Helpers shared by the test modules."""

import os
import subprocess
import sys

import pytest

import gaplab

# The directory that holds the gaplab package this suite imported: ``src`` in
# a checkout, ``site-packages`` for an installed copy.
GAPLAB_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(gaplab.__file__)))


def _run_python(*args, env=None):
    """Run a fresh interpreter that imports the same gaplab as this suite.

    The environment is minimal, so none of the parent's variables leak in;
    ``env`` adds variables to it.
    """
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": GAPLAB_ROOT, **(env or {})}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="session")
def run_python():
    return _run_python

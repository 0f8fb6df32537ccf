"""Shared fixtures for the test suite."""

import pathlib
import sys

import pytest

import kvar

# The directory that holds the ``kvar`` package this suite imported: ``src``
# under ``PYTHONPATH=src`` or an editable install, site-packages otherwise.
KVAR_IMPORT_ROOT = str(pathlib.Path(kvar.__file__).resolve().parents[1])


@pytest.fixture
def cli_child_env():
    """Build the minimal environment for a ``python -m kvar.cli`` child.

    It holds only ``PATH``, the given ``PYTHONHASHSEED`` and a ``PYTHONPATH``
    naming the parent's ``kvar``, so the child runs the code under test and
    nothing else of the parent's environment reaches it; and
    ``PYTHONDONTWRITEBYTECODE`` when the parent writes no bytecode, so a run
    that leaves no caches behind leaves none through its children either.
    """
    def build(hashseed):
        env = {"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
               "PYTHONPATH": KVAR_IMPORT_ROOT}
        if sys.flags.dont_write_bytecode:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env
    return build

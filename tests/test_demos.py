"""Every narrative script under demos/ runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, cli_child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=cli_child_env("0"), timeout=60)
    assert proc.returncode == 0, proc.stderr

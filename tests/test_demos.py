"""Every narrative script under demos/ runs to completion and prints what it
printed when its output was pinned."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the same under any PYTHONHASHSEED
STDOUT_SHA256 = {
    "01_classes_and_relations.py":
        "8b98ba450d342656191404d0c8b69bee1bc63b9b0bd0f6829a61412201d617df",
    "02_toric_geometry.py":
        "93c79b763a9203f405910d4694f441b5f825d520550789e897a4a0acf375cdff",
    "03_compact_support.py":  # prints each extension's combination of compact objects
        "c3a3bcc7a9eda6d9785680eef9ba03130c9e8cb4f32b4bd3478f119377adb29d",
    "04_spans_and_covers.py":
        "340809be980d47fbebff796342968fcae4098d428e46b203e960fff2f89a200a",
    "05_measures_and_weights.py":
        "d8c6c44aa17d8c5511daf199595cd3ce3cab09b98097176168b3c4f9894b6f1e",
}


def test_the_demos_are_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, cli_child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=cli_child_env("0"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]

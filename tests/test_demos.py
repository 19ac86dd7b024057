"""The demos run cleanly: exit code 0 and nothing on stderr, warnings as errors."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout

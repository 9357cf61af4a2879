"""The demos run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "trace_estimation.py",
        "sample_size_planner.py",
        "majorant_slice.py",
        "optimize_tomography.py",
        "run_from_config.py",
    ],
)
def test_demo_exits_cleanly(script, tmp_path):
    # temporary files a demo makes land in pytest's directory, not the system's
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

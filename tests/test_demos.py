"""The README's runnable walkthroughs: each demo script exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import protostream

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_PARENT = str(Path(protostream.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", ["01_buffer_strategies.py",
                                    "02_forgetting_and_rehearsal.py",
                                    "03_cli_pipeline.py"])
def test_demo_runs(script, tmp_path):
    # demo 03 writes ./demo_workspace, so each demo runs in its own directory
    path = os.pathsep.join(p for p in (PACKAGE_PARENT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]

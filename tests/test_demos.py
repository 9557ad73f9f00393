import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdvlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # a temporary cwd: some demos write their tables into the working directory
    src = str(Path(kdvlab.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a demo prints only its narrative: a warning on stderr is a failure too
    assert proc.stderr == ""


def test_demos_are_found():
    assert DEMOS, "no demos/*.py next to the tests"

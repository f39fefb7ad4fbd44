"""The demos print exactly the text recorded in golden_demos.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loadbal as lb

DEMOS = Path(__file__).parents[1] / "demos"
GOLDEN = json.loads((Path(__file__).parent / "golden_demos.json").read_text())


@pytest.mark.parametrize("script", list(GOLDEN))
def test_demo_stdout(script):
    # run against the loadbal this suite imports, with every warning an error
    src = str(Path(lb.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", str(DEMOS / script)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == GOLDEN[script]

"""The entry points ``perfbench/launcher.py`` wraps by name must exist.

The benchmark's traced runs replace 13 attributes of the serving,
cluster, tuning and lifecycle classes before the server starts; a rename
in ``src/repro`` would otherwise surface only as a benchmark that fails
at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_launcher_installs_every_wrapper():
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "perfbench"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    result = subprocess.run(
        [sys.executable, "-c",
         "import launcher, spans; launcher.install(spans.Recorder())"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=False,
    )
    assert result.returncode == 0, result.stderr

"""The operations runbook example runs end to end.

It is the one example that drives ``ReplicaSet.resync`` and the D
checkpoint control messages, so it runs with the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ops_runbook_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "ops_runbook.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "a fresh cluster restored" in done.stdout
    assert "ops runbook complete" in done.stdout

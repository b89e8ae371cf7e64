import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


@pytest.mark.parametrize("script", sorted(os.listdir(DEMOS)))
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, "-W", "error", os.path.join(DEMOS, script)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

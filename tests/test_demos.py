import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((PKG_ROOT / "demos").glob("*.py"))
# the child runs this checkout's src, not an installed copy
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr

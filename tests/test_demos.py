"""Every demo script runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # The demos write into tempfile directories; TMPDIR keeps those under
    # tmp_path, and cwd keeps any relative path out of the checkout.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    # only the rendering demo keeps its output, so the images can be viewed
    if demo.stem != "05_rendering_maps":
        assert not list(tmp_path.glob("wlcbench-demo*"))

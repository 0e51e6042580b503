"""Every script under demos/ runs to completion.

Each demo runs in a fresh interpreter with the empty test directory as
its working directory, so a demo that writes a file writes it there and
never into the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # only the trend demo writes a file: its chart, in the working directory
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["arc_length_trends.svg"] if demo.name.startswith("03_") else [])

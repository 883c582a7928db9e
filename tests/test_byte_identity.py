"""The trajectory digests match the committed listing, bit for bit.

The golden file names the toolchain that made it; on another one the
digests may legitimately differ, so the check skips and says why.  The
CLI listing takes about 40 s: `python tools/byte_identity.py --check`."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"


def test_trajectory_listing_matches_golden():
    proc = subprocess.run([sys.executable, str(TOOL), "--trajectories", "--check"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode == 0 and proc.stdout.startswith("skipped:"):
        pytest.skip(proc.stdout.strip())
    assert proc.returncode == 0, proc.stdout + proc.stderr

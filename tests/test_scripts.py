import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["sample_wavefield", "radiation_scan", "afterglow_trace"]
)
def test_script_help_runs(name):
    # --help imports the script's whole dependency chain without computing
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout

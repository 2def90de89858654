import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# the commands of the CI workflow's "Experiment scripts" step
@pytest.mark.parametrize("script,args", [
    ("run_parametrix_residuals.py", ["--orders", "2,3", "--samples", "2"]),
])
def test_experiment_script_runs(script, args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


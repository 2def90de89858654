import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# the commands of the CI workflow's "Experiment scripts" step
@pytest.mark.parametrize("script,args", [
    ("run_parametrix_residuals.py", ["--orders", "2,3", "--samples", "2"]),
    ("run_torsion_a1.py", ["--bases", "30", "--splits", "0.5,1,2"]),
    ("run_index_study.py", ["--samples", "20000", "--t", "0.5,1"]),
])
def test_experiment_script_runs(script, args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_index_study_rejects_a_negative_seed():
    # a usage error before any output, as for the CLI's --seed
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_index_study.py"),
                           "--seed", "-1"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert not proc.stdout
    assert "--seed: must be a non-negative integer, not -1" in proc.stderr

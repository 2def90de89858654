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


@pytest.mark.parametrize("args,message", [
    (["--seed", "-1"], "--seed: must be a non-negative integer, not -1"),
    (["--samples", "0"], "--samples: must be at least 1, not 0"),
    (["--t", "0.5,-1"], "--t: must be positive and finite, not -1.0"),
], ids=["seed", "samples", "t"])
def test_index_study_rejects_a_negative_seed(args, message):
    # a usage error before any output, as for the CLI's --seed; a --samples
    # below 1 or a t that is not positive and finite would otherwise fail
    # only after the table's header
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_index_study.py"), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert not proc.stdout
    assert message in proc.stderr

"""Smoke runs of the experiment scripts on small settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,expect", [
    ("certificate_sweep.py", ["--curvature-points", "256"], "unstable-certified"),
    # a flat start converges at once, so the certificate branch runs too
    ("flow_experiment.py", ["--n", "4", "--amplitude", "0", "--nr", "4", "--ntheta", "8",
                            "--max-iter", "50"], "certificate on the converged immersion"),
    # a perturbed start that takes a few dozen steps before the certificate
    ("flow_experiment.py", ["--n", "4", "--field", "radial-spherical", "--mode", "sin",
                            "--amplitude", "0.05", "--nr", "4", "--ntheta", "8",
                            "--max-iter", "400"], "verdict=unstable-certified"),
    # one scenario's certificates and Q(E_l^perp), then the verify report
    ("registry_outputs.py", ["--scenario", "cap-disk-b4k2"],
     "cap-disk-b4k2 seed 2: unstable-certified"),
], ids=["certificate_sweep", "flow_experiment", "flow_experiment_steps", "registry_outputs"])
def test_script_runs(script, args, expect, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    assert any(tmp_path.iterdir())

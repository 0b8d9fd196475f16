"""Smoke runs of the experiment scripts on small settings."""

import json
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
    proc = _run(script, *args, "--out", str(tmp_path))
    assert expect in proc.stdout
    assert any(tmp_path.iterdir())


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_registry_outputs_diff(tmp_path):
    """--diff counts identical and moved items, reports a float's move and
    lists a change that is not a float's; a flow run is one item, with its
    residual history to the last bit."""
    scenarios = ("--scenario", "cap-disk-b4k2", "--scenario", "flow-bump-b3")
    _run("registry_outputs.py", *scenarios, "--out", str(tmp_path))
    path = tmp_path / "registry_outputs.json"
    doc = json.loads(path.read_text())
    run = doc["flow"]["flow-bump-b3"]
    assert run["converged"] and run["iterations"] == 43
    assert len(run["history"]) == 44 and run["history"][-1]["volume"] == run["volume"]
    assert sorted(run["history"][0]) == ["backtracks", "defect", "dt", "residual", "volume"]
    report = doc["certificates"]["cap-disk-b4k2"]["1"]
    report["traced_total"] *= 1.0 + 1e-12
    report["verdict"] = "inconclusive"
    run["history"][7]["volume"] *= 1.0 - 1e-13
    path.write_text(json.dumps(doc))
    out = _run("registry_outputs.py", *scenarios, "--diff", str(path)).stdout
    assert "flow-bump-b3 flow: converged=True after 43 iterations" in out
    assert "certificates: 5 identical, 1 moved" in out
    assert "convexity: 6 identical, 0 moved" in out
    assert "second_variation: 7 identical, 0 moved" in out
    assert "flow: 0 identical, 1 moved" in out
    assert "traced_total: largest relative move 1.00e-12 at certificates/cap-disk-b4k2/1" in out
    assert "history.volume: largest relative move 1.00e-13 at flow/flow-bump-b3/history/7" in out
    assert "non-float changes: 1" in out
    assert ("certificates/cap-disk-b4k2/1/verdict: 'inconclusive' -> 'unstable-certified'"
            in out)

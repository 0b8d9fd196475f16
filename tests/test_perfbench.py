"""Smoke run of the benchmark's workloads: set-up, one round and the
checks of each, at one seed, so that a refactor which removes a name the
benchmark calls fails here.  ``perfbench/workloads.py`` is imported from its
file and not changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    """The ``WORKLOADS`` table, the module loaded once and registered, as
    its dataclasses need."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["certificate", "second-variation", "flow"])
def test_workload_round_passes_its_checks(name):
    workload = _workloads()[name](seed=7)
    for group in workload.round:
        results = [op() for _, op in group.ops]
        assert workload.check(group, results) is None, group.label

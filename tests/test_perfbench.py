"""Smoke run of the benchmark's workloads: set-up, one round and the
checks of each, at one seed, and one traced round, so that a refactor which
removes a name the benchmark or its tracer calls fails here.
``perfbench/workloads.py`` and ``perfbench/tracing.py`` are imported from
their files and not changed."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import fbstab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name, filename):
    """The perfbench module ``filename``, loaded once and registered as
    ``name``, as its dataclasses need."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _workloads():
    """The ``WORKLOADS`` table."""
    return _module("perfbench_workloads", "workloads.py").WORKLOADS


@pytest.mark.parametrize("name", ["certificate", "second-variation", "flow"])
def test_workload_round_passes_its_checks(name):
    workload = _workloads()[name](seed=7)
    for group in workload.round:
        results = [op() for _, op in group.ops]
        assert workload.check(group, results) is None, group.label


def test_traced_second_variation_round():
    """One round of ``second-variation`` under the layer tracer: every op
    runs through the wrappers, ``uninstall`` puts the originals back, and
    ``layer_metrics`` reports every per-layer metric."""
    tracing = _module("perfbench_tracing", "tracing.py")
    workload = _workloads()["second-variation"](seed=7)
    original = fbstab.variation.second_variation
    tracer = tracing.Tracer()
    try:
        tracer.install(fbstab)
        done = [(group, [tracer.run_op(label, op)[0] for label, op in group.ops])
                for group in workload.round]
    finally:
        tracer.uninstall()
    assert fbstab.variation.second_variation is original
    for group, results in done:
        assert workload.check(group, results) is None, group.label
    metrics = tracer.layer_metrics()
    for name, _ in tracing.METRICS:
        if not name.startswith("trace."):
            assert np.isfinite(metrics[name]), name
    ops = sum(len(group.ops) for group in workload.round)
    assert len(tracer.records) == ops
    assert metrics["variation.pointwise.calls"] == 2.0   # one S and one T per Q
    assert metrics["fields.calls"] > 0 and metrics["variation.second_variation.self_ms"] > 0

"""The library names the benchmark hooks into still exist.

``bench/spans.py`` times and traces runs by replacing library functions
and methods by name, and ``bench/workloads.py`` names each workload's
timed operation and its cut points.  A renamed or removed name would only
show when the benchmark runs; here each workload's ``OpClock`` and the
``Tracer`` are installed and removed again, which looks every name up,
and every patched attribute must be back in place afterwards.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402
from malrobust import attacks, cli, data, defenses, evaluation, nn  # noqa: E402

MODULES = (attacks, cli, data, defenses, evaluation, nn)
CLASSES = (nn.DenseStack, nn.MlpClassifier, defenses.HardenedClassifier,
           defenses.EnsembleClassifier)


def namespaces():
    """Every attribute of the library's modules and model classes."""
    return {owner: dict(vars(owner)) for owner in MODULES + CLASSES}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_clock_installs_on_each_workload(name):
    workload = workloads.WORKLOADS[name]
    before = namespaces()
    clock = spans.OpClock(*workload.op, cuts=workload.cuts)
    with clock.installed():
        assert vars(workload.op[0])[workload.op[1]] is not before[workload.op[0]][workload.op[1]]
        for owner, attr in workload.cuts:
            assert vars(owner)[attr] is not before[owner][attr]
    assert namespaces() == before
    assert len(clock.passes) == 1


def test_tracer_installs():
    before = namespaces()
    with spans.Tracer().installed():
        assert namespaces() != before
    assert namespaces() == before

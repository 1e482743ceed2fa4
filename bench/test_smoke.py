"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
from malrobust.attacks import AttackOutcome  # noqa: E402
from malrobust.data import ManipulationPolicy  # noqa: E402
from malrobust.nn import MlpClassifier  # noqa: E402
from workloads import Checks, check_outcomes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    checks, metrics, _ = harness.measure(workload, seed=3, seconds=0.0, trace=trace,
                                         tiny=True)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(metrics) == declared
    assert all(np.isfinite(v) for v in metrics.values())
    assert checks.attempted > 0 and checks.failures == []


def test_checks_fire_on_bad_attack_outputs():
    policy = ManipulationPolicy.additions_only(4)
    model = MlpClassifier.init([4, 3, 2], seed=0)
    x = np.array([1.0, 0.0, 1.0, 0.0])
    removal = np.array([0.0, 0.0, 1.0, 0.0])     # removals are forbidden
    fractional = np.array([1.0, 0.5, 1.0, 0.0])  # not binary
    addition = np.array([1.0, 1.0, 1.0, 0.0])    # admissible
    outs = []
    for x_adv in (removal, fractional, addition):
        evaded = bool(model.predict(x_adv) != 1)
        outs.append(AttackOutcome(x_adv, evaded, 1, 1.0, 1.0, 1.0, 1))
    outs[2].success = not outs[2].success       # flag disagrees with the victim
    checks = Checks()
    check_outcomes(checks, model, np.stack([x, x, x]), np.array([1, 1, 1]), policy,
                   outs, "smoke")
    assert checks.attempted == 6
    assert len(checks.failures) == 3
    assert "example 0: output not binary and admissible" in checks.failures[0]
    assert "example 1: output not binary and admissible" in checks.failures[1]
    assert "example 2: success flag disagrees" in checks.failures[2]


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "harden",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

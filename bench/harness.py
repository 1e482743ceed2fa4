"""Measure one workload: set-up, the timed closed loop, checks, metrics.

The untraced mode times whole passes and, with ``OpClock``, each repeated
operation; it gives the end-to-end metrics.  The traced mode alternates an
untraced pass with a traced one and gives the per-layer metrics plus the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time

import numpy as np

from spans import OpClock, Tracer
from workloads import WORKLOADS, Checks

MIN_SETUPS = 3
CHEAP_SETUP_S = 0.1
SETUPS_PER_PASS = 5
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def environment(seed, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads, "workers": 1,
            "seed": seed}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (checks, metrics, extra record fields)."""
    cls = WORKLOADS[name]
    kwargs = {"work_dir": os.path.join(OUT_DIR, "cli_wide")} if name == "cli_wide" else {}
    checks = Checks()
    wl = cls(seed, tiny=tiny, **kwargs)
    setup_s, prints = [], []

    def set_up():
        _, dt = _timed(wl.setup)
        setup_s.append(dt)
        prints.append(wl.fingerprint())

    for _ in range(MIN_SETUPS):
        set_up()
    # A cheap set-up is repeated after every pass as well, so that its
    # median covers the machine's load over the whole run, not over the
    # fraction of a second that the first few set-ups take.
    cheap = statistics.median(setup_s) < CHEAP_SETUP_S

    clock = OpClock(*wl.op, cuts=wl.cuts)
    plain, traced = [], []
    tracer = Tracer() if trace else None
    if tracer is not None:
        # warm caches first, so the overhead compares like with like
        wl.check(wl.run_pass(OpClock(*wl.op, cuts=wl.cuts)), checks)
    start = time.perf_counter()
    while True:
        with clock.installed():
            out, dt = _timed(wl.run_pass, clock)
        plain.append(dt)
        wl.check(out, checks)
        for _ in range(SETUPS_PER_PASS if cheap else 0):
            set_up()
        if tracer is not None:
            with tracer.installed(), tracer.span("bench.pass"):
                out, dt = _timed(wl.run_pass, tracer)
            tracer.passes += 1
            traced.append(dt)
            wl.check(out, checks)
        per_round = np.mean(plain) + (np.mean(traced) if traced else 0.0)
        if time.perf_counter() - start + per_round > seconds:
            break

    checks.expect(len(set(prints)) == 1, "the same seed gives the same inputs")
    record = {"setup_s_each": setup_s, "pass_s_each": plain, "digests": wl.digests()}
    if tracer is None:
        segments, ops = clock.fastest()
        pass_s = float(segments.sum())
        ops = ops * 1000.0
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": pass_s,
            "examples_per_s": wl.examples(out) / pass_s,
            "op_ms_p50": float(np.percentile(ops, 50)),
            "op_ms_tail": float(np.percentile(ops, wl.tail_pct)),
            "clean_acc": wl.clean_acc(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(ops=len(ops), tail_pct=wl.tail_pct)
    else:
        metrics = tracer.layer_metrics()
        metrics.update({f"quality.{k}": v for k, v in wl.quality(checks).items()})
        metrics["trace.overhead"] = min(traced) / min(plain) - 1.0
        record["spans"] = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.npz")
        tracer.write(record["spans"])
    return checks, metrics, record


def write_record(name, seed, trace, env, checks, metrics, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    body = {"workload": name, "environment": env, "checks_attempted": checks.attempted,
            "checks_failed": checks.failures,
            "failed_share": checks.failed / max(checks.attempted, 1),
            "metrics": metrics, **record}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
    return path

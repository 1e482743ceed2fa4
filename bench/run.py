"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload harden --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer ones, named and unit-tagged as in BENCHMARK.json.  The full
record of the run (environment, per-pass times, outcome digests, failed
checks) is written under bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

BLAS_THREADS = 1
WORKLOAD_NAMES = ("harden", "attack", "cli_wide")
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # glibc mallopt parameters


def pin_malloc() -> bool:
    """Stop glibc from mmapping large blocks and from returning freed memory
    to the system, so that what an allocation costs does not depend on the
    history of earlier frees.  Returns False where the C library is not glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_MAX, 0)) and bool(mallopt(M_TRIM_THRESHOLD, 1 << 30))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "malrobust", "__init__.py")):
        print(f"error: library source not found under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    # one caller, one process: pin BLAS before numpy loads and the attack
    # suite to one worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MALROBUST_WORKERS"] = "1"
    malloc_pinned = pin_malloc()
    sys.path.insert(0, src)
    import harness  # noqa: E402  (needs the pinned environment and src path)

    env = harness.environment(args.seed, BLAS_THREADS)
    env["malloc_pinned"] = malloc_pinned
    checks, metrics, record = harness.measure(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"emitted metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    path = harness.write_record(args.workload, args.seed, args.trace, env, checks,
                                metrics, record)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} record={path}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# digests " + json.dumps(record["digests"], sort_keys=True))
    print(f"# checks attempted={checks.attempted} failed={checks.failed} "
          f"failed_share={checks.failed / checks.attempted:.6f}")
    for failure in checks.failures[:10]:
        print(f"# FAILED {failure}")
    for m in declared:
        print(f"# {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']:<8} "
              f"{m.get('better', '')}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

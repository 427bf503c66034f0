#!/usr/bin/env python3
"""polygam benchmark: one workload, one closed-loop caller, one JSON result.

    python3 bench/run.py --workload housing --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory, never from an installed copy. The last line
of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it records the environment, the model sha256
and the per-check outcomes. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = [
    os.path.join(ROOT, "src", "polygam", "__init__.py"),
    os.path.join(ROOT, "tests", "data", "make_housing.py"),
]
# the keys of workloads.WORKLOADS, which imports numpy and so cannot be
# imported before polygam
WORKLOAD_NAMES = ("housing", "choice", "choice_monotone", "binary_large")
# one caller and one BLAS thread: no thread pool competes with the timed loop
THREADS = "1"
# String hashes are salted per process unless PYTHONHASHSEED is set, and the
# salt alone moved a process's one-row p99 by up to 1.5x (see README.md), so
# a run re-executes itself once under a fixed salt.
HASH_SEED = "0"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("bench: not a polygam source checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        args_again = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *args_again])
    # PB_THREADS is applied by polygam's __init__ before it first loads numpy,
    # so polygam is imported before anything else that imports numpy.
    os.environ["PB_THREADS"] = THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import polygam  # noqa: F401

    sys.path.insert(0, HERE)
    import harness
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    return harness.run_workload(w, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

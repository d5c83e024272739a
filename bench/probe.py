"""Set-up of one workload in the current interpreter, timed.

``measure_setup`` imports ``orliczval`` and ``orliczval.cli`` and builds
the workload's seeded inputs, and must be the first thing to import the
library (and numpy) in its process.  Run as a script it does that in a
fresh interpreter and prints the two times as JSON:

    python3 bench/probe.py --workload lattice --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def measure_setup(workload, seed):
    """Return (import_s, inputs_s, cases) for a fresh interpreter."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import orliczval  # noqa: F401
    import orliczval.cli  # noqa: F401
    t1 = time.perf_counter()
    import cases
    import gen

    built = cases.build(workload, gen.specs(workload, seed))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, built


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    import_s, inputs_s, _ = measure_setup(args.workload, args.seed)
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))


if __name__ == "__main__":
    main()

"""The orliczval benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see ``gen.py`` for the schedules and README.md for why each
was chosen):

* ``lattice`` -- exact common refinements, clipping and ``psi``;
* ``gauge``   -- gauges, solvers, ``mu`` of every region kind, norms;
* ``covers``  -- dyadic inner covers and their thousands of box atoms.

Each run is a closed loop with one caller in this one process: a case
starts when the previous one has been checked.  Only the library calls
of a case are timed; the reference checks run between cases.  The loop
stops at the first end of a full pass over the schedule after
``--seconds`` (and after at least ``MIN_CASES`` cases; an untraced run
also makes at least ``MIN_PASSES`` passes).  p50 and p90 are taken over every case run, each with its
typical time: the median over that case's repeats in the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced for half of ``--seconds``, then replays exactly the same cases
with every layer wrapped in spans, and prints the per-layer metrics,
including the traced-over-untraced time ratio.  The spans are written to
``bench/out/trace-<workload>.npz`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# BLAS and OpenMP pools pinned to one thread: the load is one caller on one core.
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5   # fresh interpreters; setup_s is the median of their set-up times
MIN_CASES = 100     # so that at least ten cases lie beyond p90
MIN_PASSES = 3      # so that the median of a case's repeats drops one noisy repeat


class LoopResult:
    def __init__(self):
        self.times = []
        self.sequence = []
        self.failed = 0
        self.messages = []


def run_loop(cases, check, seconds=None, sequence=None, tracer=None, min_passes=1):
    """Run cases one after another; replay ``sequence`` (case indices) if given."""
    res = LoopResult()
    start = time.perf_counter()
    i = 0
    while True:
        if sequence is not None:
            if i == len(sequence):
                break
            idx = sequence[i]
        else:
            if (i % len(cases) == 0 and i >= max(MIN_CASES, min_passes * len(cases))
                    and time.perf_counter() - start >= seconds):
                break
            idx = i % len(cases)
        case = cases[idx]
        if tracer is not None:
            tracer.case_id = i
            tracer.active = True
            frame = tracer.open("bench.case")
        t0 = time.perf_counter()
        try:
            out, err = case.run(), None
        except Exception as exc:  # a failing case is counted, not fatal
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(frame)
            tracer.active = False
        if err is None:
            try:
                bad = check(case, out)
            except Exception as exc:
                bad = [f"check raised {exc!r}"]
        else:
            bad = [f"case raised {type(err).__name__}: {err}"]
        if bad:
            res.failed += 1
            res.messages.extend(f"case {idx}: {m}" for m in bad)
        res.times.append(dt)
        res.sequence.append(idx)
        i += 1
    return res


def typical_times(res):
    """Each case's time, replaced by the median over that case's repeats.

    A burst of machine noise lands on one repeat of a case, and the
    median of its repeats drops it.  The list keeps one entry per case
    run, so quantiles over it weigh the cases as the schedule does.
    """
    repeats = {}
    for idx, dt in zip(res.sequence, res.times):
        repeats.setdefault(idx, []).append(dt)
    typical = {idx: statistics.median(v) for idx, v in repeats.items()}
    return [typical[idx] for idx in res.sequence]


def setup_samples(workload, seed, first):
    """``first`` plus SETUP_SAMPLES - 1 probes, each in a fresh interpreter."""
    samples = [first]
    cmd = [sys.executable, os.path.join(HERE, "probe.py"),
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        d = json.loads(proc.stdout.splitlines()[-1])
        samples.append((d["import_s"], d["inputs_s"]))
    return samples


def env_block():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": THREAD_PIN}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orliczval", "__init__.py")):
        print("bench: src/orliczval not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PIN)

    import probe

    import_s, inputs_s, built = probe.measure_setup(args.workload, args.seed)
    samples = setup_samples(args.workload, args.seed, (import_s, inputs_s))

    import cases
    import spans

    check = cases.CHECKS[args.workload]
    if args.trace == 0:
        res = run_loop(built, check, seconds=args.seconds, min_passes=MIN_PASSES)
        t = res.times
        typical = typical_times(res)
        metrics = {
            "cases_per_s": (len(t) / sum(t), "1/s"),
            "case_p50_ms": (1e3 * statistics.median(typical), "ms"),
            "case_p90_ms": (1e3 * statistics.quantiles(typical, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(a + b for a, b in samples), "s"),
        }
    else:
        base = run_loop(built, check, seconds=args.seconds / 2.0)
        tracer = spans.Tracer()
        ins = spans.instrument(tracer)
        try:
            res = run_loop(built, check, sequence=base.sequence, tracer=tracer)
        finally:
            ins.uninstall()
        values = tracer.metrics()
        values.update({
            "setup.import_s": statistics.median(a for a, _ in samples),
            "setup.inputs_s": statistics.median(b for _, b in samples),
            "bench.trace_overhead_ratio": sum(res.times) / sum(base.times),
            "bench.failed_frac": res.failed / len(res.times),
        })
        metrics = {k: (values[k], unit) for k, unit in spans.LAYER_METRICS}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.save(os.path.join(HERE, "out", f"trace-{args.workload}.npz"))

    for m in res.messages[:20]:
        print(f"bench: FAILED {m}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "cases": len(res.times), "schedule": len(built),
                      "env": env_block()}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": len(res.times),
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

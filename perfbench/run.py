"""drumgen benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/drumgen`. The workload's
inputs are made from --seed; their set-up is timed on its own. Then the
workload's operations run back to back, each after the previous one ends,
until --seconds have passed, and every output is checked.

The last line of standard output is the result, one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run also traces one further pass of the workload and the metrics are the
per-layer ones. The line before it holds the environment, sample counts and
the metrics under the workloads' own names. Files go to `.perfbench_out/`.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may run on. Must run
    before numpy is imported, which reads these once."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "drumgen")):
        print(f"error: no drumgen sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness  # after the thread caps and the path are set

    detail, result = harness.run(args.workload, args.seed, args.seconds, args.trace,
                                 out_dir=OUT_DIR, root=ROOT, nproc=nproc)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

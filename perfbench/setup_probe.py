"""One set-up measurement in a fresh interpreter: import plus warm-up.

    python3 perfbench/setup_probe.py <workload> <src dir> <run dir>

Prints the seconds from before the first import of numpy and the library to
the end of the workload's warm-up operation, taken at the reference machine
speed (see speed.py).  `run.py` starts this several times and reports the
median as `setup_s`; it sets one BLAS thread in the environment this process
inherits.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from speed import SpeedProbe  # noqa: E402  (imports numpy, timed on purpose)

PROBE = SpeedProbe().__enter__()

import workloads  # noqa: E402


def main(argv):
    name, src, run_dir = argv
    sys.path.insert(0, src)
    from elliptic_dpp import cli

    res = workloads.run_op(cli, workloads.WORKLOADS[name].warmup(), run_dir)
    wall = time.perf_counter() - T0
    PROBE.__exit__(None, None, None)
    if not res.ok:
        print(f"warm-up failed: {res.error}", file=sys.stderr)
        return 1
    print(repr(PROBE.reference_seconds(wall)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Benchmark of the elliptic_dpp command line, one workload per invocation.

    python3 perfbench/run.py --workload {sample,kernel_grid,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src, never from
an installed copy.  Everything runs in this one process with one BLAS
thread, calling `elliptic_dpp.cli.main(argv)` in-process.  Outputs go to
./.perfbench_out/.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

--trace 0  end-to-end metrics from untraced runs: `setup_s` (median of seven
           fresh-interpreter import + warm-up probes), `peak_rss_mb`, and
           `items_per_s` (states, kernel values, or completed CLI runs per
           second of operation time, by workload).  Both times are taken at
           a fixed reference machine speed, sampled during the operations
           (see speed.py).
           Whole rounds repeat until --seconds of operation time have
           passed; the first round always runs and its outputs are checked,
           later rounds must write the same bytes again.
--trace 1  per-layer metrics: one round untraced, then the same round with
           every layer entry point wrapped (see tracer.py).  The traced outputs
           must equal the untraced ones byte for byte, which is also the
           same-seed determinism check; tracing overhead is the difference of
           the two passes' operation times.  The untraced pass also gives
           the plain wall-clock rate and the machine-speed scale.  Spans go
           to .perfbench_out/trace_<workload>.json.
"""

import os

# one BLAS thread: the machine has two cores and the workloads are dominated
# by small per-call work, where threaded BLAS only adds scheduling noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import THETA_ORACLE_TOL, WORKLOADS, run_op, theta_oracle_error  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def log(message):
    print(message, file=sys.stderr, flush=True)


def measure_setup(name, run_dir):
    """Median over fresh interpreters of import plus one warm-up operation,
    each at the reference machine speed."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(SRC), str(run_dir)],
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(cli, ops, run_dir, tracer=None, first=None, probe=None):
    results = []
    for i, op in enumerate(ops):
        res = run_op(cli, op, run_dir, tracer, first[i] if first else None, probe)
        if not res.ok:
            log(f"operation {op.label} failed: {res.error}")
        results.append(res)
    return results


def timed(cli, workload, args, run_dir, probe):
    """Whole rounds until --seconds of operation time have passed.

    The first round's outputs are checked; later rounds repeat the same
    operations and must write the same bytes.
    """
    ops = workload.round(args.seed)
    results = run_pass(cli, ops, run_dir, probe=probe)
    first = results
    while sum(r.seconds for r in results) < args.seconds:
        results += run_pass(cli, ops, run_dir, first=first, probe=probe)
    return results


def traced(cli, workload, args, run_dir):
    ops = workload.round(args.seed)
    (run_dir / "untraced").mkdir()
    (run_dir / "traced").mkdir()
    probe = SpeedProbe()
    plain = run_pass(cli, ops, run_dir / "untraced", probe=probe)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = run_pass(cli, ops, run_dir / "traced", tracer, first=plain)
    finally:
        tracer.uninstall()
    if tracer.missing:
        log(f"not in the library, skipped: {', '.join(tracer.missing)}")
    metrics = tracer.metrics()
    metrics["cli.bytes_written"] = {"value": sum(r.bytes_written for r in with_trace),
                                    "unit": "bytes"}
    # the untraced pass's wall time without the speed probe's own snippets
    wall = sum(r.seconds for r in plain) - probe.probe_seconds
    metrics["trace.overhead_s"] = {
        "value": sum(r.seconds for r in with_trace) - wall, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    metrics["speed.wall_items_per_s"] = {"value": sum(r.items for r in plain) / wall,
                                         "unit": "1/s"}
    metrics["speed.scale"] = {"value": probe.scale(), "unit": "ratio"}
    tracer.write(OUT / f"trace_{workload.name}.json")
    return plain + with_trace, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "elliptic_dpp" / "cli.py").is_file():
        log(f"error: library source not found under {SRC}")
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = OUT / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    try:
        setup_s = None if args.trace else measure_setup(workload.name, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(f"error: {exc}")
        return 1

    sys.path.insert(0, str(SRC))
    import elliptic_dpp
    from elliptic_dpp import cli

    if not Path(elliptic_dpp.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"error: elliptic_dpp imported from {elliptic_dpp.__file__}, not {SRC}")
        return 2
    warm = run_op(cli, workload.warmup(), run_dir)
    if not warm.ok:
        log(f"error: warm-up operation failed: {warm.error}")
        return 1
    oracle = theta_oracle_error(elliptic_dpp.theta_parts)
    correct = oracle <= THETA_ORACLE_TOL
    if not correct:
        log(f"theta_parts differs from mpmath.jtheta by {oracle:.3e} relative")
    workload.prepare(elliptic_dpp)

    if args.trace:
        results, metrics = traced(cli, workload, args, run_dir)
    else:
        probe = SpeedProbe()
        results = timed(cli, workload, args, run_dir, probe)
        # a ratio of sums over the whole run, at the reference speed: the
        # host's speed drifts by 20% even between 40 s windows
        wall = sum(r.seconds for r in results)
        rate = sum(r.items for r in results) / probe.reference_seconds(wall)
        log(f"{wall:.3f} s of operations, speed scale {probe.scale():.4f} "
            f"over {len(probe.samples)} samples")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
            "items_per_s": {"value": rate, "unit": "1/s"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: evaluation grids, verification suites, sampling.

Verbs: theta, kernel, density, limits, verify, sample, selberg.
Exit status 0 = success, 1 = an identity check failed (or a numerical engine
gave up: AccuracyError, IllConditionedError), 2 = unusable configuration:
a ValueError or OSError, whether `RunConfig.finalize` (which builds the specs
the verb will, to name the flag) or the verb raised it.  `selberg` holds the
integral of the joint density against N! at one tolerance, 1e-8; a case whose
midpoint rule needs more rows than `macdonald.selberg_check` allows exits 1.

Each verb accepts only the flags it reads.  CSV files carry a header row,
either (x, y, re, im) for value grids or (bin_left, bin_right, count, density,
stderr) for histograms, with floats at 17 significant digits; a kernel grid's
coordinates are formatted once per grid, not once per row.  One writer,
`_write_csv`, writes every table (`kernel`, `density --grid`, `theta`, the
histogram of `sample`): its rows split into contiguous parts, one per available
CPU with at least 2**16 numbers each, which forked writers format at the same
time; a part count of 1 (a small table, one CPU, no `os.fork`, or a second
thread running) forks nothing, and every part count writes the same bytes.
There is no option for it.  A JSON file passed via --config supplies defaults
for the verb's flags (keys = flag names with underscores); its values are
checked like the flags, and explicit flags win.  Identical config + seed
produces byte-identical output files.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .dpp_kernels import (KernelSpec, density, empirical_density, exact_sample, intensity,
                          kernel_matrix)
from .macdonald import IllConditionedError, selberg_check
from .root_systems import FAMILIES, derive
from .theta_core import AccuracyError, theta
from .verification import SUITES, CheckResult, _sine_specs, limits_suite, render, run_suites

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    command: str
    type: str = "A"
    N: int = 4
    r: float = 1.0
    t: float = None          # default t_star / 2, filled in finalize
    t_star: float = 1.0
    rho: float = 1.0
    grid: int = 64
    points: str = None
    index: int = 2
    tau_im: float = 1.0
    v_im: float = 0.0
    suite: str = "all"
    horizon: float = 50.0
    steps: int = 20000
    bins: int = 40
    seed: int = 0
    out: str = None

    def finalize(self):
        if self.t is None:
            self.t = 0.5 * self.t_star
        if self.command != "theta":
            d = derive((self.type, self.N, self.r))   # raises ValueError if unusable
        if "t" in _VERB_FLAGS[self.command][1]:
            KernelSpec(d, self.t, self.t_star)         # the time pair and the tau rule
        if self.command == "limits":
            try:     # the sine lines' infinite-volume specs, at t* = horizon / rho^2
                _sine_specs(d.sharp, self.rho, self.horizon)
            except ValueError as exc:
                raise ValueError(f"--rho {self.rho!r} and --horizon {self.horizon!r}: "
                                 f"{exc}") from None
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        if self.command == "sample" and (self.steps < 1 or self.bins < 1):
            raise ValueError(f"need steps >= 1 and bins >= 1, got {self.steps}, {self.bins}")
        if self.points is not None:     # only `density` reads --points
            _check_points([float(s) for s in self.points.split(",")], d)
        return self


def _check_points(pts, d):
    """A configuration for `density`: N finite points in the alcove, [0, L) on
    the circle and [0, L] on the interval.  Coincident points are allowed;
    their density is 0."""
    if len(pts) != d.N:
        raise ValueError(f"--points needs {d.N} values, got {len(pts)}")
    L, closed = d.length, d.walls != "circ"
    if not all(0.0 <= p and (p <= L if closed else p < L) for p in pts):
        raise ValueError(f"--points must be finite and in [0, {L!r}"
                         f"{']' if closed else ')'}, got {pts}")


def _open(path):
    return open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout)


_PART_NUMBERS = 2**16     # the fewest numbers a part of a split table formats


def _parts(numbers):
    """How many parts `_write_csv` formats a table of `numbers` numbers in: one
    per available CPU, with at least `_PART_NUMBERS` numbers a part.  One part
    where the platform lacks `os.sched_getaffinity` or `os.fork`, or where a
    second thread runs: a forked copy of a multi-threaded process can deadlock."""
    if (not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), numbers // _PART_NUMBERS))


def _write_csv(path, header, table):
    """Write a CSV table to `path` (stdout for None): the header row, then the rows.

    A table is (n, numbers, write): n rows, the count of numbers they format,
    and write(fh, lo, hi), which writes rows lo..hi-1 to fh.  `_rows` makes the
    table of a tuple of numeric columns; in `_grid_rows`' table a row is every
    y at one x.  Numbers are formatted "%.17g", the same conversion as
    f"{float(v):.17g}".

    The rows split into `_parts(numbers)` contiguous parts, formatted at the
    same time.  One child is forked per part after the first; it writes its
    rows to an unnamed temporary file and exits, with status 1 on any
    exception, so it never returns here.  This process writes the header and
    the first part straight to the target, then copies each child's file after
    it, in row order, once the child has exited 0.  The bytes are the same for
    every part count.  A child that fails raises ChildProcessError naming its
    rows; on any exception here every child still running is killed and
    reaped before it propagates.
    """
    n, numbers, write = table
    parts = _parts(numbers)
    cut = [n * k // parts for k in range(parts + 1)]
    parent, children = os.getpid(), []      # (pid, lo, hi, file) of the children not reaped
    with _open(path) as fh, contextlib.ExitStack() as files:
        try:
            for lo, hi in zip(cut[1:-1], cut[2:]):
                part = files.enter_context(tempfile.TemporaryFile("w+"))
                pid = os.fork()
                if pid == 0:
                    _write_part(write, part, lo, hi)
                children.append((pid, lo, hi, part))
            fh.write(",".join(header) + "\n")
            write(fh, 0, cut[1])
            while children:
                pid, lo, hi, part = children[0]
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                if status != 0:
                    raise ChildProcessError(
                        f"the writer of rows {lo}..{hi - 1} of {n} exited with status "
                        f"{os.waitstatus_to_exitcode(status)}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        except BaseException:
            if os.getpid() != parent:     # a child interrupted before `_write_part`
                os._exit(1)
            for pid, *_ in children:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            raise


def _write_part(write, fh, lo, hi):
    """A forked child's work: rows lo..hi-1 to fh, then exit; never returns."""
    status = 1
    try:
        write(fh, lo, hi)
        fh.flush()
        status = 0
    finally:
        os._exit(status)


def _rows(*cols):
    """The table of numeric columns (arrays or scalars, broadcast together)."""
    block = np.column_stack(np.broadcast_arrays(*cols))
    row = ",".join(["%.17g"] * len(cols)) + "\n"

    def write(fh, lo, hi):
        fh.write((row * (hi - lo)) % tuple(block[lo:hi].ravel().tolist()))
    return len(block), block.size, write


def _grid_rows(xs, values):
    """The table of (x, y, re, im) rows of the complex matrix `values` on the
    grid xs x xs; its row i is every y at x = xs[i].

    Each coordinate is formatted once, into a template that holds every y of
    a row and a placeholder for its x; only re and im are formatted per entry.
    """
    text = ["%.17g" % x for x in xs.tolist()]
    template = "".join("X," + y + ",%.17g,%.17g\n" for y in text)

    def write(fh, lo, hi):
        for x, row in zip(text[lo:hi], values[lo:hi]):
            fh.write(template.replace("X", x) % tuple(row.view(float).tolist()))
    return len(text), 2 * values.size, write


def _report(results):
    """Print one line per check; exit status 1 if any check failed."""
    print(render(results))
    return 0 if all(res.passed for res in results) else 1


_GRID = ("x", "y", "re", "im")


# ---------------------------------------------------------------------------
# verbs

def _run_theta(cfg):
    vs = np.arange(cfg.grid) / cfg.grid + 1j * cfg.v_im
    with np.errstate(invalid="ignore"):     # mantissa x inf past double range
        vals = theta(cfg.index, vs, 1j * cfg.tau_im)
    if not np.all(np.isfinite(vals)):
        raise AccuracyError("theta leaves double range on this grid")
    _write_csv(cfg.out, _GRID, _rows(vs.real, vs.imag, vals.real, vals.imag))
    return 0


def _grid(cfg):
    ks = KernelSpec((cfg.type, cfg.N, cfg.r), t=cfg.t, t_star=cfg.t_star)
    return ks, (np.arange(cfg.grid) + 0.5) * (ks.family.length / cfg.grid)


def _run_kernel(cfg):
    ks, xs = _grid(cfg)
    _write_csv(cfg.out, _GRID, _grid_rows(xs, kernel_matrix(ks, xs, xs)))
    return 0


def _run_density(cfg):
    if cfg.points is not None:
        ks = KernelSpec((cfg.type, cfg.N, cfg.r), t=cfg.t, t_star=cfg.t_star)
        pts = np.array([float(s) for s in cfg.points.split(",")])
        with _open(cfg.out) as fh:
            fh.write("density=%.17g\n" % density(ks, pts))
        return 0
    ks, xs = _grid(cfg)
    _write_csv(cfg.out, _GRID, _rows(xs, xs, intensity(ks, xs), 0.0))
    return 0


def _run_limits(cfg):
    return _report(limits_suite(derive((cfg.type, cfg.N, cfg.r)), cfg.rho,
                                cfg.horizon))


def _run_verify(cfg):
    return _report(run_suites(cfg.suite, (cfg.type, cfg.N, cfg.r), cfg.t, cfg.t_star))


def _run_sample(cfg):
    ks = KernelSpec((cfg.type, cfg.N, cfg.r), t=cfg.t, t_star=cfg.t_star)
    res = exact_sample(ks, cfg.steps, seed=cfg.seed)
    hist = empirical_density(res, bins=cfg.bins)

    prefix = cfg.out or "sample"
    states = {
        "type": cfg.type, "N": cfg.N, "r": cfg.r,
        "t": cfg.t, "t_star": cfg.t_star, "seed": cfg.seed,
        "steps": cfg.steps, "tabulation_error": res.tabulation_error, "nodes": res.nodes,
        "states": res.positions.tolist(),
    }
    with open(prefix + "_states.json", "w") as fh:
        # json.dumps runs the C encoder; json.dump to a file the Python one
        fh.write(json.dumps(states, sort_keys=True, separators=(",", ":")) + "\n")
    _write_csv(prefix + "_hist.csv",
               ("bin_left", "bin_right", "count", "density", "stderr"),
               _rows(hist.bin_left, hist.bin_right, hist.count, hist.density, hist.stderr))
    print(f"states={len(res.positions)} tabulation_error={res.tabulation_error:.1e} "
          f"files={prefix}_states.json,{prefix}_hist.csv")
    return 0


def _run_selberg(cfg):
    res = selberg_check((cfg.type, cfg.N, cfg.r), cfg.t, cfg.t_star)
    print("lhs=%.17g rhs=%.17g" % (res.lhs, res.rhs))
    return _report([CheckResult("closed-form integral", res.rel_err, 1e-8)])


_VERBS = {
    "theta": _run_theta,
    "kernel": _run_kernel,
    "density": _run_density,
    "limits": _run_limits,
    "verify": _run_verify,
    "sample": _run_sample,
    "selberg": _run_selberg,
}


# ---------------------------------------------------------------------------
# argument plumbing

# every flag, by destination; the flag is "--" + dest with "-" for "_"
_FLAGS = {
    "out": dict(help="output file (default stdout / 'sample')"),
    "seed": dict(type=int),
    "type": dict(choices=FAMILIES),
    "N": dict(type=int),
    "r": dict(type=float),
    "t": dict(type=float),
    "t_star": dict(type=float),
    "index": dict(type=int, choices=(0, 1, 2, 3)),
    "tau_im": dict(type=float),
    "v_im": dict(type=float),
    "grid": dict(type=int),
    "points": dict(help="comma-separated configuration"),
    "rho": dict(type=float),
    "horizon": dict(type=float, help="sine-limit horizon t*rho^2 (default 50)"),
    "suite": dict(choices=sorted(SUITES) + ["all"]),
    "steps": dict(type=int, help="number of states written"),
    "bins": dict(type=int),
}
_FAMILY = ("type", "N", "r")
_TIMES = ("t", "t_star")

# (help, the flags the verb reads besides --config)
_VERB_FLAGS = {
    "theta": ("theta values on a v grid",
              ("out", "index", "tau_im", "v_im", "grid")),
    "kernel": ("correlation kernel on a grid",
               ("out", *_FAMILY, *_TIMES, "grid")),
    "density": ("intensity profile or joint density",
                ("out", *_FAMILY, *_TIMES, "grid", "points")),
    "limits": ("trig / sine / large-N limit residuals",
               (*_FAMILY, "rho", "horizon")),
    "verify": ("named identity suites",
               (*_FAMILY, *_TIMES, "suite")),
    "sample": ("exact i.i.d. states + one-point histogram",
               ("out", "seed", *_FAMILY, *_TIMES, "steps", "bins")),
    "selberg": ("closed-form integral check",
                (*_FAMILY, *_TIMES)),
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="elliptic-dpp",
        description="theta-kernel point processes: evaluate, verify, sample")
    sub = top.add_subparsers(dest="command", required=True)
    for verb, (help_text, dests) in _VERB_FLAGS.items():
        # no abbreviations: "--t" must not reach --type or --tau-im
        p = sub.add_parser(verb, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON file with flag defaults")
        for dest in dests:
            p.add_argument(_flag(dest), dest=dest, **_FLAGS[dest])
    return top


def _config_flags(path):
    """The JSON file's keys as `--flag=value` arguments (null = unset)."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return [f"{_flag(k)}={v}" for k, v in loaded.items() if v is not None]


def run(config):
    """Execute one verb; returns the process exit status."""
    return _VERBS[config.command](config)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config flags go first: argparse checks them, explicit flags win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        del args.config
        cfg = RunConfig(**{k: v for k, v in vars(args).items() if v is not None})
        return run(cfg.finalize())
    except SystemExit as exc:     # argparse rejected a config key or value
        return exc.code
    except (ValueError, OSError) as exc:     # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, IllConditionedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

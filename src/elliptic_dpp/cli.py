"""Command-line front end: evaluation grids, verification suites, sampling.

Verbs: theta, kernel, density, limits, verify, sample, selberg.
Exit status 0 = success, 1 = an identity check failed (or a numerical engine
gave up), 2 = unusable configuration.

CSV files carry a header row, either (x, y, re, im) for value grids or
(bin_left, bin_right, count, density, stderr) for histograms, with floats at
17 significant digits.  A JSON file passed via --config supplies defaults for
any flag (keys = flag names with underscores); explicit flags win.  Identical
config + seed produces byte-identical output files.
"""

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dpp_kernels import (ConsistencyError, InfiniteKernelSpec, KernelSpec,
                          density, empirical_density, exact_sample,
                          infinite_kernel, kernel, kernel_matrix, sine_kernel,
                          trig_kernel)
from .macdonald import IllConditionedError, selberg_check
from .root_systems import FAMILIES, derive
from .theta_core import AccuracyError, theta
from .verification import SUITES, CheckResult, run_suites

__all__ = ["RunConfig", "run", "main"]

_SINE_OF = {"A": "A", "B": "C", "C": "C", "D": "D"}


def _fmt(v):
    return f"{float(v):.17g}"


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
    method: str = "grid"
    budget: int = None
    seed: int = 0
    tol: float = None
    workers: int = None
    out: str = None

    def finalize(self):
        if self.t is None:
            self.t = 0.5 * self.t_star
        if self.workers is None:
            self.workers = int(os.environ.get("ELLIPTIC_DPP_WORKERS", "1"))
        if self.command in ("kernel", "density", "verify", "sample", "selberg",
                            "limits"):
            derive((self.type, self.N, self.r))   # raises ValueError if unusable
        if not 0.0 < self.t < self.t_star:
            raise ValueError(f"need 0 < t < t_star, got t={self.t} t_star={self.t_star}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        if self.command == "sample" and (self.steps < 1 or self.bins < 1):
            raise ValueError(f"need steps >= 1 and bins >= 1, got {self.steps}, {self.bins}")
        if self.points is not None:
            pts = [float(s) for s in self.points.split(",")]
            if self.command == "density":
                _check_points(pts, derive((self.type, self.N, self.r)))
        return self


def _check_points(pts, d):
    """A configuration for `density`: N finite points in the alcove, [0, L) on
    the circle and [0, L] on the interval.  Coincident points are allowed;
    their density is 0."""
    if len(pts) != d.spec.N:
        raise ValueError(f"--points needs {d.spec.N} values, got {len(pts)}")
    L, closed = d.length, d.spec.tag != "A"
    if not all(0.0 <= p and (p <= L if closed else p < L) for p in pts):
        raise ValueError(f"--points must be finite and in [0, {L!r}"
                         f"{']' if closed else ')'}, got {pts}")


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_grid(path, xs, ys, values):
    """Stream a value grid as (x, y, re, im) CSV, one %-format per grid row.

    Byte-identical to formatting every value with `_fmt`: "%.17g" is the
    same conversion, and rows are written as they are formatted instead of
    being collected first.
    """
    vals = np.asarray(values, dtype=complex)
    block = np.empty((len(ys), 4))
    block[:, 1] = ys
    row_fmt = "%.17g,%.17g,%.17g,%.17g\n" * len(ys)
    out = open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write("x,y,re,im\n")
        for x, row in zip(xs, vals):
            block[:, 0] = x
            block[:, 2] = row.real
            block[:, 3] = row.imag
            fh.write(row_fmt % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# verbs

def _run_theta(cfg):
    tau = 1j * cfg.tau_im
    vs = np.arange(cfg.grid) / cfg.grid + 1j * cfg.v_im
    rows = [(v.real, v.imag, theta(cfg.index, v, tau).real,
             theta(cfg.index, v, tau).imag) for v in vs]
    _write(cfg.out, _csv(("x", "y", "re", "im"), rows))
    return 0


def _run_kernel(cfg):
    ks = KernelSpec((cfg.type, cfg.N, cfg.r), t=cfg.t, t_star=cfg.t_star)
    L = ks.derived.length
    xs = (np.arange(cfg.grid) + 0.5) * (L / cfg.grid)
    _write_grid(cfg.out, xs, xs, kernel_matrix(ks, xs, xs))
    return 0


def _run_density(cfg):
    ks = KernelSpec((cfg.type, cfg.N, cfg.r), t=cfg.t, t_star=cfg.t_star)
    if cfg.points is not None:
        pts = np.array([float(s) for s in cfg.points.split(",")])
        _write(cfg.out, f"density={_fmt(density(ks, pts))}\n")
        return 0
    L = ks.derived.length
    xs = (np.arange(cfg.grid) + 0.5) * (L / cfg.grid)
    km = kernel_matrix(ks, xs, xs)
    rows = [(x, x, np.real(km[i, i]), 0.0) for i, x in enumerate(xs)]
    _write(cfg.out, _csv(("x", "y", "re", "im"), rows))
    return 0


def _run_limits(cfg):
    results = []

    # (a) deep-relaxation limit at t*/r^2 = 100: finite kernel vs trig form
    r = cfg.r
    ks = KernelSpec((cfg.type, cfg.N, r), t=50.0 * r**2, t_star=100.0 * r**2)
    d = ks.derived
    xs = np.linspace(0.11, 0.93, 7) * d.length
    km = kernel_matrix(ks, xs, xs)
    worst = max(abs(km[i, j] - trig_kernel(d, x, y))
                for i, x in enumerate(xs) for j, y in enumerate(xs))
    results.append(CheckResult("trigonometric limit (t*/r^2 = 100)",
                               worst / (cfg.N / (2 * np.pi * r)), 1e-6))

    # (b) bulk limit of the infinite kernel vs the sine forms; at the default
    # horizon t* rho^2 = 50 the deviation is ~3e-3 and falls off as the
    # reciprocal of the horizon -- the law line below checks exactly that.
    fam = d.sharp
    sfam = _SINE_OF[fam]
    rho = cfg.rho
    ts = cfg.horizon / rho**2
    pts = [(0.3 / rho, 0.3 / rho), (1.3 / rho, 0.6 / rho), (2.2 / rho, 0.9 / rho)]
    iks = InfiniteKernelSpec(fam, rho=rho, t=0.5 * ts, t_star=ts)
    dev = max(abs(infinite_kernel(iks, x, y) - sine_kernel(sfam, x, y, rho))
              for x, y in pts)
    results.append(CheckResult(
        f"sine limit (t*rho^2 = {cfg.horizon:g})", dev / rho, 1e-6))

    scaled = []
    for h in (50.0, 200.0, 800.0):
        ik = InfiniteKernelSpec(fam, rho=rho, t=0.5 * h / rho**2,
                                t_star=h / rho**2)
        dv = max(abs(infinite_kernel(ik, x, y) - sine_kernel(sfam, x, y, rho))
                 for x, y in pts)
        scaled.append(dv * h)
    spread = (max(scaled) - min(scaled)) / max(scaled)
    results.append(CheckResult("sine convergence law (deviation x horizon)",
                               spread, 2e-2))

    # (c) large-N circle surrogate: N = 64 finite kernel vs infinite form
    N = 64
    rr = N / (2 * np.pi * 1.0)
    ks64 = KernelSpec(("A", N, rr), t=0.5, t_star=1.0)
    ik = InfiniteKernelSpec("A", rho=1.0, t=0.5, t_star=1.0)
    x0 = 0.3 * 2 * np.pi * rr
    worst = max(abs(kernel(ks64, x0 + dx, x0) - infinite_kernel(ik, x0 + dx, x0))
                for dx in (0.1, 0.5, 1.0, 2.0))
    results.append(CheckResult("infinite kernel vs finite N=64 circle",
                               worst, 1e-3))

    for res in results:
        print(res.line())
    return 0 if all(res.passed for res in results) else 1


def _run_verify(cfg):
    results = run_suites(cfg.suite, (cfg.type, cfg.N, cfg.r), cfg.t, cfg.t_star)
    if cfg.tol is not None:
        results = [CheckResult(res.name, res.residual, cfg.tol) for res in results]
    for res in results:
        print(res.line())
    return 0 if all(res.passed for res in results) else 1


def _run_sample(cfg):
    ks = KernelSpec((cfg.type, cfg.N, cfg.r), t=cfg.t, t_star=cfg.t_star)
    res = exact_sample(ks, cfg.steps, seed=cfg.seed)
    hist = empirical_density(res, bins=cfg.bins)

    prefix = cfg.out or "sample"
    states = {
        "type": cfg.type, "N": cfg.N, "r": cfg.r,
        "t": cfg.t, "t_star": cfg.t_star, "seed": cfg.seed,
        "steps": cfg.steps, "tabulation_error": res.tabulation_error,
        "states": res.positions.tolist(),
    }
    with open(prefix + "_states.json", "w") as fh:
        json.dump(states, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    _write(prefix + "_hist.csv", _csv(
        ("bin_left", "bin_right", "count", "density", "stderr"),
        zip(hist.bin_left, hist.bin_right, hist.count, hist.density,
            hist.stderr)))
    print(f"states={len(res)} tabulation_error={res.tabulation_error:.1e} "
          f"files={prefix}_states.json,{prefix}_hist.csv")
    return 0


def _run_selberg(cfg):
    res = selberg_check((cfg.type, cfg.N, cfg.r), cfg.t, cfg.t_star,
                        method=cfg.method, budget=cfg.budget, seed=cfg.seed,
                        workers=cfg.workers, tol=None)
    tol = cfg.tol if cfg.tol is not None else (1e-8 if cfg.N == 1 else 1e-4)
    row = CheckResult("closed-form integral", res.rel_err, tol)
    print(f"lhs={_fmt(res.lhs)} rhs={_fmt(res.rhs)}")
    print(row.line())
    return 0 if row.passed else 1


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

def _build_parser():
    top = argparse.ArgumentParser(
        prog="elliptic-dpp",
        description="theta-kernel point processes: evaluate, verify, sample")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, family=True, times=True):
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--out", help="output file (default stdout / 'sample')")
        p.add_argument("--workers", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        if family:
            p.add_argument("--type", choices=FAMILIES)
            p.add_argument("--N", type=int)
            p.add_argument("--r", type=float)
        if times:
            p.add_argument("--t", type=float)
            p.add_argument("--t-star", dest="t_star", type=float)

    p = sub.add_parser("theta", help="theta values on a v grid")
    common(p, family=False, times=False)
    p.add_argument("--index", type=int, choices=(0, 1, 2, 3))
    p.add_argument("--tau-im", dest="tau_im", type=float)
    p.add_argument("--v-im", dest="v_im", type=float)
    p.add_argument("--grid", type=int)

    p = sub.add_parser("kernel", help="correlation kernel on a grid")
    common(p)
    p.add_argument("--grid", type=int)

    p = sub.add_parser("density", help="intensity profile or joint density")
    common(p)
    p.add_argument("--grid", type=int)
    p.add_argument("--points", help="comma-separated configuration")

    p = sub.add_parser("limits", help="trig / sine / large-N limit residuals")
    common(p, times=False)
    p.add_argument("--rho", type=float)
    p.add_argument("--horizon", type=float,
                   help="sine-limit horizon t*rho^2 (default 50)")

    p = sub.add_parser("verify", help="named identity suites")
    common(p)
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"])

    p = sub.add_parser("sample", help="exact i.i.d. states + one-point histogram")
    common(p)
    p.add_argument("--steps", type=int, help="number of states written")
    p.add_argument("--bins", type=int)

    p = sub.add_parser("selberg", help="closed-form integral check")
    common(p)
    p.add_argument("--method", choices=("grid", "mc"))
    p.add_argument("--budget", type=int)
    return top


def _merge_config(args):
    names = {f.name for f in fields(RunConfig)}
    merged = {"command": args.command}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        bad = set(loaded) - names
        if bad:
            raise ValueError(f"unknown config key(s) {sorted(bad)}")
        merged.update(loaded)
    for k, v in vars(args).items():
        if k in names and v is not None:
            merged[k] = v
    return RunConfig(**merged).finalize()


def run(config):
    """Execute one verb; returns the process exit status."""
    return _VERBS[config.command](config)


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (AccuracyError, ConsistencyError, IllConditionedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

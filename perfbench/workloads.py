"""The benchmark's three workloads and the checks made on their outputs.

Every operation is one `elliptic_dpp.cli.main(argv)` call, timed from
outside.  A nonzero exit status, an uncaught exception, or an output that
fails its check makes the operation count as failed.  The checks recompute
properties from the written files (or from an independent oracle); none of
them compares against a saved copy of earlier output.

A workload's `round(seed)` lists the operations of one round; the seed only
perturbs inputs, never the number or kind of operations, so every run
attempts whole rounds of the same operations.
"""

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An operation's output violated one of its checked properties."""


@dataclass
class Op:
    label: str
    argv: list            # CLI arguments without the output flag
    outputs: tuple = ()   # files the operation writes, relative to the run dir
    out_flag: str = None  # value given to --out, relative to the run dir
    check: object = None  # check(op, run_dir, stdout) -> items written
    data: dict = field(default_factory=dict)


@dataclass
class OpResult:
    ok: bool
    seconds: float
    items: int
    bytes_written: int
    digest: str = ""      # sha256 over stdout and every output file
    error: str = ""


def run_op(cli, op, run_dir, tracer=None, first=None, probe=None):
    """Run one CLI operation with captured stdio, then check what it wrote.

    `first` is the result of an earlier run of the same operation: a repeat
    is checked by being byte-identical to it instead of by `op.check`.  With
    a tracer, spans are recorded during the CLI call only; with a speed probe
    (speed.py), the machine's speed is sampled during the CLI call only.
    """
    run_dir = Path(run_dir)
    for name in op.outputs:
        (run_dir / name).unlink(missing_ok=True)
    argv = list(op.argv)
    if op.out_flag is not None:
        argv += ["--out", str(run_dir / op.out_flag)]
    out, err = io.StringIO(), io.StringIO()
    error = ""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        with (probe or contextlib.nullcontext()), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI let an exception escape: a failed operation
        rc = None
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    stdout = out.getvalue().encode()
    # output paths echoed on stdout name the run directory; leave them out of
    # the digest so repeats into another directory compare equal
    digest = hashlib.sha256(stdout.replace(str(run_dir).encode(), b"<run_dir>"))
    written = len(stdout)
    for name in op.outputs:
        path = run_dir / name
        if path.exists():
            data = path.read_bytes()
            digest.update(data)
            written += len(data)
    if rc != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        return OpResult(False, seconds, 0, written, digest.hexdigest(),
                        error or f"exit status {rc}: {tail[0]}")
    if first is not None:
        if digest.hexdigest() != first.digest:
            return OpResult(False, seconds, 0, written, digest.hexdigest(),
                            "a same-seed repeat wrote different bytes")
        return OpResult(first.ok, seconds, first.items, written, first.digest, first.error)
    try:
        items = op.check(op, run_dir, stdout.decode())
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        return OpResult(False, seconds, 0, written, digest.hexdigest(), f"check failed: {exc}")
    return OpResult(True, seconds, items, written, digest.hexdigest())


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _no_check(op, run_dir, stdout):
    # set-up operations only have to succeed
    return 1


# ---------------------------------------------------------------------------
# independent theta oracle, run once at set-up

def theta_oracle_error(theta_parts):
    """Worst relative error of theta_parts against mpmath.jtheta at 30 digits.

    Index map 0 -> 4, 1 -> 1, 2 -> 2, 3 -> 3 with argument pi v and nome
    q = exp(i pi tau), over purely imaginary tau in the three regimes the
    workloads reach: Im tau ~ 0.01 (modular inversion), 1, and 50.
    """
    import mpmath

    mpmath.mp.dps = 30
    worst = 0.0
    for tau_im in (0.01, 1.0, 50.0):
        tau = 1j * tau_im
        q = mpmath.exp(-mpmath.pi * mpmath.mpf(tau_im))
        vs = np.array([0.123, 0.37 + 0.05j * tau_im, -0.81 + 0.4j * tau_im, 1.7 - 0.2j * tau_im])
        for index, jindex in ((0, 4), (1, 1), (2, 2), (3, 3)):
            mant, scale = theta_parts(index, vs, tau)
            for k, v in enumerate(vs):
                ref = mpmath.jtheta(jindex, mpmath.pi * mpmath.mpc(v.real, v.imag), q)
                got = mpmath.mpc(mant[k].real, mant[k].imag) * mpmath.exp(scale[k])
                worst = max(worst, float(abs(got - ref) / abs(ref)))
    return worst


THETA_ORACLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# sample: the criterion-9 sampler configuration through `sample`

class Sample:
    """`sample --type A --N 4 --t 0.5 --t-star 1` with a seed-derived seed.

    Only --steps/--bins/--seed/--out are passed, so a sampler rewrite that
    drops the Metropolis-only flags still runs this workload unchanged.
    """

    name = "sample"
    N, T, T_STAR = 4, 0.5, 1.0
    STEPS = 2048
    BINS = 8
    BASE = ["sample", "--type", "A", "--N", "4", "--t", "0.5", "--t-star", "1"]

    def __init__(self):
        self.length = 2.0 * math.pi   # circle of radius 1
        self.exact = None

    def warmup(self):
        # one joint density at the same (family, N, t, t*): it runs the same
        # theta -> one-particle matrix -> stacked slogdet path a sampler step
        # does, without the ~40 s of a full sampling run
        return Op("warmup", ["density", "--type", "A", "--N", "4", "--t", "0.5",
                             "--t-star", "1", "--points", "0.5,2.0,3.5,5.0"],
                  check=_no_check)

    def prepare(self, lib):
        """Bin averages of the exact one-point intensity K(x, x), set up once."""
        ks = lib.KernelSpec(("A", self.N, 1.0), t=self.T, t_star=self.T_STAR)
        edges = np.linspace(0.0, self.length, self.BINS + 1)
        u, w = np.polynomial.legendre.leggauss(24)
        exact = np.empty(self.BINS)
        for b in range(self.BINS):
            lo, hi = edges[b], edges[b + 1]
            xs = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
            diag = np.diag(lib.kernel_matrix(ks, xs, xs)).real
            exact[b] = 0.5 * float(np.dot(w, diag))
        self.edges, self.exact = edges, exact

    def round(self, seed):
        cli_seed = int(np.random.default_rng([seed, 9]).integers(1, 2**31 - 1))
        argv = self.BASE + ["--steps", str(self.STEPS), "--bins", str(self.BINS),
                            "--seed", str(cli_seed)]
        return [Op("sample", argv, outputs=("s_states.json", "s_hist.csv"),
                   out_flag="s", check=self.check)]

    def check(self, op, run_dir, stdout):
        with open(Path(run_dir) / "s_states.json") as fh:
            states = np.asarray(json.load(fh)["states"], dtype=float)
        _require(states.ndim == 2 and states.shape[1] == self.N,
                 f"states array has shape {states.shape}")
        _require(states.shape[0] >= self.STEPS,
                 f"{states.shape[0]} states written, {self.STEPS} asked for")
        _require(bool(np.all(np.diff(states, axis=1) > 0.0)), "a state is not strictly ordered")
        _require(bool(np.all(states[:, 0] >= 0.0) and np.all(states[:, -1] < self.length)),
                 "a state leaves the alcove [0, 2 pi)")

        hist = np.loadtxt(Path(run_dir) / "s_hist.csv", delimiter=",", skiprows=1, ndmin=2)
        _require(hist.shape == (self.BINS, 5), f"histogram has shape {hist.shape}")
        _require(np.allclose(hist[:, 0], self.edges[:-1], rtol=0, atol=1e-12)
                 and np.allclose(hist[:, 1], self.edges[1:], rtol=0, atol=1e-12),
                 "histogram bin edges differ from an even split of [0, 2 pi]")
        _require(int(hist[:, 2].sum()) == states.size, "bin counts do not add up to N x states")
        stderr = hist[:, 4]
        _require(bool(np.all(stderr > 0.0)), "a bin has zero standard error")
        pull = float(np.max(np.abs(hist[:, 3] - self.exact) / stderr))
        _require(pull < 4.0, f"worst histogram pull {pull:.2f} >= 4")
        return int(states.shape[0])


# ---------------------------------------------------------------------------
# kernel_grid: `kernel --grid 512` over four (family, N, time) cases

class KernelGrid:
    """Four kernel grids; the seed jitters each case's times by up to +-2%.

    The case order is fixed: the peak RSS depends on it, and a seed-dependent
    order spread it from 185 to 206 MB over ten seeds.

    Im tau of a one-particle theta is size^2 t / (2 pi r^2) with size = N for
    A and 2(N - 1) for D; the small-t case puts Im tau ~ 0.01 at time t (the
    modular-inversion path), the large-t* case Im tau ~ 50 at both times.
    """

    name = "kernel_grid"
    GRID = 512
    # (label, tag, N, t_star, t, alcove length); t None means t = t*/2, where
    # K is Hermitian
    CASES = (
        ("A16", "A", 16, 1.0, None, 2.0 * math.pi),
        ("C3", "C", 3, 1.0, None, math.pi),
        ("A4_small_t", "A", 4, 1.0, 0.01 * 2.0 * math.pi / 16.0, 2.0 * math.pi),
        ("D4_large_tstar", "D", 4, 100.0 * 2.0 * math.pi / 36.0, None, math.pi),
    )

    def warmup(self):
        return Op("warmup", ["kernel", "--type", "A", "--N", "16", "--t", "0.5",
                             "--t-star", "1", "--grid", "64"],
                  outputs=("warmup.csv",), out_flag="warmup.csv", check=_no_check)

    def prepare(self, lib):
        pass

    def round(self, seed):
        rng = np.random.default_rng([seed, 17])
        ops = []
        for label, tag, N, t_star, t, length in self.CASES:
            f = 1.0 + 0.04 * (rng.random() - 0.5)
            hermitian = t is None
            if hermitian:
                t_star = t_star * f
                t = 0.5 * t_star
            else:
                t = t * f
            argv = ["kernel", "--type", tag, "--N", str(N), "--t", repr(t),
                    "--t-star", repr(t_star), "--grid", str(self.GRID)]
            name = f"k_{label}.csv"
            ops.append(Op(label, argv, outputs=(name,), out_flag=name, check=self.check,
                          data={"N": N, "length": length, "hermitian": hermitian}))
        return ops

    def check(self, op, run_dir, stdout):
        path = Path(run_dir) / op.outputs[0]
        with open(path) as fh:
            _require(fh.readline().strip() == "x,y,re,im", "grid CSV header is not x,y,re,im")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n, N, L = self.GRID, op.data["N"], op.data["length"]
        _require(data.shape == (n * n, 4), f"grid CSV has shape {data.shape}")
        h = L / n
        nodes = (np.arange(n) + 0.5) * h
        _require(np.allclose(data[:, 0], np.repeat(nodes, n), rtol=0, atol=1e-12 * L)
                 and np.allclose(data[:, 1], np.tile(nodes, n), rtol=0, atol=1e-12 * L),
                 "grid CSV points are not the midpoint grid row by row")
        K = (data[:, 2] + 1j * data[:, 3]).reshape(n, n)
        kmax = float(np.max(np.abs(K)))
        diag = np.diag(K)
        dmax = float(np.max(np.abs(diag)))
        trace = float(diag.real.sum()) * h
        _require(abs(trace - N) <= 1e-9 * N, f"trace x h = {trace!r}, not N = {N}")
        proj = float(np.max(np.abs(K @ K * h - K))) / kmax
        _require(proj <= 1e-9, f"K o K differs from K by {proj:.3e} relative")
        _require(float(np.max(np.abs(diag.imag))) <= 1e-12 * dmax,
                 "kernel diagonal has an imaginary part")
        _require(float(diag.real.min()) >= -1e-12 * dmax, "kernel diagonal is negative")
        if op.data["hermitian"]:
            herm = float(np.max(np.abs(K - K.conj().T))) / kmax
            _require(herm <= 1e-12, f"K(x,y) - conj K(y,x) = {herm:.3e} relative at t = t*/2")
        return n * n


# ---------------------------------------------------------------------------
# verify: every identity suite for all seven families, plus `limits`

class Verify:
    """`verify --suite all` for the seven families at N = 2..4 and
    (t, t*) = (0.4, 1), and `limits --horizon 300000` for A, B, C and D.

    The inputs are fixed; the seed permutes the order of the 25 runs.
    """

    name = "verify"
    FAMILIES = ("A", "B", "Bv", "C", "Cv", "BC", "D")

    def warmup(self):
        return Op("warmup", ["verify", "--suite", "all", "--type", "A", "--N", "2",
                             "--t", "0.4", "--t-star", "1"], check=_no_check)

    def prepare(self, lib):
        pass

    def round(self, seed):
        ops = [Op(f"verify_{tag}{N}",
                  ["verify", "--suite", "all", "--type", tag, "--N", str(N),
                   "--t", "0.4", "--t-star", "1"], check=self.check)
               for tag in self.FAMILIES for N in (2, 3, 4)]
        ops += [Op(f"limits_{tag}",
                   ["limits", "--type", tag, "--N", "3", "--horizon", "300000"],
                   check=self.check)
                for tag in ("A", "B", "C", "D")]
        order = np.random.default_rng([seed, 23]).permutation(len(ops))
        return [ops[i] for i in order]

    def check(self, op, run_dir, stdout):
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        _require(lines, "no check lines printed")
        bad = [ln for ln in lines if not ln.endswith(" PASS")]
        if bad:
            raise CheckFailed(f"not PASS: {bad[0]}")
        return 1


WORKLOADS = {w.name: w for w in (Sample(), KernelGrid(), Verify())}


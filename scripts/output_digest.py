#!/usr/bin/env python3
"""One digest line per CLI command over a fixed list of commands.

Runs each command in-process against the package in ./src (so run it from
the root of a checkout) and prints

    <sha256> <values sha256> <exit status> <argv>

where the first hash covers the command's stdout, stderr and every file it
wrote, byte for byte, and the second the values of the files it wrote: each
file's name, then its numbers parsed as float64 (a CSV table's columns after
its header row; the states JSON's array, then its metadata by key, numbers as
float64 and strings as JSON text), any other file's bytes.  A change to how
numbers are written moves the first hash and holds the second.  Two
checkouts are compared with one diff:

    (cd /path/to/old && python3 /path/to/output_digest.py) > old.txt
    python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt

The list is the benchmark's commands at fixed inputs (no seed jitter), plus
larger grids, other sampler and theta regimes, Selberg integrals, large
horizons (every suite at t* = 50), points outside the alcove, flags a verb
does not read, values past double range or out of bounds, an --out that
cannot be written, radii small enough that the weight matrices leave double
range, small horizons where the determinant identity's matrix is past its
condition limit, small times where the determinants of the joint density
cancel in plain doubles and the Euler products of a(t) leave them, a kernel
grid written to stdout in parts, `limits` at rho != 1, tables whose
numbers have 3-digit exponents, negative round-off and zeros, and samplers
whose draws split into parts.  A full run takes about 20 s on a 2-core
machine.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

T_SMALL = repr(0.01 * 2.0 * math.pi / 16.0)      # Im tau ~ 0.01 for A4 at t
T_STAR_LARGE = repr(100.0 * 2.0 * math.pi / 36.0)  # Im tau ~ 50 for D4 at t*/2


def _commands():
    cmds = [
        # benchmark: warmups, sample, kernel grids, verify, limits
        "density --type A --N 4 --t 0.5 --t-star 1 --points 0.5,2.0,3.5,5.0",
        "kernel --type A --N 16 --t 0.5 --t-star 1 --grid 64 --out k.csv",
        "sample --type A --N 4 --t 0.5 --t-star 1 --steps 2048 --bins 8 --seed 12345 --out s",
        "kernel --type A --N 16 --t 0.5 --t-star 1 --grid 512 --out k.csv",
        "kernel --type C --N 3 --t 0.5 --t-star 1 --grid 512 --out k.csv",
        f"kernel --type A --N 4 --t {T_SMALL} --t-star 1 --grid 512 --out k.csv",
        f"kernel --type D --N 4 --t {repr(0.5 * float(T_STAR_LARGE))} "
        f"--t-star {T_STAR_LARGE} --grid 512 --out k.csv",
    ]
    cmds += [f"verify --suite all --type {tag} --N {N} --t 0.4 --t-star 1"
             for tag in ("A", "B", "Bv", "C", "Cv", "BC", "D") for N in (2, 3, 4)]
    cmds += [f"limits --type {tag} --N 3 --horizon 300000" for tag in "ABCD"]
    cmds += [
        # larger grid, other sampler configurations, densities, integrals
        "kernel --type A --N 16 --t 0.5 --t-star 1 --grid 1024 --out k.csv",
        # a grid on stdout: 131 072 numbers, two parts on two or more CPUs
        "kernel --type A --N 4 --t 0.5 --t-star 1 --grid 256",
        "sample --type A --N 3 --steps 128 --seed 11 --out s",
        "sample --type C --N 3 --t 0.3 --t-star 1 --steps 256 --bins 12 --seed 5 --out s",
        "sample --type D --N 4 --t 0.7 --t-star 2 --steps 256 --seed 3 --out s",
        "density --type C --N 3 --t 0.4 --t-star 1 --points 0.5,1.2,2.0",
        "density --type BC --N 2 --t 0.4 --t-star 1 --grid 32",
        "selberg --type A --N 1 --t 0.4 --t-star 1",
        "selberg --type A --N 3 --t 0.4 --t-star 1",
        "selberg --type C --N 3 --t 0.4 --t-star 1",
        "selberg --type D --N 4 --t 0.4 --t-star 1",
        # a small time: the sampler's table doubles; the density integrates to N!
        "sample --type A --N 4 --t 0.01 --t-star 1 --steps 256 --seed 3 --out s",
        "selberg --type C --N 2 --t 0.0003 --t-star 1",
        # past the Selberg rule's row limit: 52^4 rows
        "selberg --type D --N 4 --t 0.01 --t-star 1",
        # small times: det M(t) cancels in plain doubles, and the Euler
        # products of a(t) leave them (a(t) is taken in log form)
        "density --type A --N 2 --t 0.01 --t-star 1 --points "
        "3.3999428699507845,5.158019593340341",
        "verify --type A --N 3 --t 0.0001 --t-star 1",
        "verify --type D --N 2 --t 0.0001 --t-star 1",
        # the Gram matrix at a small time: 5 445 midpoint nodes
        "verify --suite biortho --type A --N 3 --t 3e-06 --t-star 1",
        # kernel grids where the node rule's N term sets most of the count:
        # 8 + 1 nodes for C8 at r = 0.2, 16 + 20 for A16
        "verify --suite kernel --type C --N 8 --r 0.2 --t 2 --t-star 5",
        "verify --suite kernel --type A --N 16 --t 0.4 --t-star 1",
    ]
    cmds += [f"theta --index {idx} --tau-im {ti} --v-im {vi} --grid 16"
             for idx in range(4) for ti, vi in (("0.01", "0.003"), ("1", "0.4"),
                                                 ("50", "-20"))]
    cmds += [
        # large horizons, where the bridge and pinned-path checks lose digits
        "verify --type B --N 2 --t 20 --t-star 50",
        "verify --type Bv --N 4 --t 2 --t-star 5",
        "verify --type C --N 4 --t 2 --t-star 5",
        # the weight matrix r(t) grows past 1e13 unequilibrated (A4), and the
        # pinned matrix P passes the condition limit (C4)
        "verify --type A --N 4 --t 5 --t-star 10",
        "verify --type C --N 4 --t 5 --t-star 10",
        # points outside the alcove or not numbers
        "density --type C --N 3 --points=-0.5,1.5,2.0",
        "density --type C --N 3 --points=0.5,1.5,5.0",
        "density --type A --N 2 --points nan,1.0",
        "density --type A --N 2 --points 1.0,1.0",
        # flags the verb does not read
        "verify --suite theta --out x.txt",
        "kernel --type A --N 3 --grid 4 --seed 3",
        "limits --type A --N 3 --horizon 300000 --tol 1e-30",
        "selberg --type A --N 1 --t 0.4 --t-star 1 --tol 1e-3",
        "selberg --type B --N 2 --t 0.4 --t-star 1 --budget 128",
        # theta past double range, and numbers finalize refuses
        "theta --index 2 --tau-im 0.01 --v-im -20 --grid 4",
        "limits --horizon=-5",
        "limits --rho nan",
        "theta --tau-im 0",
        # the kernel away from the middle time at a large horizon
        "kernel --type C --N 4 --t 20 --t-star 50 --grid 64",
        # the smallest grids, and radii or theta arguments finalize refuses
        "kernel --grid 1",
        "kernel --type C --N 4 --t 20 --t-star 50 --grid 7",
        "kernel --type A --N 2 --r 1e-200 --grid 2",
        "kernel --type A --N 2 --r 1e-160 --grid 2",
        "kernel --type A --N 2 --r 1e160 --grid 2",
        "kernel --type A --N 2 --r 1e200 --grid 2",
        "kernel --type A --N 2 --r 1e154 --grid 2",
        "kernel --type A --N 2 --r 1e-154 --grid 2",
        "theta --v-im inf",
        "theta --v-im nan",
        # a kernel factor past double range at a radius finalize accepts,
        # a subnormal theta Im tau and the smallest normal one
        "kernel --type C --N 3 --r 4.3e-154 --t 0.5 --t-star 1 --grid 2",
        # kernel factors whose exponents ~|log m_n| cancel past the stated
        # margin: the smallest radius in range, and a horizon of 1e16
        "kernel --type A --N 2 --r 1e-153 --grid 2",
        "kernel --type C --N 3 --t 5e15 --t-star 1e16 --grid 2",
        "theta --tau-im 1e-310",
        "theta --tau-im 2.2250738585072014e-308 --grid 2",
    ]
    # every suite at the largest horizon: the plain-double bridge and
    # pinned-path checks report inf there, the biorthogonality check passes
    cmds += [f"verify --suite all --type {tag} --N {N} --t 20 --t-star 50"
             for tag in ("A", "B", "Bv", "C", "Cv", "BC", "D") for N in (2, 3, 4)]
    # small radii: r(t) and M leave double range and the bridge matrices get
    # zero rows; those lines read inf, every suite still prints
    cmds += [f"verify --type {fam} --r {r} --t 0.5 --t-star 1"
             for fam, r in (("A --N 3", "0.02"), ("C --N 2", "0.05"), ("B --N 3", "0.05"),
                            ("Cv --N 3", "0.05"), ("D --N 3", "0.05"))]
    # a small horizon where M(x, t) is past its condition limit while the
    # density and the bridge route agree: every line prints
    cmds.append("verify --type A --N 3 --t 0.1 --t-star 0.25")
    # small horizons where M(x, t) is past its condition limit: the
    # determinant-identity line reads inf, every other line prints
    cmds += ["verify --type A --N 4 --t 0.05 --t-star 0.1",
             "verify --type C --N 3 --t 0.02 --t-star 0.05"]
    # a rho whose square is 0 or subnormal, and an --out in a missing directory
    cmds += ["limits --type C --N 2 --rho 1e-200",
             "limits --type C --N 2 --rho 1e-160",
             "kernel --type A --N 2 --grid 2 --out missing/k.csv"]
    # rho != 1: a run of every line, and a small rho whose sine lines reach
    # times near 1e308 (the last one, at t* rho^2 = 800, past it)
    cmds += ["limits --type C --N 3 --rho 1.5 --horizon 300",
             "limits --type C --N 2 --rho 1.5e-153"]
    # tables in the formatter's other regimes: values from e+105 to e+136,
    # 4 095 of them negative; values down to 5e-142 (3-digit exponents),
    # negative round-off and zeros
    cmds += ["theta --index 2 --tau-im 1 --v-im 10 --grid 4096",
             "density --type Cv --N 2 --t 0.001 --t-star 1 --grid 4096"]
    # draws in parts on two or more CPUs: the 20 000-state default, and C8
    cmds += ["sample --type A --N 4 --t 0.5 --t-star 1 --seed 7 --out s",
             "sample --type C --N 8 --steps 4096 --seed 2 --out s"]
    return cmds


def _values(path):
    """The bytes the values hash covers for one written file."""
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).tobytes()
    if path.suffix == ".json":
        meta = json.loads(path.read_text())
        parts = [np.asarray(meta.pop("states"), dtype=np.float64).tobytes()]
        for key, value in sorted(meta.items()):
            text = isinstance(value, str)
            parts.append(key.encode() + b"=" + (json.dumps(value).encode() if text
                                                else np.float64(value).tobytes()))
        return b"\0".join(parts)
    return path.read_bytes()


def _digest(main, argv):
    """Run one command in an empty directory; hash stdout, stderr and files,
    and the values of the files."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = str(main(argv))
                except SystemExit as exc:
                    status = str(exc.code)
                except Exception as exc:   # a traceback is an outcome too
                    status = f"raised-{type(exc).__name__}"
                    err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            os.chdir(cwd)
        h, v = hashlib.sha256(), hashlib.sha256()
        h.update(out.getvalue().encode())
        h.update(b"\0")
        h.update(err.getvalue().encode())
        for path in sorted(Path(tmp).iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0")
            h.update(path.read_bytes())
            v.update(b"\0" + path.name.encode() + b"\0")
            v.update(_values(path))
    return h.hexdigest(), v.hexdigest(), status


def main():
    sys.path.insert(0, str(Path("src").resolve()))
    from elliptic_dpp.cli import main as cli_main

    for cmd in _commands():
        argv = shlex.split(cmd)
        digest, values, status = _digest(cli_main, argv)
        print(f"{digest} {values} {status} {cmd}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

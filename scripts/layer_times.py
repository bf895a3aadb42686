#!/usr/bin/env python3
"""Layer times of `kernel --grid` and of the sampler, with part timelines of both.

First, the per-call layers under every verb, best of k: each call is
repeated in a loop of about 2 ms, and the table prints the loop's least
time per call in ms, and per point in us where a call takes points:

    theta_parts    one `theta_parts(1, v, tau)` call at 1, 64 and 1e4 points
                   (Re v across a period, Im v = 0.3 Im tau) at Im tau 0.01,
                   1 and 50
    m_fn_parts     the N one-particle functions at 512 points, the sampler's
                   drawn-point call (A4, t = 0.5)
    _factors       the sampler's drawn-point `_factors(ks, y, y)` at those 512
                   points, a = b at t = t*/2: the heat-kernel mode series
                   (the block's Im tau = 1.27)
    theta route    the same factors with `series` false: `m_fn_parts` over
                   `ks.norms_log` (the spec's norms computed before timing)
    logdet         `macdonald.logdet` on a (64, 4, 4) stack
    infinite_kernel  one call at 3 points (A, rho = 1, t* = 50, t = t*/2),
                   the points of the `limits` sine lines

Then, for the four grids of the benchmark's `kernel_grid` workload (A16 and C3 at
t = t*/2, A4 at Im tau ~ 0.01, D4 at Im tau* ~ 50, without its jitter) it
prints, best of k in ms:

    factors   `_factors`: the balanced factors at both times, once per grid
              (the spec's norms, `ks.norms_log`, computed before timing)
    rows      one row request of `_kernel_rows` (its factors formed before
              timing), the one mode sum `_kernel_sum` over `cli._ROW_NUMBERS`
              numbers of rows
    fields    `_fields` of one block, `cli._BLOCK_NUMBERS` numbers of K
    text      `_text` (the NUL strip) of that block's fields
    gather    a binary copy of a child part's bytes from one temporary file
              into another, as `_write_csv` gathers a child's part

then one `kernel` call per grid into a temporary file, with its parts in ms
from the call's start: this process's part (own), each child's part, the wait
for each child after the parts before it, and the copy of its file (gather).
The part count is the library's own (one per available CPU).

Then, for the sampler at 513 and 4097 table nodes, best of k in ms, and the
tables' size in MB:

    tables    `_tables`: the factors on the nodes, the tree of cell
              matrices and the curvature sums
    chunk     one `_chain_rule_chunk` of `_CHUNK` = 512 states on them

for A2, A4, A8, A10, A12, A16 at t = t*/2 and C3 at t = 0.3 (t* = 1).  The
chunk is called as `_chain_rule_chunk(ks, U, *tables)`, so the script runs
on any table layout `_tables` returns.

Last, one `exact_sample` call of 2048 states each for A4 at t = 0.5 (its
table proven before any draw), C3 at t = 0.3 (off t*/2: the pilot picks the
table) and A16 at t = 0.5 (a pilot at each size until the last table is
proven), in ms from the call's start: each table size with its build
(tables; the first build also computes the spec's norms), its certificate's
bound (proof) and the pilot's draw with its mean bound where one runs, then
the parts as in the grid's timeline.

Usage:
    PYTHONPATH=src python3 scripts/layer_times.py [--grid 512] [--repeat 7]
"""

import argparse
import math
import os
import shutil
import tempfile
import time

import numpy as np

from elliptic_dpp import cli, dpp_kernels, forks
from elliptic_dpp.biortho import m_fn_parts
from elliptic_dpp.dpp_kernels import (InfiniteKernelSpec, KernelSpec, _factors, _kernel_rows,
                                      infinite_kernel)
from elliptic_dpp.macdonald import logdet
from elliptic_dpp.theta_core import theta_parts

# (label, family, t, t*)
CASES = (
    ("A16", ("A", 16, 1.0), 0.5, 1.0),
    ("C3", ("C", 3, 1.0), 0.5, 1.0),
    ("A4_small_t", ("A", 4, 1.0), 0.01 * 2.0 * math.pi / 16.0, 1.0),
    ("D4_large_tstar", ("D", 4, 1.0), 50.0 * 2.0 * math.pi / 36.0, 100.0 * 2.0 * math.pi / 36.0),
)

# (label, family, t) of the sampler's table, t* = 1
SAMPLER_CASES = tuple((f"A{N}", ("A", N, 1.0), 0.5) for N in (2, 4, 8, 10, 12, 16)) + (
    ("C3_t0.3", ("C", 3, 1.0), 0.3),)
TABLE_NODES = (513, 4097)

# (label, family, t) of the sampler's timeline, t* = 1: a proven table, a
# pilot off t*/2, and a pilot until the last table is proven
TIMELINE_CASES = (("A4_t0.5", ("A", 4, 1.0), 0.5), ("C3_t0.3", ("C", 3, 1.0), 0.3),
                  ("A16_t0.5", ("A", 16, 1.0), 0.5))
TIMELINE_STATES = 2048

# the per-call layer table: theta_parts' point counts and Im tau
THETA_POINTS = (1, 64, 10_000)
THETA_IM_TAU = (0.01, 1.0, 50.0)


def best(fn, repeat):
    """The least wall time of `repeat` calls of fn(), in ms."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def per_call(fn, repeat):
    """The least time of one fn() call in ms, over `repeat` loops of about
    2 ms each."""
    loops = max(1, int(2.0 / max(best(fn, 1), 1e-3)))
    return best(lambda: [fn() for _ in range(loops)], repeat) / loops


def call_layers(repeat):
    """(layer, case, points, ms per call) rows of the per-call layer table."""
    rows = []
    for y in THETA_IM_TAU:
        for n in THETA_POINTS:
            v = np.arange(n) / n + 0.3j * y
            rows.append(("theta_parts", f"Im tau {y:g}", n,
                         per_call(lambda: theta_parts(1, v, 1j * y), repeat)))
    ks = KernelSpec(("A", 4, 1.0), t=0.5, t_star=1.0)
    x = np.random.default_rng(1).uniform(0.0, ks.family.length, 512)
    rows.append(("m_fn_parts", "A4 t = 0.5", len(x),
                 per_call(lambda: m_fn_parts(ks.family, x, ks.t), repeat)))
    for name, series in (("_factors", True), ("theta route", False)):
        rows.append((name, "A4 t = 0.5", len(x),
                     per_call(lambda: _factors(ks, x, x, series=series), repeat)))
    stack = np.random.default_rng(2).standard_normal((64, 4, 4)) + 4.0 * np.eye(4)
    rows.append(("logdet", "(64, 4, 4)", None, per_call(lambda: logdet("stack", stack), repeat)))
    ik = InfiniteKernelSpec("A", rho=1.0, t=25.0, t_star=50.0)
    px, py = np.array([0.3, 1.3, 2.2]), np.array([0.3, 0.6, 0.9])
    rows.append(("infinite_kernel", "A rho = 1 t* = 50", len(px),
                 per_call(lambda: infinite_kernel(ik, px, py), repeat)))
    return rows


def layers(ks, n, repeat):
    xs = (np.arange(n) + 0.5) * (ks.family.length / n)
    kernel_rows = _kernel_rows(ks, xs, xs)
    rows = max(1, cli._ROW_NUMBERS // (2 * n))
    numbers = np.resize(kernel_rows(0, rows).view(float), cli._BLOCK_NUMBERS)
    fields = cli._fields(numbers)
    with tempfile.TemporaryFile() as part, tempfile.TemporaryFile() as target:
        cli._grid_rows(xs, kernel_rows)[2](part, n // 2, n)   # a 2-part grid's child

        def gather():
            target.seek(0)
            part.seek(0)
            shutil.copyfileobj(part, target)
        times = dict(
            factors=best(lambda: _factors(ks, xs, xs), repeat),
            rows=best(lambda: kernel_rows(0, rows), repeat),
            fields=best(lambda: cli._fields(numbers), repeat),
            text=best(lambda: cli._text(fields), repeat),
            gather=best(gather, repeat))
        size = part.tell()
    return times, size


def sampler_layers(ks, nodes, repeat):
    """Best-of-`repeat` ms of `_tables` and of one chunk on them, and the
    tables' bytes."""
    tables = dpp_kernels._tables(ks, nodes)
    U = np.random.default_rng(1).random((dpp_kernels._CHUNK, ks.family.N))
    times = dict(
        tables=best(lambda: dpp_kernels._tables(ks, nodes), repeat),
        chunk=best(lambda: dpp_kernels._chain_rule_chunk(ks, U, *tables), repeat))
    return times, sum(a.nbytes for a in tables if isinstance(a, np.ndarray))


def timeline(call, patches=lambda note: {}):
    """call(tmp), tmp a temporary directory, with `forks.run` traced: the
    (event, lo, hi, start, end, value) of its parts, in s from the call's
    start, and the call's time.  The children's events come back through a
    log file every part appends to.  patches(note) maps (module, name) to a
    replacement set for the call; note(kind, lo, hi, start, value) logs an
    event that ends now."""
    run = forks.run
    with tempfile.TemporaryDirectory() as tmp:
        log = os.open(os.path.join(tmp, "log"), os.O_RDWR | os.O_CREAT | os.O_APPEND)

        def note(kind, lo, hi, start, value=0.0):
            os.write(log, f"{kind} {lo} {hi} {start!r} {time.perf_counter()!r} {value!r}\n"
                     .encode())

        def timed(kind, fn):
            def call(*args):
                t0 = time.perf_counter()
                fn(*args)
                note(kind, args[-2], args[-1], t0)
            return call

        def traced(n, start, count, own, child, gather, name, **kw):
            note("run", start, n, time.perf_counter())
            run(n, start, count, timed("own", own), timed("child", child),
                timed("gather", gather), name, **kw)

        patched = {(forks, "run"): traced, **patches(note)}
        saved = {key: getattr(*key) for key in patched}
        for (module, name), fn in patched.items():
            setattr(module, name, fn)
        try:
            t0 = time.perf_counter()
            call(tmp)
            total = time.perf_counter() - t0
        finally:
            for (module, name), fn in saved.items():
                setattr(module, name, fn)
        text = os.pread(log, os.fstat(log).st_size, 0).decode()
        os.close(log)
    events = []
    for line in text.splitlines():
        kind, lo, hi, s, e, value = line.split()
        events.append((kind, int(lo), int(hi), float(s) - t0, float(e) - t0, float(value)))
    return events, total


def kernel_call(argv):
    """A `timeline` call of the `kernel` verb, its table written into tmp."""
    def call(tmp):
        assert cli.main(argv + ["--out", os.path.join(tmp, "k.csv")]) == 0
    return call


def sampler_patches(note):
    """Timed `_tables`, `_certificate` and `_draw_rows` for `timeline`: a
    table's build (`tables`), its certificate (`proof`, the bound) and each
    draw (`draw`, the mean bound of its rows), with the table's nodes as lo
    and hi."""
    tables, certificate, draw_rows = (dpp_kernels._tables, dpp_kernels._certificate,
                                      dpp_kernels._draw_rows)

    def timed_tables(ks, nodes):
        t0 = time.perf_counter()
        out = tables(ks, nodes)
        note("tables", nodes, nodes, t0)
        return out

    def timed_certificate(ks, tab):
        t0 = time.perf_counter()
        bound = certificate(ks, tab)
        note("proof", len(tab[0]), len(tab[0]), t0, bound)
        return bound

    def timed_draw_rows(ks, U, tab, pos, est):
        t0 = time.perf_counter()
        draw_rows(ks, U, tab, pos, est)
        note("draw", len(tab[0]), len(tab[0]), t0, float(np.mean(est)))

    return {(dpp_kernels, "_tables"): timed_tables,
            (dpp_kernels, "_certificate"): timed_certificate,
            (dpp_kernels, "_draw_rows"): timed_draw_rows}


def print_parts(events):
    """The parts of a `forks.run` timeline, in row order, with the wait for
    each child after the parts before it."""
    done = None
    parts = [ev for ev in events if ev[0] in ("own", "child", "gather")]
    for kind, lo, hi, s, e, _ in sorted(parts, key=lambda ev: (ev[1], ev[0] != "child")):
        if kind == "gather":
            print(f"  wait    rows {lo}..{hi - 1}: {1e3 * (s - done):8.1f}")
        print(f"  {kind:7s} rows {lo}..{hi - 1}: {1e3 * s:8.1f} .. {1e3 * e:8.1f}"
              f"  ({1e3 * (e - s):.1f})")
        if kind != "child":
            done = e


def print_sampler(events):
    """A sampler timeline: each table size in order, with its build, its
    certificate's bound and the pilot's mean bound where one is drawn, then
    the parts.  A draw that ends before the parts start is the pilot's."""
    start = next(s for kind, *_, s, _, _ in events if kind == "run")
    for kind, nodes, _, s, e, value in sorted(events, key=lambda ev: ev[3]):
        if kind == "tables":
            print(f"  tables  {nodes:5d} nodes: {1e3 * s:8.1f} .. {1e3 * e:8.1f}"
                  f"  ({1e3 * (e - s):.1f})")
        elif kind == "proof":
            verdict = "proven" if value <= dpp_kernels.SAMPLER_TV_TOL else "not proven"
            print(f"  proof   {nodes:5d} nodes: {1e3 * s:8.1f} .. {1e3 * e:8.1f}"
                  f"  ({1e3 * (e - s):.1f})  bound {value:.3g}, {verdict}")
        elif kind == "draw" and e <= start:
            print(f"  pilot   {nodes:5d} nodes: {1e3 * s:8.1f} .. {1e3 * e:8.1f}"
                  f"  ({1e3 * (e - s):.1f})  mean bound {value:.3g}")
    print_parts(events)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--grid", type=int, default=512)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()
    n = args.grid
    print(f"per-call layers, best of {args.repeat} loops of ~2 ms")
    print(f"{'layer':17s}{'case':19s}{'points':>7s}{'ms/call':>10s}{'us/point':>10s}")
    for layer, case, points, ms in call_layers(args.repeat):
        per_point = f"{1e3 * ms / points:10.3f}" if points else ""
        print(f"{layer:17s}{case:19s}{points or '':>7}{ms:10.4f}{per_point}")
    print()
    print(f"grid {n}, best of {args.repeat}, ms; one row request = "
          f"{max(1, cli._ROW_NUMBERS // (2 * n))} rows, one block = {cli._BLOCK_NUMBERS} numbers")
    print(f"{'grid':16s}{'factors':>9s}{'rows':>8s}{'fields':>8s}{'text':>8s}{'gather':>8s}"
          f"  child part")
    for label, family, t, t_star in CASES:
        times, size = layers(KernelSpec(family, t=t, t_star=t_star), n, args.repeat)
        print(f"{label:16s}" + "".join(f"{times[k]:{9 if k == 'factors' else 8}.2f}"
                                       for k in ("factors", "rows", "fields", "text", "gather"))
              + f"  {size / 1e6:.1f} MB")
    print(f"\npart timeline of one `kernel --grid {n}` call, ms from its start "
          f"({len(os.sched_getaffinity(0))} CPUs)")
    for label, (tag, N, r), t, t_star in CASES:
        argv = ["kernel", "--type", tag, "--N", str(N), "--r", repr(r), "--t", repr(t),
                "--t-star", repr(t_star), "--grid", str(n)]
        events, total = timeline(kernel_call(argv))
        print(f"{label}: {1e3 * total:.1f} ms in all")
        print_parts(events)
    print(f"\nsampler, best of {args.repeat}, ms; one chunk = {dpp_kernels._CHUNK} states")
    print(f"{'table':16s}{'nodes':>6s}{'tables':>9s}{'chunk':>9s}{'MB':>8s}")
    for label, family, t in SAMPLER_CASES:
        for nodes in TABLE_NODES:
            times, size = sampler_layers(KernelSpec(family, t=t, t_star=1.0), nodes, args.repeat)
            print(f"{label:16s}{nodes:6d}{times['tables']:9.2f}{times['chunk']:9.2f}"
                  f"{size / 1e6:8.2f}")
    print(f"\nsampler timeline of one `exact_sample` call of {TIMELINE_STATES} states, "
          f"ms from its start (t* = 1)")
    for label, family, t in TIMELINE_CASES:
        ks = KernelSpec(family, t=t, t_star=1.0)
        events, total = timeline(lambda tmp: dpp_kernels.exact_sample(ks, TIMELINE_STATES, seed=1),
                                 sampler_patches)
        print(f"{label}: {1e3 * total:.1f} ms in all")
        print_sampler(events)


if __name__ == "__main__":
    main()

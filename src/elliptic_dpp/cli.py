"""Command-line front end: evaluation grids, verification suites, sampling.

Verbs: theta, kernel, density, limits, verify, sample, selberg.
Exit status 0 = success, 1 = an identity check failed (or a numerical engine
gave up: an AccuracyError, IllConditionedError included), 2 = unusable
configuration: a ValueError or OSError, whether `_check` (which builds the
specs the verb runs on, once, naming the flag at fault) or the verb raised
it.  `selberg` holds the integral of the joint density against N! at one
tolerance, 1e-8; a case whose midpoint rule needs more rows than
`macdonald.selberg_check` allows exits 1.

Each verb accepts only the flags it reads.  CSV files carry a header row,
either (x, y, re, im) for value grids or (bin_left, bin_right, count, density,
stderr) for histograms, with floats at 17 significant digits, byte for byte
"%.17g"; a kernel grid's coordinates are formatted once per grid, not once
per row, and its values are summed a block of rows at a time by the part that
writes them (`dpp_kernels._kernel_rows`), so no process holds the whole
matrix.  `_fields` formats a block of numbers at once in numpy, from a
double-double product with 10^k whose relative error is below ~2^-100, and
falls back to "%.17g" % v for a value the doubles cannot decide (a rounding
within 1e-9 of a tie, |v| outside [1e-280, 1e280] but 0, inf, nan).  One
writer, `_write_csv`, writes every table (`kernel`, `density --grid`,
`theta`, the histogram of `sample`) and the states of `sample`, whose
<prefix>_states.json is json.dumps' metadata around a states array of
"[x1,...,xN]" rows of "%.17g" numbers: its rows split into contiguous parts
by the part rule the sampler shares (`forks`), one per available CPU with
at least 2**16 numbers each, which forked writers format at the same time,
into the target as bytes (to stdout through sys.stdout.buffer);
a part count of 1 (a small table, one CPU, no `os.fork`, or a second thread
running) forks nothing, and every part count writes the same bytes.  There
is no option for it.  A writer that fails names its rows and why, and the
file it was writing is removed.  A
JSON file passed via --config supplies defaults for the verb's flags (keys =
flag names with underscores); its values are checked like the flags, and
explicit flags win.  Identical config + seed produces byte-identical output
files.
"""

import argparse
import contextlib
import functools
import json
import os
import shutil
import sys

import numpy as np

from . import forks
from .dpp_kernels import (_SUM_ENTRIES, KernelSpec, _kernel_rows, density, empirical_density,
                          exact_sample, intensity)
from .macdonald import selberg_check
from .root_systems import FAMILIES, derive
from .theta_core import AccuracyError, theta
from .verification import SUITES, CheckResult, limit_specs, limits_suite, render, run_suites

__all__ = ["main"]


class _Ascii:
    """A text stream with no bytes buffer (io.StringIO) as a bytes sink: each
    write is decoded as ASCII."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data):
        self.stream.write(str(data, "ascii"))


def _open(path):
    """A binary target: the file `path`, or for None stdout's bytes,
    sys.stdout.buffer once sys.stdout is flushed (an `_Ascii` of a stream
    without one)."""
    if path is not None:
        return open(path, "wb")
    sys.stdout.flush()
    buffer = getattr(sys.stdout, "buffer", None)
    return contextlib.nullcontext(_Ascii(sys.stdout) if buffer is None else buffer)


_PART_NUMBERS = 2**16     # the fewest numbers a part of a split table formats


def _write_csv(path, head, table, tail=""):
    """Write a table to `path` (stdout for None): the text `head`, the rows,
    then the text `tail`.

    A table is (n, numbers, write): n rows, the count of numbers they format,
    and write(fh, lo, hi), which writes rows lo..hi-1 to fh as ASCII bytes.
    `_rows` makes the table of a tuple of numeric columns, as CSV lines or as
    the rows of a JSON array; in `_grid_rows`' table a row is every y at one
    x, and a part computes its own rows of the matrix.  Numbers are formatted
    by `_fields`, byte for byte "%.17g", the same conversion as
    f"{float(v):.17g}".  A CSV table's head is its header row; the states file
    of `sample` is its JSON text before and after the states array.

    The target is binary (`_open`): head and tail are encoded once, and the
    rows go in as bytes.  The rows split into `forks.parts(numbers,
    _PART_NUMBERS)` contiguous parts, formatted at the same time by
    `forks.run`: this process writes the head and the first part straight to
    the target, and each forked child its rows to a binary temporary file,
    whose bytes are copied after it in row order.  The bytes are the same for
    every part count.  A child that fails raises
    ChildProcessError naming its rows and the child's exception (type and
    message) or the signal that killed it; on any exception a table being
    written to `path` is removed before it propagates.
    """
    n, numbers, write = table
    with _open(path) as fh:
        try:
            fh.write(head.encode())
            forks.run(n, 0, forks.parts(numbers, _PART_NUMBERS),
                      lambda lo, hi: write(fh, lo, hi), write,
                      lambda part, lo, hi: shutil.copyfileobj(part, fh), "writer")
            fh.write(tail.encode())
        except BaseException:
            if path is not None:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


# ---------------------------------------------------------------------------
# number formatting: "%.17g" for a block of doubles at once

_BLOCK_NUMBERS = 2**13    # numbers formatted per block of rows (bounds the transient memory)
# numbers of a grid's matrix asked for at once: the mode sum's block of
# complex entries, whose per-call cost a smaller request would pay more often
_ROW_NUMBERS = 2 * _SUM_ENTRIES
_SPLIT = 134217729.0      # 2^27 + 1, Veltkamp's splitter


@functools.cache
def _tables():
    """The formatter's lookup tables, built on first use.

    "quads": the 4 ASCII digits of 0..9999, one little-endian uint32 each;
    "lead" and "exp", per E + 330: the text before the digits of fixed
    notation ("0.", ... "0.000") and the exponent of scientific notation
    ("e+17", "e-100"), NUL-padded to 8 bytes; "pow10", per k + 300 for k in
    [-300, 300]: fl(10^k), its two Veltkamp halves and fl(10^k - fl(10^k)),
    each column computed exactly from Python ints.
    """
    i = np.arange(10000, dtype=np.uint32)
    quads = sum((i // 10 ** (3 - b) % 10 + 48) << 8 * b for b in range(4))   # byte b: digit b
    E = range(-330, 331)
    lead = "".join(("0." + "0" * (-e - 1) if -4 <= e < 0 else "").ljust(8, "\0") for e in E)
    exp = "".join(("" if -4 <= e < 17 else "e%+03d" % e).ljust(8, "\0") for e in E)
    pow10 = np.empty((4, 601))
    for j in range(601):
        if j >= 300:
            p = 10 ** (j - 300)
            h = float(p)
            low = float(p - int(h))
        else:
            d = 10 ** (300 - j)
            h = 1 / d      # int / int rounds correctly
            num, den = h.as_integer_ratio()
            low = (den - num * d) / (den * d)
        c = _SPLIT * h
        hh = c - (c - h)
        pow10[:, j] = h, hh, h - hh, low
    return dict(quads=quads.astype("<u4"), lead=np.frombuffer(lead.encode(), np.uint64),
                exp=np.frombuffer(exp.encode(), np.uint64), pow10=pow10)


def _scaled(a, E):
    """floor(a 10^(16 - E)) and the fraction past it, for a in [1e-280, 1e280].

    The product is a double-double: Dekker's exact product of a and
    h = fl(10^k), plus a fl(10^k - h); its relative error is below ~2^-100, so
    the fraction is within ~1e-14 of the exact one.  Where E is right the
    floor is in [10^16, 10^17), and the rounded product, >= 2^53, an integer.
    """
    h, hh, hl, low = _tables()["pow10"].take(316 - E, axis=1)    # columns k + 300, k = 16 - E
    p = a * h
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    lo = ah * hh - p
    lo += ah * hl
    lo += al * hh
    lo += al * hl
    lo += a * low
    fl = np.floor(lo)
    D = p.astype(np.int64)
    D += fl.astype(np.int64)
    lo -= fl
    return D, lo


def _percent_g(v):
    """The per-value path: "%.17g" of each value of the array v."""
    return ["%.17g" % x for x in v.tolist()]


def _fields(v):
    """"%.17g" of each value of the float64 array v, as an (n, W) uint8
    matrix: one ASCII field a row, padded with NUL bytes anywhere in it.

    With E = floor(log10|v|), the 17 significant digits D are |v| 10^(16 - E)
    rounded, from `_scaled`; E moves by one until floor(|v| 10^(16 - E)) is
    in [10^16, 10^17), and a D that rounds up to 10^17 is 10^16 at E + 1.  The
    layout follows "%g": fixed notation for -4 <= E < 17, scientific with at
    least 2 exponent digits otherwise; trailing zeros of the fraction go, and
    so does a point with no digit after it.  `_percent_g` formats what the
    doubles cannot decide: a non-finite v, |v| outside [1e-280, 1e280] but 0,
    a fraction within 1e-9 of 1/2, and an E not settled after two moves.
    """
    n = v.size
    t = _tables()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    zero = np.flatnonzero(a == 0)
    np.copyto(a, 1.0, where=~fast)
    E = np.log10(a)
    E = np.floor(E, out=E).astype(np.int64)
    D, frac = _scaled(a, E)
    bad = np.flatnonzero((D < 10**16) | (D >= 10**17))
    for _ in range(2):
        if not bad.size:
            break
        E[bad] += np.where(D[bad] < 10**16, -1, 1)
        D[bad], frac[bad] = _scaled(a[bad], E[bad])
        bad = bad[(D[bad] < 10**16) | (D[bad] >= 10**17)]
    frac -= 0.5
    D += frac > 0
    slow = np.abs(frac) <= 1e-9
    slow |= ~fast
    slow[zero] = False
    slow[bad] = True
    top = np.flatnonzero(D == 10**17)
    D[top] = 10**16
    E[top] += 1
    # the digits: D's first, then four 4-digit groups g
    hi = D // 10**8
    halves = np.stack([hi, D - hi * 10**8], axis=1).astype(np.int32)
    first = halves[:, 0] // 10**8
    halves[:, 0] -= first * 10**8
    g = np.stack([halves // 10**4, halves % 10**4], axis=2).reshape(n, 4)
    digits = t["quads"].take(g).view(np.uint8)
    # P digits before the point; K digits printed
    sci = (E < -4) | (E > 16)
    P = np.where(sci, 1, np.where(E < 0, 0, E + 1))
    K = np.full(n, 17)
    E[zero], P[zero], K[zero], digits[zero] = 0, 1, 1, 0
    short = np.flatnonzero(digits[:, 15] == ord("0"))
    if short.size:      # the fraction's trailing zeros go
        nonzero = digits[short] != ord("0")
        last = np.where(nonzero.any(axis=1), 16 - nonzero[:, ::-1].argmax(axis=1), 0)
        K[short] = np.maximum(P[short], last + 1)
        digits[short] *= np.arange(1, 17) < K[short, None]
    point = K > P
    slots = np.zeros(18, bool)
    slots[P[point]] = True
    Emin, Emax = int(E.min()), int(E.max())
    nlead = min(5, max(0, 1 - Emin))
    nexp = 0 if -4 <= Emin and Emax < 17 else 5 if min(Emin, -Emax) <= -100 else 4
    cuts = np.flatnonzero(slots[1:17]).tolist()
    out = np.empty((n, 2 + nlead + 16 + len(cuts) + nexp), np.uint8)
    out[:, 0] = np.signbit(v).view(np.uint8) * np.uint8(ord("-"))
    e = E + 330
    if nlead:
        out[:, 1:1 + nlead] = t["lead"].take(e).view(np.uint8).reshape(n, 8)[:, :nlead]
    c = 1 + nlead
    out[:, c] = first + ord("0")
    out[zero, c] = ord("0")
    c += 1
    start = 0
    for s in cuts + [16]:      # a point slot after digit s + 1 of each cut
        out[:, c:c + s - start] = digits[:, start:s]
        c += s - start
        start = s
        if s < 16:
            out[:, c] = (point & (P == s + 1)).view(np.uint8) * np.uint8(ord("."))
            c += 1
    if nexp:
        out[:, c:] = t["exp"].take(e).view(np.uint8).reshape(n, 8)[:, :nexp]
    if slow.any():
        idx = np.flatnonzero(slow)
        text = "".join(s.ljust(24, "\0") for s in _percent_g(v[idx]))
        if out.shape[1] < 24:
            out = np.pad(out, ((0, 0), (0, 24 - out.shape[1])))
        out[idx] = 0
        out[idx, :24] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
    return out


def _text(block):
    """The bytes of a uint8 matrix of ASCII fields, its NUL bytes dropped."""
    return block.tobytes().translate(None, b"\0")


def _rows(*cols, json_array=False):
    """The table of numeric columns (arrays or scalars, broadcast together).

    A row is its fields joined by ",", then a newline: a CSV line.  With
    `json_array` a row is "[", its fields joined by ",", "]", and a "," unless
    it is the table's last row: the rows of a JSON array of arrays.  Rows are
    written in blocks of about `_BLOCK_NUMBERS` numbers: `_fields` formats a
    block's numbers at once, and a "," or a row's end follows each field.
    """
    block = np.column_stack(np.broadcast_arrays(*cols)).astype(float, copy=False)
    n, width = block.shape
    step = max(1, _BLOCK_NUMBERS // width)
    # JSON rows take a column before each field, "[" at a row's start, and one
    # after its "," or "]", the "," between rows
    lead = int(json_array)

    def write(fh, lo, hi):
        for b in range(lo, hi, step):
            e = min(b + step, hi)
            fields = _fields(block[b:e].ravel())
            w = fields.shape[1]
            text = np.empty((len(fields), w + 1 + 2 * lead), np.uint8)
            text[:, lead:lead + w] = fields
            text[:, lead + w] = ord(",")
            if json_array:
                text[:, [0, -1]] = 0
                text[::width, 0] = ord("[")
                text[width - 1::width, -2:] = np.frombuffer(b"],", np.uint8)
                if e == n:
                    text[-1, -1] = 0
            else:
                text[width - 1::width, w] = ord("\n")
            fh.write(_text(text))
    return n, block.size, write


def _grid_rows(xs, rows):
    """The table of (x, y, re, im) rows of a complex matrix on the grid
    xs x xs; its row i is every y at x = xs[i].  rows(lo, hi) gives the
    matrix's rows lo..hi-1; a writer asks for its rows about `_ROW_NUMBERS`
    numbers at a time, so it holds only those, never the whole matrix.

    Each coordinate is formatted once, by one `_fields` call; re and im are
    formatted a block of grid rows (about `_BLOCK_NUMBERS` numbers) at a time.
    """
    coords = _fields(np.asarray(xs, dtype=float))
    n, w = coords.shape
    step = max(1, _BLOCK_NUMBERS // (2 * n))
    chunk = step * max(1, _ROW_NUMBERS // (2 * n * step))

    def write(fh, lo, hi):
        for c in range(lo, hi, chunk):
            values = rows(c, min(c + chunk, hi))
            for b in range(0, len(values), step):
                block = values[b:b + step]
                m = len(block)
                fields = _fields(block.view(float).ravel())
                v = fields.shape[1]
                fields = fields.reshape(m, n, 2, v)
                text = np.empty((m, n, 2 * w + 2 * v + 4), np.uint8)
                text[:, :, :w] = coords[c + b:c + b + m, None]
                text[:, :, w + 1:2 * w + 1] = coords
                text[:, :, 2 * w + 2:2 * w + 2 + v] = fields[:, :, 0]
                text[:, :, 2 * w + 3 + v:-1] = fields[:, :, 1]
                text[:, :, [w, 2 * w + 1, 2 * w + 2 + v]] = ord(",")
                text[:, :, -1] = ord("\n")
                fh.write(_text(text))
    return n, 2 * n * n, write


def _report(results):
    """Print one line per check; exit status 1 if any check failed."""
    print(render(results))
    return 0 if all(res.passed for res in results) else 1


_GRID = "x,y,re,im\n"


# ---------------------------------------------------------------------------
# verbs

def _run_theta(args):
    vs = np.arange(args.grid) / args.grid + 1j * args.v_im
    with np.errstate(invalid="ignore"):     # mantissa x inf past double range
        vals = theta(args.index, vs, 1j * args.tau_im)
    if not np.all(np.isfinite(vals)):
        raise AccuracyError("theta leaves double range on this grid")
    _write_csv(args.out, _GRID, _rows(vs.real, vs.imag, vals.real, vals.imag))
    return 0


def _grid(args):
    """The --grid midpoints of the family's [0, L]."""
    return (np.arange(args.grid) + 0.5) * (args.family.length / args.grid)


def _run_kernel(args):
    xs = _grid(args)
    _write_csv(args.out, _GRID, _grid_rows(xs, _kernel_rows(args.ks, xs, xs)))
    return 0


def _run_density(args):
    if args.points is not None:
        with _open(args.out) as fh:
            fh.write(b"density=%.17g\n" % density(args.ks, args.points))
        return 0
    xs = _grid(args)
    _write_csv(args.out, _GRID, _rows(xs, xs, intensity(args.ks, xs), 0.0))
    return 0


def _run_limits(args):
    return _report(limits_suite(args.family, args.infinite))


def _run_verify(args):
    return _report(run_suites(args.suite, args.ks))


def _run_sample(args):
    """Draw --steps states; write <prefix>_states.json and <prefix>_hist.csv.

    The states file is the text of json.dumps (sorted keys, no spaces) of the
    run's metadata with the states array filled in by `_write_csv`: one
    "[x1,...,xN]" row of "%.17g" numbers per state, which loads back to the
    sampled doubles bit for bit.
    """
    res = exact_sample(args.ks, args.steps, seed=args.seed)
    hist = empirical_density(res, bins=args.bins)

    prefix = args.out or "sample"
    meta = json.dumps({
        "type": args.type, "N": args.N, "r": args.r,
        "t": args.t, "t_star": args.t_star, "seed": args.seed,
        "steps": args.steps, "tabulation_error": res.tabulation_error, "nodes": res.nodes,
        "states": [],
    }, sort_keys=True, separators=(",", ":"))
    head, tail = meta.split("[]")       # the states' rows go between the brackets
    _write_csv(prefix + "_states.json", head + "[", _rows(res.positions, json_array=True),
               "]" + tail + "\n")
    _write_csv(prefix + "_hist.csv", "bin_left,bin_right,count,density,stderr\n",
               _rows(hist.bin_left, hist.bin_right, hist.count, hist.density, hist.stderr))
    print(f"states={len(res.positions)} tabulation_error={res.tabulation_error:.1e} "
          f"files={prefix}_states.json,{prefix}_hist.csv")
    return 0


def _run_selberg(args):
    res = selberg_check(args.ks)
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

# every flag, by destination; the flag is "--" + dest with "-" for "_", and
# a flag with no default is None when not given
_FLAGS = {
    "out": dict(help="output file (default stdout / 'sample')"),
    "seed": dict(type=int, default=0),
    "type": dict(choices=FAMILIES, default="A"),
    "N": dict(type=int, default=4),
    "r": dict(type=float, default=1.0),
    "t": dict(type=float),      # None: t_star / 2, filled in by `_check`
    "t_star": dict(type=float, default=1.0),
    "index": dict(type=int, choices=(0, 1, 2, 3), default=2),
    "tau_im": dict(type=float, default=1.0),
    "v_im": dict(type=float, default=0.0),
    "grid": dict(type=int, default=64),
    "points": dict(help="comma-separated configuration"),
    "rho": dict(type=float, default=1.0),
    "horizon": dict(type=float, default=50.0, help="sine-limit horizon t*rho^2 (default 50)"),
    "suite": dict(choices=sorted(SUITES) + ["all"], default="all"),
    "steps": dict(type=int, default=20000, help="number of states written"),
    "bins": dict(type=int, default=40),
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


def _check(args):
    """Check a parsed run in place and build what its verb runs on, once: the
    `family` (FamilySpec), `ks` (KernelSpec, at t = t_star / 2 unless --t is
    given), for --rho the specs `limits_suite` runs on (`infinite`, from
    `verification.limit_specs`), and --points as an array.  Each rule is
    keyed on a flag the verb reads; a refusal is a ValueError that names the
    flag at fault.
    """
    flags = _VERB_FLAGS[args.command][1]
    del args.config
    if "type" in flags:
        args.family = derive((args.type, args.N, args.r))
    if "t" in flags:
        args.t = 0.5 * args.t_star if args.t is None else args.t
        args.ks = KernelSpec(args.family, args.t, args.t_star)
    if "rho" in flags:
        try:
            args.infinite = limit_specs(args.family, args.rho, args.horizon)
        except ValueError as exc:
            raise ValueError(f"--rho {args.rho!r} and --horizon {args.horizon!r}: "
                             f"{exc}") from None
    if "grid" in flags and args.grid < 1:
        raise ValueError(f"grid must be >= 1, got {args.grid}")
    if "steps" in flags and (args.steps < 1 or args.bins < 1):
        raise ValueError(f"need steps >= 1 and bins >= 1, got {args.steps}, {args.bins}")
    if "points" in flags and args.points is not None:
        # N finite points in the alcove, [0, L) on the circle and [0, L] on
        # the interval; coincident points are allowed (their density is 0)
        try:
            pts = [float(s) for s in args.points.split(",")]
        except ValueError:
            raise ValueError(f"--points must be comma-separated numbers, "
                             f"got {args.points!r}") from None
        d = args.family
        if len(pts) != d.N:
            raise ValueError(f"--points needs {d.N} values, got {len(pts)}")
        L, closed = d.length, d.walls != "circ"
        if not all(0.0 <= p and (p <= L if closed else p < L) for p in pts):
            raise ValueError(f"--points must be finite and in [0, {L!r}"
                             f"{']' if closed else ')'}, got {pts}")
        args.points = np.array(pts)
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config flags go first: argparse checks them, explicit flags win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return _VERBS[args.command](_check(args))
    except SystemExit as exc:     # argparse rejected a config key or value
        return exc.code
    except (ValueError, OSError) as exc:     # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Densities, correlation kernels, limit kernels, and sampling.

The N-point density is a product of two determinants of one-particle
functions over the norms, evaluated through the denominator formula as a
product of theta functions at the two times (`macdonald`); the correlation
kernel is the biorthogonal (Christoffel-Darboux-like) sum

    K_t(x, y) = sum_n M_n(x, t) conj(M_n(y, t*-t)) / m_n(t*),

and every n-point correlation is an n x n determinant of it.  Densities are
assembled in (mantissa, log_scale) parts so small-time norms (which underflow
doubles badly) stay exact.  The kernel and the sampler's tables come from
balanced factors f_n(x, s) = M_n(x, s) / m_n^{s/t*} instead (log m_n split
between the times in proportion to time: plain doubles), and every kernel
value (at points that broadcast, a grid row, K(x, x)) is one mode sum of them.

Three limit regimes are implemented for cross-checks: the temporally
homogeneous sine-ratio kernels on the finite domain, the lambda-integral
kernels of the infinite-volume limit (fixed point density rho), and the
translation-invariant sine kernels.  The definitional oracles the kernel
route is tested against (correlation functions by quadrature of the density,
the Fredholm expansion of the Laplace functional) live in the test-suite.

Sampling is exact: the chain rule for projection DPPs draws i.i.d. states,
one coordinate at a time from the Schur-complement conditional intensity,
tabulated on a fixed node set, located by descending a tree of cell
matrices and inverted in closed form; no burn-in and no autocorrelation.
Output order is (seed-block, draw), and the per-bin histogram stderr comes
from the spread over the seed-blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import forks
from .biortho import m_fn_parts
from .macdonald import KernelSpec, _density
from .theta_core import AccuracyError, _check_tau, parts_sum, parts_value, theta_parts

__all__ = [
    "Histogram",
    "InfiniteKernelSpec",
    "KernelSpec",
    "SampleResult",
    "bin_intensity",
    "corr_det",
    "density",
    "empirical_density",
    "exact_sample",
    "infinite_kernel",
    "intensity",
    "kernel",
    "kernel_matrix",
    "sine_kernel",
    "trig_kernel",
]


@dataclass(frozen=True)
class InfiniteKernelSpec:
    """Infinite-volume kernel data: reduced family label, density, times.

    `taus` holds the kernel's three theta taus 2 pi i (s rho^2) at s = t,
    t* - t and t*, the product s rho^2 formed first (as (s rho) rho), so a
    large time at a small density gives the moderate tau it scales to rather
    than overflowing in 2 pi i s.  A rho whose taus the theta engine would
    refuse is refused here, as "too small" or "too large".  `infinite_kernel`
    takes every spec at t = t*/2 and refuses one at t != t*/2 past
    t* rho^2 = 1.5e6, where its round-off bound passes 1e-9 rho.
    """

    family: str
    rho: float
    t: float
    t_star: float
    taus: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D"):
            raise ValueError(f"family must be one of A,B,C,D, got {self.family!r}")
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        KernelSpec.check_times(self.t, self.t_star)
        taus = []
        for s in (self.t, self.t_star - self.t, self.t_star):
            tau = 2j * math.pi * (s * self.rho * self.rho)
            side = "small" if abs(tau) < 1.0 else "large"
            taus.append(_check_tau(tau, f"rho = {self.rho} too {side} for time {s}: tau"))
        object.__setattr__(self, "taus", tuple(taus))


# ---------------------------------------------------------------------------
# density

def density_batch(ks, X):
    """p(x) for a batch of coordinate rows X (B, N) in any coordinate order.

    The Macdonald product of `macdonald._density`, which is permutation
    invariant; each row is sorted first all the same, so the rounding depends
    only on the point set.  Rows with repeated coordinates, or with a point on
    an absorbing wall, give exactly 0.  ValueError names the first row that
    is not N points of the alcove (`FamilySpec.configurations`), and
    AccuracyError the times whose round-off `_density` cannot support.
    """
    X = ks.family.configurations(X, "density")
    return _density(ks, np.sort(X, axis=1))


def density(ks, xs):
    """N-point density p(x) = det conj(M(t*-t)) det M(t) / prod m_n(t*), from
    the denominator formula at the two times (`density_batch`)."""
    return float(density_batch(ks, np.asarray(xs, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# correlation kernel

# the largest eps max_n |log m_n| `_factors` takes (see there)
_FACTOR_MARGIN = 1e-8


def _factors(ks, xs, ys):
    """Factors a = f(xs, t), b = f(ys, t*-t) of K = sum_n a_n conj b_n, (N,) + points' shape.

    f_n(x, s) = M_n(x, s) / m_n^{s/t*}, log m_n from `ks.norms_log`.  For real
    x, |theta(sigma tau + z|tau)| <= e^{pi Im tau sigma^2} S(Im tau) and m_n =
    2 pi r mult e^{pi Im tau* sigma^2} S(Im tau*), with Im tau proportional to
    time: the exponentials cancel, and f_n (below ~1e2 for t = 1e-4 .. t* =
    1e3) depends on its own point and time only.  When ys is xs at t = t*/2, b
    is a (K is Hermitian).

    The two exponents of f_n, ~|log m_n| ~ J^2 t* / (2 r^2) in size, cancel to
    O(1), so f_n carries a relative error of about eps max_n |log m_n| (K is off
    by 0.1 to 8 times that against the trigonometric limit, 7 families, N = 2..6,
    t* = 1e5 .. 1e8).  AccuracyError, naming the horizon, where that passes
    `_FACTOR_MARGIN` = 1e-8, which keeps K within 2.4e-8 of its height, 40 times
    below the 1e-6 the library checks K at (t* / r^2 up to ~1e7 for C3, ~5e7 for
    A2); and AccuracyError if a factor leaves double range.
    """
    d, log_m = ks.family, ks.norms_log
    lost = np.finfo(float).eps * float(np.max(np.abs(log_m)))
    if not lost <= _FACTOR_MARGIN:
        raise AccuracyError(f"kernel factors at horizon t* = {ks.t_star!r}, radius r = {d.r!r}: "
                            f"eps max|log m_n| = {lost:.3g} is past the margin {_FACTOR_MARGIN:g}")

    def f(x, s):
        mant, scale = m_fn_parts(d, x, s)
        with np.errstate(invalid="ignore"):     # a zero mantissa times e^inf
            val = parts_value(mant, scale - (s / ks.t_star) * log_m.reshape(
                (-1,) + (1,) * (mant.ndim - 1)))
        if not np.all(np.isfinite(val)):
            raise AccuracyError(f"kernel factor at time {s!r} leaves double range")
        return val

    a = f(xs, ks.t)
    b = a if ys is xs and ks.t_star - ks.t == ks.t else f(ys, ks.t_star - ks.t)
    return a, b


# entries of the result per block of the mode sum: 32 rows of a 512 grid keep
# the block's contiguous re and im sums, its product buffer and the factor rows
# in cache
_SUM_ENTRIES = 2**14


def _kernel_sum(a, b):
    """sum_n a_n conj b_n for factors a, b (`_factors`) whose points broadcast
    (pairs; a grid a[:, :, None], b[:, None]; stacks), one real ufunc call per
    real product: numpy's complex multiply rounds by operand layout, this by an
    entry's points only.  It runs over blocks of about `_SUM_ENTRIES` entries
    along the first axis (a factor of length 1 or without it goes whole into
    each), whose re and im parts add up in contiguous buffers from 0 and go into
    the result once per block; an entry's operations and their order depend on
    no block or shape."""
    out = np.empty(np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=complex)
    step = max(1, _SUM_ENTRIES // max(1, math.prod(out.shape[1:])))
    acc = np.empty((3, min(step, len(out))) + out.shape[1:])
    for start in range(0, len(out), step):
        rows = slice(start, start + step)
        re, im, tmp = acc[:, :len(out) - start]
        re[...] = im[...] = 0.0
        fa, fb = (v if v.ndim <= out.ndim or v.shape[1] == 1 else v[:, rows] for v in (a, b))
        for ar, ai, br, bi in zip(fa.real, fa.imag, fb.real, fb.imag):
            re += np.multiply(ar, br, out=tmp)
            re += np.multiply(ai, bi, out=tmp)
            im += np.multiply(ai, br, out=tmp)
            im -= np.multiply(ar, bi, out=tmp)
        out.real[rows] = re
        out.imag[rows] = im
    return out


def _kernel_rows(ks, xs, ys):
    """rows(lo, hi): rows lo..hi-1 of K_t on the grid xs x ys, the same
    doubles as those rows of the whole matrix.  The points are checked and
    the factors formed here, once, so every refusal (a point outside the
    alcove, `_factors`' margin or range) is raised before the first row; a
    call sums only its own rows' modes."""
    xs, ys = (ks.family.positions(v, "kernel_matrix") for v in (xs, ys))
    a, b = _factors(ks, xs, ys)
    return lambda lo, hi: _kernel_sum(a[:, lo:hi, None], b[:, None])


def kernel_matrix(ks, xs, ys):
    """K_t(x, y) on the grid xs x ys: all rows of `_kernel_rows`."""
    return _kernel_rows(ks, xs, ys)(0, len(xs))


def kernel(ks, x, y):
    """K_t(x, y) at x, y that broadcast (pairs, a grid xs[:, None], ys[None, :],
    stacks), each entry that of `kernel_matrix` bit for bit; scalars give a complex."""
    x, y = (ks.family.positions(v, "kernel") for v in (x, y))
    out = _kernel_sum(*_factors(ks, x, y))
    return complex(out[0]) if x.ndim == y.ndim == 0 else out


def intensity(ks, xs):
    """One-point intensity K(x, x), diag(kernel_matrix).real bit for bit; a float for a scalar."""
    xs = ks.family.positions(xs, "intensity")
    out = _kernel_sum(*_factors(ks, xs, xs)).real
    return float(out[0]) if xs.ndim == 0 else out


def corr_det(ks, points):
    """n-point correlation via the n x n kernel determinant (n <= N); a scalar
    is a one-point set, and no points give 1.0, the empty determinant.

    The points are sorted first, as in `density_batch`: the determinant is
    permutation invariant, and a fixed order makes its rounding so too.  The
    one determinant taken outside `macdonald.logdet`: near coincident points
    it is a true small number, which that gate's condition limit would refuse.
    numpy's det goes through the log and back, so one point takes its entry,
    the `intensity` there bit for bit.
    """
    pts = np.sort(ks.family.positions(points, "corr_det"), axis=None)
    if pts.size > ks.family.N:
        raise ValueError(f"need n <= N = {ks.family.N}, got n = {pts.size}")
    if pts.size == 0:
        return 1.0
    km = kernel_matrix(ks, pts, pts)
    val = complex(km[0, 0] if pts.size == 1 else np.linalg.det(km))
    scale = max(float(np.max(np.abs(np.diag(km)))) ** pts.size, 1e-290)
    if abs(val.imag) > 1e-10 * max(abs(val), scale):
        raise AccuracyError(f"correlation determinant residue {val.imag:.3e}")
    return val.real


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    u, w = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _gl_nodes(n, a, b):
    u, w = _leggauss(n)
    return 0.5 * (b - a) * u + 0.5 * (a + b), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# temporally homogeneous (sine-ratio) kernels

# the bridge's walls -> (multiplier c = 2N + b in sin(c u / 2r), sign of the image term)
_TRIG_TABLE = {"ar": (0, -1.0), "aa": (1, -1.0), "rr": (-1, +1.0)}


def _sin_ratio(c, v):
    """sin(c v)/sin(v) with removable singularities at v = k pi.

    Reduction v -> v - k pi picks up (-1)^{k(c+1)}.  The ratio at the reduced
    v0 is accurate wherever v0 is not tiny; below |v0| = 1e-150, where
    c (1 - (c^2 - 1) v0^2 / 6) rounds to c, it is its limit c, so a
    subnormal v0 never divides.
    """
    v = np.asarray(v, dtype=float)
    k = np.round(v / np.pi)
    v0 = v - k * np.pi
    sign = np.where((k.astype(np.int64) * (c + 1)) % 2 == 0, 1.0, -1.0)
    tiny = np.abs(v0) < 1e-150
    vs = np.where(tiny, 1.0, v0)
    return sign * np.where(tiny, float(c), np.sin(c * vs) / np.sin(vs))


def trig_kernel(d, x, y):
    """Large-horizon limit of the middle-time kernel: sine-ratio closed forms.

    Circle family: a single Dirichlet ratio of the difference; interval
    families: difference (or, for the doubled-reflection family, sum) of the
    difference and image ratios.  Real valued.
    """
    r = d.r
    x, y = (d.positions(v, "trig_kernel") for v in (x, y))
    pref = 1.0 / (2.0 * np.pi * r)
    if d.walls == "circ":
        out = pref * _sin_ratio(d.N, (x - y) / (2.0 * r))
    else:
        b, sgn = _TRIG_TABLE[d.walls]
        c = 2 * d.N + b
        out = pref * (_sin_ratio(c, (x - y) / (2.0 * r))
                      + sgn * _sin_ratio(c, (x + y) / (2.0 * r)))
    return float(out) if out.ndim == 0 else out


def sine_kernel(family, x, y, rho):
    """Translation-invariant bulk kernels: sin(pi rho u)/(pi u) combinations."""
    if family not in ("A", "C", "D"):
        raise ValueError(f"sine kernel family must be A, C, or D, got {family!r}")
    if not 0.0 < rho < math.inf:
        raise ValueError(f"sine_kernel needs rho in (0, inf), got {rho}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("sine_kernel needs finite x and y")
    diff = rho * np.sinc(rho * (x - y))
    if family == "A":
        out = diff
    else:
        image = rho * np.sinc(rho * (x + y))
        out = diff - image if family == "C" else diff + image
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# infinite-volume lambda-integral kernels

def _inf_integrand(iks, x, y, lam):
    """Integrand of the lambda integral at nodes lam, in parts form."""
    rho = iks.rho
    t, s, ts = iks.t * rho, (iks.t_star - iks.t) * rho, iks.t_star * rho   # times x rho
    s_idx = 1 if iks.family == "B" else 2
    tau_t, tau_s, tau_d = iks.taus
    if iks.family == "A":
        m1, s1 = theta_parts(2, rho * x + 2j * np.pi * t * lam, tau_t)
        m2, s2 = theta_parts(2, rho * y - 2j * np.pi * s * lam, tau_s)
        md, sd = theta_parts(2, 2j * np.pi * ts * lam, tau_d)
        mant = np.exp(2j * np.pi * (x - y) * lam) * m1 * m2 / md
        return mant, s1 + s2 - sd
    m1, s1 = theta_parts(s_idx, rho * x + 1j * np.pi * t * lam, tau_t)
    md, sd = theta_parts(2, 1j * np.pi * ts * lam, tau_d)
    lag = 1j * np.pi * s * lam
    (m2, m3), (s2, s3) = theta_parts(s_idx, np.stack((rho * y - lag, -rho * y - lag)), tau_s)
    sgn = 1.0 if iks.family == "D" else -1.0
    mant_d = np.exp(1j * np.pi * (x - y) * lam) * m1 * m2 / md
    mant_i = np.exp(1j * np.pi * (x + y) * lam) * m1 * m3 / md
    # the two integrals share the node set; combine before quadrature
    mant, top = parts_sum(mant_d, s1 + s2 - sd, sgn * mant_i, s1 + s3 - sd)
    return 0.5 * mant, top


_INF_PANEL_NODES = 24     # Gauss-Legendre nodes per lambda panel of `infinite_kernel`
_INF_LOST = 1e-9          # the most round-off, over rho, `infinite_kernel` takes


def _inf_panels(iks):
    """Edges of the lambda panels, growing 4-fold out from each point where the
    integrand switches dominant theta term (lambda = 0, and rho for A: A's are
    mirrored about rho/2, B-D's about 0), the first half the narrowest switch
    layer's width 1/(4 pi^2 rho t*)."""
    half = 0.5 * iks.rho if iks.family == "A" else iks.rho
    edges, h = [0.0], 1.0 / (8.0 * math.pi**2 * iks.rho * iks.t_star)
    while h < half:
        edges.append(h)
        h *= 4.0
    edges = np.array(edges + [half])
    if iks.family == "A":
        return np.concatenate((edges, iks.rho - edges[-2::-1]))
    return np.concatenate((-edges[:0:-1], edges))


def _inf_quad(iks, x, y, nodes):
    """Gauss-Legendre sums, `nodes` nodes on each panel of `_inf_panels`, at the
    point pairs (x, y), 1-d arrays, from one `_inf_integrand` call; each panel
    is summed at its own largest scale per pair and the panels combined in
    parts.  A pair's sum is the same bit for bit whatever pairs share the call."""
    edges = _inf_panels(iks)
    lam, w = _gl_nodes(nodes, edges[:-1, None], edges[1:, None])     # (panels, nodes)
    x, y = np.atleast_1d(x)[:, None], np.atleast_1d(y)[:, None]
    mant, sc = (a.reshape(-1, *lam.shape) for a in _inf_integrand(iks, x, y, lam.ravel()))
    acc, top = 0.0 + 0.0j, -np.inf
    for p, wp in enumerate(w):
        m, s = mant[:, p], sc[:, p]
        peak = s.max(axis=1)
        acc, top = parts_sum(acc, top, np.sum(parts_value(wp * m, s - peak[:, None]), axis=1),
                             peak)
    return parts_value(acc, top)


def infinite_kernel(iks, x, y):
    """Infinite-volume kernel: the lambda integral by one Gauss-Legendre rule
    fixed in advance, `_INF_PANEL_NODES` = 24 nodes on each panel of
    `_inf_panels`: 336 nodes at t* rho^2 = 50, 624 (A) or 672 (B-D) at 3e5, 48
    more per factor 4 of the horizon.  The integrand's switch layers, of width
    ~1/(4 pi^2 rho s) at s = t, t* - t, t*, sit at panel ends, where a
    geometric mesh converges exponentially (Gui and Babuska, Numer. Math. 49,
    1986).

    Error bound: 1e-12 rho, plus 3 eps t* rho^2 rho at t != t*/2.  The rule is
    within 4e-13 rho of its 96-node-a-panel run (A-D, rho = 1e-3 .. 1e3,
    t* rho^2 = 1e-3 .. 1e8).  The three thetas' scales, each up to ~pi^2 t*
    rho^2, cancel to O(1): exactly at t = t*/2, where the times are doublings
    of each other, and otherwise up to round-off, measured at most 2.3 eps t*
    rho^2 rho (t* rho^2 = 1e5 .. 1.5e6, worst at D's wall).  AccuracyError,
    naming the horizon, where 3 eps t* rho^2 passes `_INF_LOST` = 1e-9 at
    t != t*/2 (t* rho^2 past 1.5e6), decided before any evaluation.

    x and y broadcast, finite (a ValueError otherwise); a pair's value is the
    same bit for bit whatever pairs share the call.  Scalars give a complex,
    arrays a complex array.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("infinite_kernel needs finite x and y")
    if iks.family != "A" and (np.any(x < 0.0) or np.any(y < 0.0)):
        raise ValueError("reflected-family kernels live on x, y >= 0")
    horizon = iks.t_star * iks.rho * iks.rho
    lost = 3.0 * np.finfo(float).eps * horizon
    if iks.t_star - iks.t != iks.t and not lost <= _INF_LOST:
        raise AccuracyError(f"infinite kernel at horizon t*rho^2 = {horizon:.6g} and "
                            f"t != t*/2: its round-off 3 eps t*rho^2 = {lost:.3g} is past "
                            f"{_INF_LOST:g}")
    out = _inf_quad(iks, x.ravel(), y.ravel(), _INF_PANEL_NODES)
    return complex(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# exact sampling: the chain rule for projection DPPs

SAMPLER_BLOCKS = 64     # independent seed-blocks; the histogram stderr uses them
SAMPLER_NODES = 513     # first table size on the closed alcove [0, L]
_MAX_NODES = 8193       # last table size the node doubling tries
_PILOT = 64             # states whose bound picks a table `_certificate` cannot prove
SAMPLER_TV_TOL = 1e-3   # limit on the tabulation error's total-variation bound
_MASS_TOL = 1e-6        # allowed relative drift of a conditional's total mass
_CHUNK = 512            # states drawn together; bounds the (chunk, 2 N^2) work arrays
_ROW_MAX_N = 8          # the largest N whose tables keep each node's W_g as a row
_LEAF = 8               # cells per leaf of the tree for larger N; a draw scans them
_PART_ROWS = 512        # the fewest states a forked part of the draws takes


@dataclass
class SampleResult:
    """I.i.d. states ordered by (seed-block, draw), with the tabulation error.

    `positions` is the (n_states, N) array of sorted rows, each a point of
    the family's alcove of length `length`, and `block_ids` the seed-block
    of each row.  `tabulation_error` bounds the total variation between the
    drawn law and the exact one, at a table of `nodes` nodes (`exact_sample`).
    """

    positions: np.ndarray
    block_ids: np.ndarray
    length: float
    tabulation_error: float
    nodes: int


def _chain_rule_chunk(ks, U, xs, A, C, W, tree, curv):
    """Draw one state per row of U (uniforms, one per coordinate); returns
    (points, tabulation bound per row).

    With Q = I - P for the points drawn so far, the conditional intensity is
    f(x) = Re a(x)^T Q c(x) (a, c = conj b from `_factors` of ks, at the
    drawn points too).  A draw reads the mass at the tree's root (`_tables`
    of ks), descends to a leaf by one dot product per level, evaluates f at
    the leaf's nodes and inverts the linear density in the chosen cell as the
    cancellation-free root of its quadratic CDF.  A leaf is one cell when the tables carry the rows W
    (N <= `_ROW_MAX_N`), and f at its two ends is q . W_g, the dot product of
    a descent level; otherwise a leaf is `_LEAF` cells and f at its nodes is
    a^T Q c from the factors.  Every product is per row, whatever rows share
    the chunk.
    """
    R, N = U.shape
    h = xs[1] - xs[0]
    leaves = tree.shape[0]
    width = (len(xs) - 1) // leaves             # cells per leaf
    rows = np.arange(R)
    Q = np.repeat(np.eye(N, dtype=complex)[None], R, axis=0)
    q = Q.view(float).reshape(R, -1)            # Re Q and Im Q interleaved, a view
    Y, tv = np.empty((R, N)), np.zeros(R)
    for k in range(N):
        Z = np.einsum("rk,k->r", q, tree[0])   # the mass over h/2
        off = np.abs(0.5 * h * Z - (N - k))
        if not np.all(off <= _MASS_TOL * (N - k)):   # nan too
            raise AccuracyError(f"conditional {k} has mass off by {np.max(off):.3e} from "
                                f"{N - k}: the kernel tables lost precision (time scale "
                                "outside plain doubles)")
        # trapezoid error of the interpolant, (h/12) sum_g |f''| h^2, over the mass
        tv += np.einsum("rij,ij->r", np.abs(Q), curv) / (6.0 * Z)
        target = U[:, k] * Z
        node = np.ones(R, dtype=np.intp)
        for _ in range(leaves.bit_length() - 1):
            m = np.einsum("rk,rk->r", q, tree[node])   # mass of the left child
            right = target > m
            np.subtract(target, m, out=target, where=right)
            node += node + right
        at = ((node - leaves) * width)[:, None] + np.arange(width + 1)   # the leaf's nodes
        f = (np.einsum("rgi,rgi->rg", np.matmul(A[at], Q), C[at]).real if W is None
             else np.einsum("rk,rgk->rg", q, W[at]))
        np.maximum(f, 0.0, out=f)   # round-off below the zeros at drawn points
        cum = np.cumsum(f[:, :-1] + f[:, 1:], axis=1)
        cell = np.minimum(np.sum(cum < target[:, None], axis=1), width - 1)
        below = np.where(cell > 0, cum[rows, cell - 1], 0.0)
        fa, fb = f[rows, cell], f[rows, cell + 1]
        rho = 0.5 * np.clip(target - below, 0.0, fa + fb)    # cell mass so far / h
        disc = np.sqrt(np.maximum(fa * fa + 2.0 * (fb - fa) * rho, 0.0))
        den = fa + disc
        s = np.divide(2.0 * rho, den, out=np.zeros_like(rho), where=den > 0.0)
        Y[:, k] = xs[at[rows, cell]] + np.clip(s, 0.0, 1.0) * h
        if k == N - 1:
            break
        y = Y[:, k]
        a, b = _factors(ks, y, y)
        a = np.ascontiguousarray(a.T)[:, None, :]                  # a(y)^T, (R, 1, N)
        qc = np.matmul(Q, np.ascontiguousarray(np.conj(b).T)[:, :, None])  # Q c(y), (R, N, 1)
        aq = np.matmul(a, Q)                                       # a(y)^T Q, (R, 1, N)
        fy = np.matmul(a, qc)[:, 0, 0].real
        if not np.all(fy > 0.0):
            raise AccuracyError("conditional intensity at a drawn point is not positive")
        Q -= np.matmul(qc, aq / fy[:, None, None])
    return Y, tv


def _tables(ks, nodes):
    """Equispaced nodes on [0, L], the factors a and c on them as (nodes, N)
    rows (C = conj(A) at t = t*/2), the rows W (or None), the tree of cell
    matrices and curv, from `_factors`: every table size shares ks's norms.

    With W_g = a(x_g) c(x_g)^T, cell g's mass is (h/2) Re sum_ij Q_ij S_ij,
    S = W_g + W_{g+1}.  For N <= `_ROW_MAX_N` the tables keep every W_g as a
    real row, W, and the tree's leaves are single cells; for larger N (a row
    is 2 N^2 doubles) W is None and a leaf sums S over `_LEAF` cells.  Leaves
    are summed pairwise; in heap order the tree keeps the root at 0 and node
    i's left child at i.  W and the tree hold real views of conj W_g and
    conj S, so a dot product with Q's real view reads Re sum_ij Q_ij S_ij.
    curv sums |second differences of W_g|: sum_ij |Q_ij| curv_ij bounds the
    sum of f's |second differences|.
    """
    xs = np.linspace(0.0, ks.family.length, nodes)
    A, B = _factors(ks, xs, xs)
    A, C = np.ascontiguousarray(A.T), np.ascontiguousarray(np.conj(B).T)
    if A.shape[1] <= _ROW_MAX_N:
        W = A[:, :, None] * C[:, None, :]
        W = np.conj(W, out=W).view(float).reshape(nodes, -1)
        level = W[:-1] + W[1:]
    else:
        W, leaves = None, (nodes - 1) // _LEAF
        at = np.arange(leaves)[:, None] * _LEAF + np.arange(_LEAF + 1)
        trapezoid = np.r_[1.0, np.full(_LEAF - 1, 2.0), 1.0]
        level = np.matmul(A[at].transpose(0, 2, 1) * trapezoid, C[at])
        level = np.conj(level).view(float).reshape(leaves, -1)
    tree, n = np.empty_like(level), len(level)
    while n > 1:
        n //= 2
        tree[n:2 * n] = level[0::2]     # the left children of heap nodes n .. 2n-1
        level = level[0::2] + level[1::2]
    tree[0] = level[0]
    curv = np.array([np.abs(np.diff(a[:, None] * C, 2, axis=0)).sum(axis=0) for a in A.T])
    return xs, A, C, W, tree, curv


def _certificate(ks, tables):
    """A bound on every state's tabulation error on `tables` that needs no
    draw, N h lambda_max(curv) / (12 (1 - `_MASS_TOL`)), at t = t*/2; inf
    at any other time.

    At t = t*/2, c = conj a, so each Q of the chain rule is an orthogonal
    projector of trace N - k: |Q_ij| <= sqrt(Q_ii Q_jj).  curv is entrywise
    >= 0 and symmetric up to rounding; with lambda_max the top eigenvalue of
    max(curv, curv^T), sum_ij |Q_ij| curv_ij <= lambda_max (N - k).  The mass
    check keeps (h/2) Z >= (1 - `_MASS_TOL`) (N - k), so each of a state's N
    draws adds at most h lambda_max / (12 (1 - `_MASS_TOL`)) to its bound
    (`_chain_rule_chunk`).
    """
    if ks.t_star - ks.t != ks.t:
        return math.inf
    xs, curv = tables[0], tables[-1]
    lam = np.linalg.eigvalsh(np.maximum(curv, curv.T))[-1]
    return float(ks.family.N * (xs[1] - xs[0]) * lam / (12.0 * (1.0 - _MASS_TOL)))


def _uniforms(entropy, cuts, N, lo, hi):
    """Rows lo..hi-1 of the run's uniforms, N a row.  Seed-block b holds rows
    cuts[b]..cuts[b+1]-1, drawn by the generator of
    SeedSequence(entropy, spawn_key=(b,)), which is the b-th child that
    SeedSequence(entropy).spawn gives; only the blocks the rows touch are
    drawn."""
    first = int(np.searchsorted(cuts, lo, side="right")) - 1
    last = int(np.searchsorted(cuts, hi, side="left"))
    U = np.concatenate([np.empty((0, N))] + [
        np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(b,)))
        .random((cuts[b + 1] - cuts[b], N)) for b in range(first, last)])
    return U[lo - cuts[first]:hi - cuts[first]]


def _draw_rows(ks, U, tables, pos, est):
    """Fill pos and est row by row from the uniforms U, `_CHUNK` rows a time."""
    for s0 in range(0, U.shape[0], _CHUNK):
        pos[s0:s0 + _CHUNK], est[s0:s0 + _CHUNK] = _chain_rule_chunk(
            ks, U[s0:s0 + _CHUNK], *tables)


def _count(name, value):
    """value as an int >= 1 (states, bins); ValueError naming it otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def exact_sample(ks, states, seed=0):
    """I.i.d. states of the fixed-time process by the chain rule (HKPV).

    The law is the rank-N projection DPP with biorthogonal kernel K, so a
    state is N sequential draws, x_{k+1} from the Schur-complement intensity
        [K(x,x) - K(x,X) K(X,X)^{-1} K(X,x)] / (N - k)
    (Hough-Krishnapur-Peres-Virag 2006, Alg. 18), each row then sorted into
    the alcove.  K need not be Hermitian, but every conditional is a ratio of
    correlation functions, hence nonnegative with mass N - k.

    Each conditional f is tabulated on G equispaced nodes of [0, L] (spacing
    h) and drawn by inverse CDF of its piecewise-linear interpolant, the cell
    found by descending a tree of cell matrices summed once per table
    (Gillenwater-Kulesza-Mariet-Vassilvitskii, ICML 2019): O(N^2 log G) per
    draw.  For N <= `_ROW_MAX_N` the tables keep each node's cell matrix as a
    row and the descent ends at a single cell; for larger N, where a row of
    2 N^2 doubles costs more than it saves, it ends at a leaf of `_LEAF`
    cells scanned from the factors (`_tables`).  The drawn point is
    evaluated exactly for the rank-one update.
    Tabulation error: the interpolant is off by (h^2/8) max|f''| at most, so
    a draw's total variation from its exact conditional is at most
    L h^2 max|f''| / (8 (N - k)), and the joint law's at most the expected
    sum over the N draws.  `tabulation_error` bounds that sum, averaged over
    the states, with the cell integrals |f''| h^3 / 12 bounded through the
    cell matrices' second differences (4.6e-4 at A N=4, t=0.5, t*=1).

    The table (`nodes` in the result) starts at `SAMPLER_NODES` nodes and
    doubles until it is proven or piloted.  Proven: at t = t*/2 the kernel is
    Hermitian, every Q of the chain rule is an orthogonal projector, and
    `_certificate` bounds every state's error by
    N h lambda_max(curv) / (12 (1 - `_MASS_TOL`)) before any draw; a table
    where that is at most `SAMPLER_TV_TOL` is taken as it is.  Piloted, where
    the certificate fails (t != t*/2, or a Hermitian table it cannot prove):
    the first `_PILOT` states (which are kept) are drawn on the table, and it
    is taken once they bound it by half of `SAMPLER_TV_TOL`, or at
    `_MAX_NODES`.  AccuracyError if the whole run's bound exceeds
    `SAMPLER_TV_TOL`.

    The table choice, the pilot and the norms (`ks.norms_log`) are serial.
    The states after the pilot (all of them on a proven table) split into
    `forks.parts(states - pilot, _PART_ROWS)` contiguous parts, one per
    available CPU with at least `_PART_ROWS` states each, drawn at the same
    time by `forks.run`: this process draws the first, a forked child each
    later one, and the children's rows and bounds come back in row order.  A
    child's exception reaches the caller with its own type (an AccuracyError
    stays one); a child killed by a signal raises ChildProcessError naming
    its rows.  There is no option for it.

    The uniforms come from `SAMPLER_BLOCKS` seed-blocks spawned from `seed`
    (rows split evenly over the blocks in order), one per coordinate; each
    part, and the pilot, draws the blocks its rows touch (`_uniforms`).  So
    a fixed (ks, states, seed) gives the same states, block ids, bound and
    table bit for bit whatever the chunk size `_CHUNK` or the part count.
    Never returns NaN or out-of-alcove rows:
    AccuracyError instead, also when a conditional's mass is not within
    1e-6 relative of N - k (the tables lost precision).
    """
    d = ks.family
    N, L = d.N, d.length
    S = _count("states", states)

    nb = min(SAMPLER_BLOCKS, S)
    cuts = np.arange(nb + 1) * S // nb
    entropy = np.random.SeedSequence(seed).entropy
    pos = np.empty((S, N))
    est = np.empty(S)

    def draw(lo, hi):
        _draw_rows(ks, _uniforms(entropy, cuts, N, lo, hi), tables, pos[lo:hi], est[lo:hi])

    nodes = SAMPLER_NODES
    while True:
        tables = _tables(ks, nodes)
        if _certificate(ks, tables) <= SAMPLER_TV_TOL:
            P = 0
            break
        P = min(_PILOT, S)
        draw(0, P)
        if est[:P].mean() <= 0.5 * SAMPLER_TV_TOL or nodes >= _MAX_NODES:
            break
        nodes = 2 * nodes - 1

    def send(part, lo, hi):
        draw(lo, hi)
        part.write(np.column_stack([pos[lo:hi], est[lo:hi]]).tobytes())

    def receive(part, lo, hi):
        rows = np.frombuffer(part.read(), dtype=float).reshape(hi - lo, N + 1)
        pos[lo:hi], est[lo:hi] = rows[:, :N], rows[:, N]

    forks.run(S, P, forks.parts(S - P, _PART_ROWS), draw, send, receive, "sampler",
              reraise=True)
    tv = float(np.mean(est))
    if tv > SAMPLER_TV_TOL:
        raise AccuracyError(
            f"tabulation error {tv:.2e} exceeds {SAMPLER_TV_TOL:g} at {nodes} nodes")
    if d.walls == "circ":
        pos[pos >= L] -= L          # the circle's node L is its node 0
    pos.sort(axis=1)
    hi_ok = pos[:, -1] < L if d.walls == "circ" else pos[:, -1] <= L
    if not (np.all(np.isfinite(pos)) and np.all(pos[:, 0] >= 0.0) and np.all(hi_ok)
            and np.all(np.diff(pos, axis=1) > 0.0)):
        raise AccuracyError("a drawn state left the alcove")
    return SampleResult(positions=pos, block_ids=np.repeat(np.arange(nb), np.diff(cuts)),
                        length=L, tabulation_error=tv, nodes=nodes)


# ---------------------------------------------------------------------------
# histograms

@dataclass
class Histogram:
    """One-point histogram normalized to integrate to N, with bin stderr."""

    bin_left: np.ndarray
    bin_right: np.ndarray
    count: np.ndarray
    density: np.ndarray
    stderr: np.ndarray


_BIN_NODES = 24         # Gauss-Legendre nodes per bin of `bin_intensity`


def bin_intensity(ks, edges):
    """Bin averages of the one-point intensity K(x, x) between the edges.

    Gauss-Legendre with `_BIN_NODES` nodes per bin; this is a histogram's
    expected density (the value at a bin's midpoint is off by the intensity's
    curvature).
    """
    edges = ks.family.positions(edges, "bin_intensity")
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0.0):
        raise ValueError(f"bin_intensity needs two or more increasing edges, got {edges.tolist()}")
    lo, hi = edges[:-1, None], edges[1:, None]
    xs, w = _gl_nodes(_BIN_NODES, lo, hi)                # (bins, nodes)
    return np.sum(w * intensity(ks, xs), axis=1) / (hi - lo)[:, 0]


def empirical_density(samples, bins=40):
    """Bin all coordinates of a SampleResult's states on [0, length]; the
    density integrates to N.

    The per-bin standard error comes from the spread across the independent
    seed-blocks; with a single block it falls back to the Poisson estimate
    sqrt(count).
    """
    pos, ids, L = samples.positions, samples.block_ids, samples.length
    nconf, bins = pos.shape[0], _count("bins", bins)
    edges = np.linspace(0.0, L, bins + 1)
    width = edges[1] - edges[0]
    # np.histogram's bins: half-open, the last one closed, nothing outside [0, L]
    cell = np.searchsorted(edges[1:-1], pos, side="right")
    inside = (pos >= edges[0]) & (pos <= edges[-1])
    uniq, blk = np.unique(ids, return_inverse=True)
    per = np.bincount((blk[:, None] * bins + cell)[inside],
                      minlength=uniq.size * bins).reshape(uniq.size, bins)
    count = per.sum(axis=0)
    dens = count / (nconf * width)
    if uniq.size > 1:
        per = per / (np.bincount(blk)[:, None] * width)
        stderr = per.std(axis=0, ddof=1) / np.sqrt(uniq.size)
    else:
        stderr = np.sqrt(count) / (nconf * width)
    return Histogram(bin_left=edges[:-1], bin_right=edges[1:],
                     count=count, density=dens, stderr=stderr)

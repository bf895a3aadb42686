"""Boundary-conditioned heat kernels and the pinned-path determinant identities.

A family fixes its bridge process: `FamilySpec.walls` names the wall
behaviour -- the periodic circle "circ" (signed by `parity`), or interval
walls absorbing/reflecting in the combinations "ar", "aa", "rr" -- and
`length` is the domain length.  The transition kernels take the family and
are evaluated in theta form; a Gaussian winding-image sum is kept alongside
as an oracle.  The family-indexed weight matrices r(t) tie products
r(t) . p(0, v; t, x) back to the biorthogonal function matrices, which
cascades into the Weyl-denominator and bridge-density identities checked
here.  All but the oracle read points through `FamilySpec` (`positions`,
`configurations`); a configuration xs of shape (N,) gives a float, (B, N) B
values, and matrices free of x (r(t), p(0, v; t*, v)) form once per call.

Conventions
-----------
Transition arguments follow (s, x) -> (t, y); all kernels depend on t - s
only.  The circle kernel with even parity is a *signed* kernel (alternating
windings) and must not be treated as a probability density.
"""

import math

import numpy as np

from .macdonald import (_logc_rel_diff, _m_matrix_parts, _per_config, _phase, coeff_a_log,
                        logdet, midpoint_nodes, rhs_logc)
from .theta_core import AccuracyError, eta_log, parts_value, theta

__all__ = [
    "bridge_density",
    "ck_residual",
    "eta_formula_residual",
    "macdonald_kmlgv_residual",
    "matrix_identity_residual",
    "r_matrix",
    "transition",
    "transition_images",
]


# ---------------------------------------------------------------------------
# transition kernels

def transition(d, s, x, t, y):
    """Transition density p(s, x; t, y) of the family's bridge process.

    Theta form; x broadcasts against y, so x[:, None], y[None, :] give the
    matrix in one call.  The theta period is 2 pi r for every family.  One
    theta call: an interval family's difference and image arguments x -+ y
    are stacked into it.
    """
    tau = d.tau(t - s, "transition")
    x, y = (d.positions(v, "transition") for v in (x, y))
    L = 2.0 * math.pi * d.r
    xm = (x - y) / L
    if d.walls == "circ":
        idx = 2 if d.parity == "even" else 3
        val = theta(idx, xm, tau) / L
    else:
        xp = (x + y) / L
        idx = 2 if d.walls == "ar" else 3
        sign = 1.0 if d.walls == "rr" else -1.0
        th = theta(idx, np.stack((xm, xp)), tau)
        val = (th[0] + sign * th[1]) / L
    out = np.real(val)
    return float(out) if np.ndim(out) == 0 else out


def transition_images(d, s, x, t, y, windings):
    """Winding-image Gaussian sum -- direct oracle for `transition`.

    Sums the heat kernel over `windings` images either side, at finite
    points x, y (a ValueError otherwise).  If the first-omitted-image tail
    bound exceeds 1e-14 the truncation is not trustworthy and an
    AccuracyError asks for more windings.
    """
    if not t > s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"transition_images needs finite points, got x={x}, y={y}")
    W = int(windings)
    if W < 1:
        raise ValueError(f"windings must be >= 1, got {windings}")
    dt = t - s
    L = 2.0 * math.pi * d.r

    def gauss(u):
        return np.exp(-u * u / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)

    w = np.arange(-W, W + 1, dtype=float)
    um = x - y + L * w
    alt = (-1.0) ** np.abs(w)
    if d.walls == "circ":
        terms = gauss(um) * (alt if d.parity == "even" else 1.0)
        umax = abs(x - y)
        n_args = 1
    else:
        up = x + y + L * w
        sign = 1.0 if d.walls == "rr" else -1.0
        pair = gauss(um) + sign * gauss(up)
        terms = pair * (alt if d.walls == "ar" else 1.0)
        umax = max(abs(x - y), abs(x + y))
        n_args = 2

    b = L * (W + 1) - umax
    if b <= 0.0:
        raise AccuracyError("winding cutoff inside the argument range; raise windings")
    tail = 2 * n_args * float(gauss(b)) / (1.0 - math.exp(-L * b / dt))
    if tail > 1e-14:
        raise AccuracyError(
            f"winding tail bound {tail:.3e} exceeds 1e-14; raise windings")
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov residuals

def ck_residual(d, s, t, u, x, z):
    """|integral p(s,x;t,y) p(t,y;u,z) dy  -  p(s,x;u,z)| on the family's
    domain [0, L].

    The integrand is periodic on the circle, and even across each wall of an
    interval (a product of two kernels that are both even or both odd there),
    so the midpoint rule converges spectrally.  Its nodes follow the width
    sqrt((t-s)(u-t)/(u-s)) of the integrand in y (`midpoint_nodes`);
    AccuracyError past 8192 nodes.
    """
    if not -math.inf < s < t < u < math.inf:
        raise ValueError(f"need s < t < u finite, got {s}, {t}, {u}")
    x, z = (d.positions(v, "ck_residual") for v in (x, z))
    L = d.length
    n = midpoint_nodes(d, t - s, u - s, 1, 8192)
    y = (np.arange(n) + 0.5) * (L / n)
    lhs = float(np.sum(transition(d, s, x, t, y) * transition(d, t, y, u, z))) * (L / n)
    return abs(lhs - transition(d, s, x, u, z))


# ---------------------------------------------------------------------------
# the weight matrices r(t)

# an entry of r(t) from its prefactor p, growth factor E and angle a, by sharp shape
_ENTRY = {
    "A": lambda p, E, a: p * E * np.exp(-1j * a),
    "B": lambda p, E, a: (p * E * np.sin(a)).astype(complex),
    "C": lambda p, E, a: (p / 1j) * E * np.sin(a),
    "D": lambda p, E, a: (p * E * np.cos(a)).astype(complex),
}


def r_matrix(d, t):
    """Family-indexed N x N weight matrix r(t), tying pinned-kernel rows to
    biorthogonal rows; columns follow the pinned configuration.

    Columns whose pinned walker sits on a wall (v = 0 or pi r) carry half
    the generic prefactor.  AccuracyError when an entry leaves double range
    (the growth factor e^{J^2 t / 2 r^2} at small r).
    """
    d.tau(t, "r_matrix")
    r, size, entry = d.r, d.size, _ENTRY[d.sharp]
    J = np.asarray(d.offsets)
    v = np.asarray(d.pinned)
    pref2 = 2.0 * math.pi * r / size
    arg = (size - 2.0 * J)[:, None] * v[None, :] / (2.0 * r)
    edge = (size - 2.0 * J) * math.pi / 2.0        # arg at v = pi r
    # v = pi r u / size; on an interval u = 0 or size puts the walker on a wall
    u = np.rint(v * size / (math.pi * r))
    walled = [] if d.walls == "circ" else np.flatnonzero((u == 0.0) | (u == size))
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        # e^{-pi i J^2 tau(t)} with tau(t) = i t / 2 pi r^2: real growth factor
        E = np.exp(J * J * t / (2.0 * r * r))
        ent = entry(pref2 if d.walls == "circ" else 2.0 * pref2, E[:, None], arg)
        for k in walled:
            ent[:, k] = entry(pref2, E, edge if u[k] == size else 0.0)
    if not np.all(np.isfinite(ent)):
        raise AccuracyError(f"weight matrix r(t) at t={t} leaves double range (radius {r})")
    return ent


# ---------------------------------------------------------------------------
# cross-module identities

def _pinned_matrix(d, t, X):
    """P[b, j, k] = p(0, v_j; t, x_bk) for the family's bridge process."""
    v = np.asarray(d.pinned)
    return transition(d, 0.0, v[:, None], t, X[..., None, :])


def matrix_identity_residual(d, t, xs):
    """max |r(t) . p(0, v; t, x) - M(x, t)| / max |M|, entrywise;
    AccuracyError when r(t) or M leaves double range."""
    X = d.configurations(xs, "matrix_identity_residual")
    P = _pinned_matrix(d, t, X)
    rm = r_matrix(d, t)
    M = parts_value(*_m_matrix_parts(d, X, t))
    top = np.max(np.abs(M), axis=(-2, -1))
    if not np.all((0.0 < top) & (top < np.inf)):    # M underflowed to 0 (or overflowed)
        raise AccuracyError(f"M(x, t) at t={t} leaves double range (radius {d.r})")
    return _per_config(xs, np.max(np.abs(rm @ P - M), axis=(-2, -1)) / top)


def bridge_density(ks, xs):
    """Pinned-bridge density det P_in . det P_out / det P_pin of the KernelSpec
    ks, by log-dets: `dpp_kernels.density_batch(ks, X)` by another route.

    At large horizons the heat-kernel matrices approach rank one and the
    determinants cancel to nothing.  Each of the three log-determinants is
    therefore taken by `macdonald.logdet`, which row-equilibrates the matrix
    and raises IllConditionedError past its condition limit (1e7 leaves the
    three LU round-offs well inside a 1e-8 relative agreement with `density`)
    instead of returning a silently wrong, possibly negative, density.  The
    structural zeros (coincident points, a point on an absorbing wall) make
    P_in and P_out exactly singular; those configurations get 0 before the
    check.
    """
    d = ks.family
    X = d.configurations(xs, "bridge_density")
    absorbing = {"ar": (0.0,), "aa": (0.0, d.length)}.get(d.walls, ())
    live = ~(np.any(np.diff(np.sort(X, axis=1), axis=1) == 0.0, axis=1)
             | np.any(np.isin(X, absorbing), axis=1))
    out, X, v = np.zeros(len(X)), X[live], np.asarray(d.pinned)
    if live.any():
        mats = {
            "P_in": _pinned_matrix(d, ks.t, X),
            "P_out": transition(d, ks.t, X[:, :, None], ks.t_star, v[None, None, :]),
            "D0": transition(d, 0.0, v[:, None], ks.t_star, v[None, :]),
        }
        (l1, s1), (l2, s2), (l0, s0) = (logdet(f"bridge matrix {name}", m)
                                        for name, m in mats.items())
        out[live] = parts_value(s1 * s2 * s0, l1 + l2 - l0)
    return _per_config(xs, out)


def macdonald_kmlgv_residual(d, t, xs):
    """Weyl denominator against the pinned-path determinant route.

    Left side: `rhs_logc`, the closed-form side a(t) . phase . W (times the
    parity-indexed coordinate-sum theta for the circle family) of the
    determinant identity.  Right side: the same phase times the phase of
    b(t) . det r(t) . det P.  Returns the relative residual at the common log
    scale.  IllConditionedError when `macdonald.logdet` refuses r(t) or a
    pinned matrix P, AccuracyError when r(t) leaves double range.
    """
    X = d.configurations(xs, "macdonald_kmlgv_residual")
    ll, pl = rhs_logc(d, X, t)
    lr, sr = logdet("r-matrix", r_matrix(d, t))
    lp, sp = logdet("bridge matrix P", _pinned_matrix(d, t, X))
    rp = _phase(d, "det") * _phase(d, "b") * sr * sp
    return _per_config(xs, _logc_rel_diff(ll, pl, lr + lp, rp))


def eta_formula_residual(d, t):
    """Circle-family closed form: the Weyl/KMLGV ratio b(t) equals
    (2 pi r)^N N^{-N/2} eta(N tau(t))^{(N-1)(N-2)/2}. Relative residual;
    AccuracyError when r(t) leaves double range, IllConditionedError when
    `macdonald.logdet` refuses it."""
    if d.walls != "circ":
        raise ValueError("eta closed form applies to the circle family only")
    tau = d.tau(t, "eta_formula_residual", 1)
    N, r = d.N, d.r
    # eta is positive on the imaginary axis: the left side's phase is 1
    lb = (N * math.log(2.0 * math.pi * r) - 0.5 * N * math.log(N)
          + 0.5 * (N - 1) * (N - 2) * eta_log(tau.imag))     # size = N
    lr, sr = logdet("r-matrix", r_matrix(d, t))
    la = coeff_a_log(d, t)
    lc = lr - la
    pc = _phase(d, "b") * sr
    return float(_logc_rel_diff(lb, 1.0, lc, pc))

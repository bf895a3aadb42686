"""Brute-force oracles the library's identities are tested against.

They live beside the tests rather than in the package: each one reaches its
number by a definitional route (integrating a density, expanding a Fredholm
series, integrating a product of determinants, integrating the one-particle
functions against each other) and shares no quadrature with the production
path it checks.  Each docstring names the package functions the oracle
imports, what it checks, and why that share leaves the function under test
unshared.
"""

import functools
import math

import numpy as np

from elliptic_dpp.biortho import m_fn_parts, norm_const_log
from elliptic_dpp.bridges import transition
from elliptic_dpp.dpp_kernels import _factors, _inf_integrand, density_batch, kernel_matrix
from elliptic_dpp.theta_core import AccuracyError, parts_sum, parts_value


class UnsupportedScaleError(ValueError):
    """Brute-force oracle requested beyond its feasible size."""


def _gauss_legendre(n, a, b):
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * u + 0.5 * (a + b), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# correlation functions by integration of the density

def corr_oracle(ks, points, grid=64):
    """Correlation function by definition: integrate the density over the
    remaining N - n coordinates (unordered, with the 1/(N-n)! factor).

    Gauss-Legendre tensor quadrature; the det-product density is smooth on
    the closed box, so this converges spectrally.  N <= 3 only.

    Imports `density_batch` to check `corr_det`, the kernel route.  The
    density is the Macdonald product (`macdonald._density`), which reaches
    no one-particle function, no kernel factor and no kernel determinant;
    the two routes share only the spec's norms, and a wrong norm still moves
    them apart (the density divides by all N, an n-point kernel determinant
    by n of them).  The density has its own oracle, `density_mpmath`.
    """
    d = ks.family
    N = d.N
    if N > 3:
        raise UnsupportedScaleError("corr_oracle supports N <= 3")
    pts = np.asarray(points, dtype=float)
    n = pts.size
    if n > N:
        raise ValueError(f"need n <= N = {N}")
    free = N - n
    if free == 0:
        return float(density_batch(ks, pts[None, :])[0])
    xs, w = _gauss_legendre(int(grid), 0.0, d.length)
    grids = np.meshgrid(*([xs] * free), indexing="ij")
    W = functools.reduce(np.multiply.outer, [w] * free)
    Y = np.column_stack([g.ravel() for g in grids])
    X = np.empty((Y.shape[0], N))
    X[:, :n] = pts
    X[:, n:] = Y
    vals = density_batch(ks, X)
    return float(np.sum(vals * W.ravel()) / math.factorial(free))


# ---------------------------------------------------------------------------
# biorthogonality in plain doubles

def _trapezoid_gram(d, t, t_star, n):
    """Entry (j, k): integral of conj(M_j(x, t*-t)) M_k(x, t) over the alcove,
    composite trapezoid rule on n points with both walls as nodes."""
    xs = np.linspace(0.0, d.length, n)
    h = d.length / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    rows_s = parts_value(*m_fn_parts(d, xs, t_star - t))
    rows_t = parts_value(*m_fn_parts(d, xs, t))
    return np.einsum("i,ji,ki->jk", w, rows_s.conj(), rows_t)


def gram_oracle(d, t, t_star):
    """Cross-Gram matrix of the one-particle functions across the horizon and
    the closed-form norms m_j = exp(norm_const_log): the pair (G, m), with
    G = diag(m) for a biorthogonal system.

    The functions are plain doubles (parts_value), so this holds only while
    they and the norms stay in double range (moderate t*).  The integrand
    extends to a smooth periodic function, so the trapezoid rule converges
    spectrally; nodes go n -> 2n - 1 from 128 until a doubling moves G by
    less than 1e-11 times the largest norm.  G is the coarser of those two.

    Imports `m_fn_parts` and `norm_const_log`: biorthogonality is an identity
    between those two, so they are its subject, not a shortcut, and an error
    in either breaks G = diag(m) instead of cancelling.  What it checks
    besides is `verification.biortho_suite`, the production check, whose
    balanced factors (`dpp_kernels._factors`) and midpoint rule it does not
    use: it integrates the plain functions by its own trapezoid rule.
    """
    if not 0.0 < t < t_star:
        raise ValueError(f"need 0 < t < t_star = {t_star}, got t = {t}")
    norms = np.exp(norm_const_log(d, t_star))
    n = 128
    while n <= 8192:
        coarse = _trapezoid_gram(d, t, t_star, n)
        err = float(np.max(np.abs(_trapezoid_gram(d, t, t_star, 2 * n - 1) - coarse)))
        if err <= 1e-11 * norms.max():
            return coarse, norms
        n = 2 * n
    raise AccuracyError(f"gram_oracle did not converge by 8192 nodes "
                        f"(last estimate {err / norms.max():.3e})")


# ---------------------------------------------------------------------------
# Fredholm / characteristic-function consistency

def _psi_bump(u):
    # smooth compactly supported bump on (0.3, 0.7) of the unit interval
    s = (u - 0.3) / 0.4
    out = np.zeros_like(u)
    inner = (s > 0.0) & (s < 1.0)
    z = 2.0 * s[inner] - 1.0
    out[inner] = np.exp(1.0 - 1.0 / (1.0 - z * z))
    return out


def _psi_hann(u):
    # cosine-squared window on the middle half
    out = np.zeros_like(u)
    inner = (u > 0.25) & (u < 0.75)
    out[inner] = np.cos(np.pi * (u[inner] - 0.5) / 0.5) ** 2
    return out


_TEST_FNS = {
    "bump": _psi_bump,
    "hann": _psi_hann,
    "zero": lambda u: np.zeros_like(u),
}


def fredholm_residual(ks, test_fn_id, theta_param, grid=96):
    """Two routes to the Laplace functional E[exp(theta sum psi(X_j))].

    Route one integrates the density against the exponential weight directly;
    route two is the truncated Fredholm expansion in kernel determinants with
    chi = 1 - e^{theta psi}.  Returns |route1 - route2|.  N <= 2.

    Imports `density_batch` and `kernel_matrix` and checks them against each
    other: the DPP statement that the kernel's determinants give the
    density's law.  Neither route calls the other; they share only the
    spec's norms, and the density divides by all N of them where each kernel
    mode divides by its own, so a wrong norm still shows.
    """
    d = ks.family
    N = d.N
    if N > 2:
        raise UnsupportedScaleError("fredholm_residual supports N <= 2")
    if test_fn_id not in _TEST_FNS:
        raise ValueError(f"unknown test function {test_fn_id!r}; have {sorted(_TEST_FNS)}")
    psi_u = _TEST_FNS[test_fn_id]
    L = d.length
    xs, w = _gauss_legendre(int(grid), 0.0, L)
    psi = psi_u(xs / L)
    chi = 1.0 - np.exp(theta_param * psi)

    # route one: Laplace transform of the density
    if N == 1:
        vals = density_batch(ks, xs[:, None])
        direct = float(np.sum(w * np.exp(theta_param * psi) * vals))
    else:
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        X = np.column_stack([X1.ravel(), X2.ravel()])
        vals = density_batch(ks, X).reshape(grid, grid)
        weight = np.exp(theta_param * (psi[:, None] + psi[None, :]))
        direct = float(np.einsum("i,j,ij->", w, w, weight * vals)) / 2.0

    # route two: 1 - int chi K + (1/2) int int chi chi det K_2
    km = kernel_matrix(ks, xs, xs)
    dg = np.diag(km)
    if np.max(np.abs(dg.imag)) > 1e-10 * max(float(np.max(np.abs(dg))), 1e-290):
        raise AccuracyError("kernel diagonal carries imaginary residue")
    diag = dg.real
    expansion = 1.0 - float(np.sum(w * chi * diag))
    if N == 2:
        det2 = diag[:, None] * diag[None, :] - km * km.T
        val2 = np.einsum("i,j,ij->", w * chi, w * chi, det2)
        if abs(val2.imag) > 1e-8 * max(abs(val2), 1.0):
            raise AccuracyError(f"two-point expansion residue {val2.imag:.3e}")
        expansion += 0.5 * float(val2.real)
    return abs(direct - expansion)


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov for two-particle determinants

def ck_det_residual(d, s, t, u, xs, zs, nodes=160):
    """Two-particle determinant version of Chapman-Kolmogorov.

    Integrates det[p(s,x;t,y)] det[p(t,y;u,z)] over unordered pairs y
    (half the square) and compares with det[p(s,x;u,z)].  The trapezoid rule
    is spectrally accurate on the circle and, through the kernels' even/odd
    images at the walls, on the intervals too (endpoint half-weights there).

    Imports `transition` and checks the semigroup property of its
    determinants, an identity of `transition` itself, so the share is the
    subject.  The production check of the same identity,
    `bridges.ck_residual`, is one-particle and uses its own midpoint rule;
    this oracle uses neither.
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if xs.size != 2 or zs.size != 2:
        raise ValueError("determinant Chapman-Kolmogorov check is two-particle only")
    if not s < t < u:
        raise ValueError(f"need s < t < u, got {s}, {t}, {u}")
    L = d.length
    if d.walls == "circ":
        y = np.arange(nodes) * (L / nodes)
        w = np.full(nodes, L / nodes)
    else:
        y = np.linspace(0.0, L, nodes + 1)
        w = np.full(nodes + 1, L / nodes)
        w[0] = w[-1] = 0.5 * L / nodes
    # P[a, i] = p(s, x_a; t, y_i);  Q[i, b] = p(t, y_i; u, z_b)
    P = transition(d, s, xs[:, None], t, y[None, :])
    Q = transition(d, t, y[:, None], u, zs[None, :])
    det1 = P[0][:, None] * P[1][None, :] - P[0][None, :] * P[1][:, None]
    det2 = Q[:, 0][:, None] * Q[:, 1][None, :] - Q[:, 0][None, :] * Q[:, 1][:, None]
    lhs = 0.5 * float(np.einsum("i,j,ij,ij->", w, w, det1, det2))
    rhs = transition(d, s, xs[:, None], u, zs[None, :])
    return abs(lhs - float(np.linalg.det(rhs)))


# ---------------------------------------------------------------------------
# the chain rule by downdating the whole table

def downdate_chain_rule(ks, U, xs, A, C):
    """The chain-rule draw of `exact_sample` on a table of the conditional
    intensity itself, one row of F per state, downdated after every draw.

    A and C are the sampler's tabulated factors as (nodes, N) rows.  F starts
    at Re sum_n a_n c_n and drops by Re K_k(x, y) K_k(y, x) / f(y) after a
    draw y, with K_k(x, y) = a(x)^T Q c(y) and Q the complementary projector
    of the points drawn so far.  A coordinate is the inverse CDF of F's
    piecewise-linear interpolant, scanned over every cell; the tabulation
    estimate sums (h/12) |second differences of F| / mass.  Returns (points,
    estimate per row, [(F, Q) before each draw]).

    Imports `_factors` for the factors at each drawn point, and checks
    `dpp_kernels._chain_rule_chunk`: its tree of cell matrices, its descent
    and its update of Q.  It uses none of them (it scans a table of F
    itself).  The factors are checked on their own against the
    trigonometric limit and the parts stream (`test_dpp_kernels`).
    """
    R, N = U.shape
    h = xs[1] - xs[0]
    A, C = A.T, C.T
    rows = np.arange(R)
    F = np.repeat(np.sum(A * C, axis=0).real[None, :], R, axis=0)
    Q = np.repeat(np.eye(N, dtype=complex)[None], R, axis=0)
    Y, est, steps = np.empty((R, N)), np.zeros(R), []
    for k in range(N):
        np.maximum(F, 0.0, out=F)
        steps.append((F.copy(), Q.copy()))
        cum = np.cumsum(F[:, :-1] + F[:, 1:], axis=1)
        target = U[:, k] * cum[:, -1]
        cell = np.argmax(cum >= target[:, None], axis=1)
        below = np.where(cell > 0, cum[rows, cell - 1], 0.0)
        fa, fb = F[rows, cell], F[rows, cell + 1]
        rho = 0.5 * np.clip(target - below, 0.0, fa + fb)
        disc = np.sqrt(np.maximum(fa * fa + 2.0 * (fb - fa) * rho, 0.0))
        den = fa + disc
        s = np.divide(2.0 * rho, den, out=np.zeros_like(rho), where=den > 0.0)
        Y[:, k] = xs[cell] + np.clip(s, 0.0, 1.0) * h
        est += (h / 12.0) * np.abs(np.diff(F, 2, axis=1)).sum(axis=1) / ((0.5 * h) * cum[:, -1])
        a, b = _factors(ks, Y[:, k], Y[:, k])
        qc = np.einsum("rij,jr->ri", Q, np.conj(b))        # Q c(y)
        aq = np.einsum("ir,rij->rj", a, Q)                  # a(y)^T Q
        fy = np.einsum("ir,ri->r", a, qc).real
        left = qc @ A                                       # K_k(x_g, y)
        right = aq @ C / fy[:, None]                        # K_k(y, x_g) / f(y)
        F -= (left * right).real
        Q -= qc[:, :, None] * aq[:, None, :] / fy[:, None, None]
    return Y, est, steps


# ---------------------------------------------------------------------------
# the two-point correlation over pairs of bins

def pair_bin_masses(ks, edges, nodes=24):
    """The integrals of rho_2(x, y) = K(x, x) K(y, y) - K(x, y) K(y, x) over
    every pair of bins between the edges, as a (bins, bins) array: a midpoint
    rule of `nodes` nodes per bin on `kernel_matrix`.  rho_2 is the density
    of ordered pairs (x_i, x_j), i != j, of the process's states.

    Imports `kernel_matrix` to check the sampler's two-point law, not the
    kernel: `exact_sample` never calls `kernel_matrix`.  Both read the
    kernel's factors (`_factors`), so an error there reaches both sides;
    what is checked is the sampler's tables, descent and draws.
    """
    edges = np.asarray(edges, dtype=float)
    bins = edges.size - 1
    width = np.diff(edges)[:, None] / nodes
    xs = (edges[:-1, None] + (np.arange(nodes) + 0.5) * width).ravel()
    K = kernel_matrix(ks, xs, xs)
    rho2 = (np.outer(np.diag(K), np.diag(K)) - K * K.T).real
    w = np.repeat(width.ravel(), nodes)
    return (w[:, None] * rho2 * w).reshape(bins, nodes, bins, nodes).sum(axis=(1, 3))


# ---------------------------------------------------------------------------
# the joint density by the determinant route in 80 digits and more

_JTHETA = {0: 4, 1: 1, 2: 2, 3: 3}      # theta index -> mpmath.jtheta's


def _density_mp(mp, d, t, t_star, xs):
    """det conj M(t*-t) det M(t) / prod m_n(t*) at mp's working precision."""
    pi, r, size = mp.pi, mp.mpf(d.r), d.size
    sigmas = [mp.mpf(J) / size for J in d.offsets]
    zs = [size * mp.mpf(x) / (2 * pi * r) for x in xs]

    def th(k, v, tau):
        return mp.jtheta(_JTHETA[k], pi * v, mp.exp(1j * pi * tau))

    def block(sigma, z, tau):
        e = mp.exp(2j * pi * sigma * z)
        if d.sharp == "A":
            return e * th(2, sigma * tau + z, tau)
        k, sign = (1, -1) if d.sharp == "B" else (2, 1 if d.sharp == "D" else -1)
        return e * th(k, sigma * tau + z, tau) + sign / e * th(k, sigma * tau - z, tau)

    def det_m(s):
        tau = size * size * 1j * s / (2 * pi * r * r)
        return mp.det(mp.matrix([[block(sg, z, tau) for z in zs] for sg in sigmas]))

    tau_star = 1j * mp.mpf(t_star) / (2 * pi * r * r)
    norms = mp.mpf(1)
    for J in d.offsets:
        doubled = d.walls != "circ" and J in (0, size / 2)
        norms *= 2 * pi * r * (2 if doubled else 1) * th(2, size * J * tau_star,
                                                         size * size * tau_star)
    return mp.re(mp.conj(det_m(mp.mpf(t_star) - mp.mpf(t))) * det_m(mp.mpf(t)) / norms)


def density_mpmath(d, t, t_star, xs, dps=80):
    """p(x) = det conj M(t*-t) det M(t) / prod m_n(t*) in mpmath, as an mpf.

    The one-particle blocks and the closed-form norms are mpmath.jtheta
    series (theta_k(v | tau) = jtheta(k, pi v, e^{i pi tau}), theta_0 being
    jtheta 4) and the determinants mpmath LU: nothing but the family's data
    (shape, size, offsets, walls) comes from the package.  The determinants
    cancel by up to ~70 digits at small t, so the evaluation starts at `dps`
    digits and adds 40 until two precisions agree to 1e-16 relative
    (AccuracyError past 400 digits).
    """
    import mpmath

    prev = None
    while dps <= 400:
        with mpmath.workdps(dps):
            cur = _density_mp(mpmath.mp, d, t, t_star, xs)
        if prev is not None and abs(cur - prev) <= 1e-16 * abs(cur):
            return cur
        prev, dps = cur, dps + 40
    raise AccuracyError(f"mpmath density did not settle by 400 digits at {list(xs)}")


# ---------------------------------------------------------------------------
# the theta ring sum with every term from its own exponent

def ring_sum_direct(index, w, tau, rings):
    """theta_index's defining series at reduced w over `rings` rings, as
    (ssum, peak) with the series equal to ssum * exp(peak): every term is its
    own exponential e^{i pi tau a^2 +- 2 pi i a w - peak}, with no addition
    sequence between rings.  This is the ring sum `theta_core` used before
    its recurrence; it shares only the peak exponent with it.
    """
    qf = 1j * np.pi * tau
    zf = 2j * np.pi * w
    if index in (0, 3):
        peak = np.zeros(w.shape)  # n = 0 term dominates after reduction
        total = np.ones(w.shape, dtype=complex)
        offset = 0.0
    else:
        # dominant half-integer exponent: a = +-1/2, whichever sign matches Im w
        peak = -0.25 * np.pi * tau.imag + np.pi * np.abs(w.imag)
        total = np.zeros(w.shape, dtype=complex)
        offset = 0.5
    with np.errstate(over="ignore"):    # an exponent to -inf is a term of 0
        for n in range(1, rings + 1):
            a = n - offset
            up = np.exp(qf * (a * a) + zf * a - peak)
            dn = np.exp(qf * (a * a) - zf * a - peak)
            ring = up - dn if index == 1 else up + dn
            if index == 1:
                ring = (1j if n % 2 == 0 else -1j) * ring
            elif index == 0 and n % 2:
                ring = -ring
            total = total + ring
    return total, peak


# ---------------------------------------------------------------------------
# the infinite-volume kernel's lambda integral on a mesh of its own

@functools.lru_cache(maxsize=None)
def _legendre_newton(n):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton's method on P_n,
    from the three-term recurrence: O(n^2).  numpy's `leggauss` is an O(n^3)
    eigensolve, minutes at n = 8192, and its end weights are off by 9e-10
    relative already at n = 513 (against mpmath; these read 5e-12)."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))     # Tricomi's guesses
    for _ in range(5):
        p0, p1 = np.ones(n), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x[::-1], 2.0 / ((1.0 - x * x) * dp * dp)[::-1]


def inf_kernel_reference(iks, x, y, nodes=8192):
    """The lambda integral of `infinite_kernel` at the pairs (x, y), 1-d
    arrays, by Gauss-Legendre with `nodes` nodes on each of four panels whose
    inner ends sit 45 switch-layer widths from the switch points (two plain
    halves when that is past an eighth of the range): 32 768 nodes in all.
    It shares only `_inf_integrand` with the library, not the mesh.

    So it checks `infinite_kernel`'s lambda rule (its panels and nodes), not
    the integrand: an error in `_inf_integrand` reaches both sides alike.
    """
    rho = iks.rho
    if iks.family == "A":
        edge = 45.0 / (4.0 * np.pi**2 * rho * iks.t_star)
        cuts = ((0.0, edge, 0.5 * rho, rho - edge, rho) if edge < rho / 8.0
                else (0.0, 0.5 * rho, rho))
    else:
        edge = 45.0 / (2.0 * np.pi**2 * rho * max(iks.t, iks.t_star - iks.t))
        cuts = (-rho, -edge, 0.0, edge, rho) if edge < rho / 8.0 else (-rho, 0.0, rho)
    x, y = np.atleast_1d(x)[:, None], np.atleast_1d(y)[:, None]
    acc, top = 0.0 + 0.0j, -np.inf
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        u, w = _legendre_newton(nodes * 4 // (len(cuts) - 1))
        lam, w = 0.5 * (hi - lo) * u + 0.5 * (lo + hi), 0.5 * (hi - lo) * w
        mant, sc = _inf_integrand(iks, x, y, lam)
        peak = sc.max(axis=1)
        acc, top = parts_sum(acc, top, np.sum(parts_value(w * mant, sc - peak[:, None]), axis=1),
                             peak)
    return parts_value(acc, top)

"""Determinant identities for the seven families.

The N x N matrix of one-particle functions evaluated on a configuration has a
closed-form determinant: a known unit phase, a time coefficient a(t) built
from nome powers and Euler products, and a product factor W (the elliptic
Weyl-denominator) -- for the circle family times one extra theta of the
coordinate sum whose index follows the parity of N.

Because a(t) carries nome exponents like q^{-N(3N-1)/8}, the whole identity
is assembled in (log-magnitude, phase) form; `denominator_residual` compares
both sides after common-scale cancellation, so it stays finite where direct
evaluation would overflow doubles.  It takes one configuration xs of shape
(N,), giving a float, or a batch of shape (B, N), giving B residuals from
stacked matrices.  `logdet` is the one route to a log-determinant, here and
in `bridges`: it row-equilibrates a matrix or stack in parts form and holds
it to one condition limit before the LU.

The identity at the two times t and t* - t turns the joint density
det conj M(t*-t) det M(t) / prod m_n into a product with no cancellation,
a(t) a(t*-t) W(xi; tau_t) W(xi; tau_{t*-t}) / prod m_n (`_density`, which
`dpp_kernels.density` evaluates).  `selberg_check` integrates that density
over the box with one tensor midpoint rule and compares with N!; the nodes
per dimension come from the density's width (`midpoint_nodes`).  The same
rule sizes every x-integral of the identities: the Selberg integral, the
biorthogonality Gram matrix and the kernel grid (`verification`), and the
Chapman-Kolmogorov step (`bridges.ck_residual`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .biortho import m_fn_parts, norm_const_log
from .root_systems import FamilySpec
from .theta_core import AccuracyError, eta_log, parts_sum, parts_value, theta_parts

__all__ = [
    "DegenerateConfigError",
    "IllConditionedError",
    "KernelSpec",
    "SelbergResult",
    "coeff_a_log",
    "denominator_residual",
    "det_m_logc",
    "logdet",
    "midpoint_nodes",
    "rhs_logc",
    "selberg_check",
    "weyl_w_parts",
]

# an LU log-determinant carries round-off of ~1e-17..1e-16 times the condition
# of the equilibrated matrix; the tightest line bound it feeds is 1e-10
_COND_LIMIT = 1e7


class IllConditionedError(AccuracyError):
    """Matrix condition estimate beyond what the residual can support."""


class DegenerateConfigError(ValueError):
    """Configuration makes both sides of an identity vanish (0/0 residual)."""


# ---------------------------------------------------------------------------
# log-magnitude + phase helpers, batched over configurations

def _per_config(xs, out):
    """A float for one configuration xs (N,), the array (B,) for a batch (B, N)."""
    return float(out[0]) if np.ndim(xs) < 2 else out


def logdet(name, mant, scale=0.0):
    """(log|det|, sign) of a matrix mant * e^scale, one (n, n) or a stack
    (..., n, n); a plain matrix passes scale 0.

    Each row is divided by its largest entry, e^{max(log|mant| + scale)}, and
    the row logs go into log|det| exactly, so the LU and the condition
    estimate see rows of largest entry 1.  IllConditionedError names the
    first matrix whose equilibrated condition estimate is past `_COND_LIMIT`;
    a zero row or a non-finite entry counts as condition inf.  So no
    determinant that reaches the LU is zero.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        row = np.max(np.log(np.abs(mant)) + scale, axis=-1)
        tilde = mant * np.exp(scale - row[..., None])     # 0/0 or inf/inf: nan
    stack = np.reshape(tilde, (-1,) + np.shape(tilde)[-2:])
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    cond = np.full(len(stack), np.inf)
    cond[finite] = np.linalg.cond(stack[finite])
    bad = np.flatnonzero(~(cond <= _COND_LIMIT))
    if bad.size:
        raise IllConditionedError(f"{name} #{bad[0] + 1} of {len(stack)} condition ~ "
                                  f"{cond[bad[0]]:.3e} exceeds {_COND_LIMIT:.1e}")
    sign, logabs = np.linalg.slogdet(tilde)
    return logabs + row.sum(axis=-1), sign


def _logc_from_parts(mant, scale):
    """(mantissa, log_scale) -> (log_mag, unit phase); zero gives (-inf, nan)."""
    a = np.abs(mant)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(a) + scale, mant / a


def _logc_rel_diff(l1, p1, l2, p2):
    """|A - B| / max(|A|, |B|) with A = p1 e^{l1}, B = p2 e^{l2}, elementwise."""
    if np.any((l1 == -np.inf) & (l2 == -np.inf)):
        raise DegenerateConfigError("both sides vanish; residual undefined")
    return np.abs(parts_sum(p1, l1, -p2, l2)[0])


# ---------------------------------------------------------------------------
# Weyl denominators

# per-family single-coordinate factors: (theta index, arg multiple, tau multiple)
_SINGLES = {
    "A": (),
    "B": ((1, 1.0, 1.0),),
    "Bv": ((1, 2.0, 2.0),),
    "C": ((1, 2.0, 1.0),),
    "Cv": ((1, 1.0, 0.5),),
    "BC": ((1, 1.0, 1.0), (0, 2.0, 2.0)),
    "D": (),
}


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """Row and column indices of the pairs j < k of n coordinates, read-only."""
    ju, ku = np.triu_indices(n, 1)
    ju.flags.writeable = ku.flags.writeable = False
    return ju, ku


def weyl_w_parts(tag, xi, tau):
    """W factor at scaled coordinates xi, batched: xi of shape (N,) or (B, N).

    Returns (mantissa, log_scale) arrays of shape (B,).  The pair factors use
    differences and (except for the circle family) sums of coordinates; the
    single-coordinate factors follow the family table.  One product over all
    factor columns per row: a row's value does not depend on the batch size.
    """
    X = np.atleast_2d(np.asarray(xi, dtype=float))
    ju, ku = _pairs(X.shape[1])
    # (theta index, tau multiple, arguments) of each factor, multiplied in this order
    factors = [(1, 1.0, X[:, ku] - X[:, ju])] if ju.size else []
    if ju.size and tag != "A":
        factors.append((1, 1.0, X[:, ku] + X[:, ju]))
    factors += [(idx, tmul, amul * X) for idx, amul, tmul in _SINGLES[tag]]
    # one theta call per run of factors that share the index and tau
    parts = [theta_parts(idx, np.concatenate([f[2] for f in run], axis=1), tmul * tau)
             for (idx, tmul), run in itertools.groupby(factors, key=lambda f: f[:2])]
    none = np.empty((len(X), 0), dtype=complex)       # the product of no factors is 1
    mant = np.concatenate([none] + [m for m, _ in parts], axis=1)
    scale = np.concatenate([none.real] + [s for _, s in parts], axis=1)
    return np.prod(mant, axis=1), np.sum(scale, axis=1)


def _product_parts(tag, xi, tau):
    """Product side of the determinant identity at scaled configurations xi
    (B, N): W(xi; tau), times theta_{0 if N even else 3}(sum xi | tau) for
    the circle family.  The index follows the parity of N: the theta's norm
    parameter N tau / 2 gains a real half period for odd N, and
    theta_0(v + 1/2) = theta_3(v)."""
    mant, scale = weyl_w_parts(tag, xi, tau)
    if tag == "A":
        m, s = theta_parts(0 if xi.shape[1] % 2 == 0 else 3, xi.sum(axis=1), tau)
        mant, scale = mant * m, scale + s
    return mant, scale


# ---------------------------------------------------------------------------
# time coefficients a(t)

# family -> (prefactor, q exponent fn, ((tau multiple, q0 exponent fn), ...))
_A_TABLE = {
    "A": (1.0, lambda N: -N * (3 * N - 1) / 8, ((1.0, lambda N: -(N - 1) * (N - 2) / 2),)),
    "B": (2.0, lambda N: -N * (N - 1) / 4, ((1.0, lambda N: -N * (N - 1)),)),
    "Bv": (
        2.0,
        lambda N: -N * (N - 1) / 4,
        ((1.0, lambda N: -((N - 1) ** 2)), (2.0, lambda N: -(N - 1))),
    ),
    "C": (1.0, lambda N: -N * N / 4, ((1.0, lambda N: -N * (N - 1)),)),
    "Cv": (
        1.0,
        lambda N: -N * (2 * N - 1) / 8,
        ((1.0, lambda N: -((N - 1) ** 2)), (0.5, lambda N: -(N - 1))),
    ),
    "BC": (
        1.0,
        lambda N: -N * (N + 1) / 4,
        ((1.0, lambda N: -N * (N - 1)), (2.0, lambda N: -N)),
    ),
    "D": (4.0, lambda N: -N * (N - 1) / 4, ((1.0, lambda N: -N * (N - 2)),)),
}


def coeff_a_log(d, t):
    """log a(t); the coefficients are positive reals with huge dynamic range.

    Each Euler product q0(tau) = prod (1 - q^{2n}) = eta(tau) / q^{1/12} is
    taken as a log through `eta_log`, so a(t) stays finite at every t > 0.
    """
    y = d.tau(t, "coeff_a_log", 1).imag
    pref, qexp, q0_terms = _A_TABLE[d.tag]
    out = np.log(pref) + qexp(d.N) * (-np.pi * y)  # log q(tau) = -pi Im tau
    for tmul, e in q0_terms:
        out += e(d.N) * (eta_log(tmul * y) + np.pi * tmul * y / 12.0)
    return float(out)


# ---------------------------------------------------------------------------
# determinant identity

# unit phases i^e, fixed by sharp shape and parity, of the closed-form side of
# the determinant identity ("det") and of the Weyl/KMLGV ratio b(t) in `bridges`
# ("b"): (sharp, side) -> e(N); the B and D shapes have e = 0
_PHASE_EXP = {
    ("A", "det"): lambda N: N // 2 if N % 2 == 0 else -((N - 1) // 2),
    ("A", "b"): lambda N: N * (N + 1) // 2 if N % 2 == 0 else (N - 1) * (N - 2) // 2,
    ("C", "det"): lambda N: -N,
    ("C", "b"): lambda N: N,
}


def _phase(d, side):
    """The unit phase i^e of the family d on `side` ("det" or "b")."""
    return (1j) ** (_PHASE_EXP.get((d.sharp, side), lambda N: 0)(d.N) % 4)


def _m_matrix_parts(d, xs, t):
    """M[b, j, k] = M_j(x_bk, t) as (mantissa, log_scale) stacks (B, N, N)."""
    parts = m_fn_parts(d, np.atleast_2d(xs), t)   # axes j, b, k
    return tuple(np.moveaxis(p, 0, 1) for p in parts)


def det_m_logc(d, xs, t):
    """log-magnitude and phase of det[M_j(x_k, t)], through `logdet`."""
    return logdet("matrix", *_m_matrix_parts(d, xs, t))


def rhs_logc(d, xs, t):
    """Closed-form side of the determinant identity, as (log_mag, phase)."""
    xi = np.atleast_2d(np.asarray(xs, dtype=float)) / (2.0 * np.pi * d.r)
    tau = d.tau(t, "rhs_logc", 1)
    lp, pp = _logc_from_parts(*_product_parts(d.tag, xi, tau))
    return coeff_a_log(d, t) + lp, _phase(d, "det") * pp


def denominator_residual(d, xs, t):
    """Relative difference between det[M_j(x_k, t)] and its closed form.

    Both sides in (log-magnitude, phase); DegenerateConfigError when both
    vanish, IllConditionedError when a matrix cannot support the residual.
    """
    d.tau(t, "denominator_residual", 1)
    X = d.configurations(xs, "denominator_residual")
    lr, pr = rhs_logc(d, X, t)
    if np.any(lr == -np.inf):
        raise DegenerateConfigError(
            "closed-form side vanishes (coincident points or a wall zero); "
            "residual undefined"
        )
    ll, pl = det_m_logc(d, X, t)
    return _per_config(xs, _logc_rel_diff(ll, pl, lr, pr))


# ---------------------------------------------------------------------------
# the joint density and its Selberg-type integral

@dataclass(frozen=True)
class KernelSpec:
    """A family, 0 < t < t_star < inf, and its tau rule at t and t_star - t;
    `norms_log` (`norm_const_log` at t_star) is computed on first use, then kept.

    `family` is a `FamilySpec`, kept as it is, or the (tag, N[, r]) tuple one is
    built from: this and the CLI's flags are where a family enters as input."""

    family: object
    t: float
    t_star: float

    def __post_init__(self):
        if not isinstance(self.family, FamilySpec):
            if not (isinstance(self.family, tuple) and 2 <= len(self.family) <= 3):
                raise ValueError("KernelSpec family must be a FamilySpec or a (tag, N[, r]) "
                                 f"tuple, got {self.family!r}")
            object.__setattr__(self, "family", FamilySpec(*self.family))
        self.check_times(self.t, self.t_star)
        for s in (self.t, self.t_star - self.t):
            self.family.tau(s, "KernelSpec")

    @staticmethod
    def check_times(t, t_star):
        if not 0.0 < t < t_star < math.inf:
            raise ValueError(f"need 0 < t < t_star < inf, got t={t}, t_star={t_star}")

    @functools.cached_property
    def norms_log(self):
        out = norm_const_log(self.family, self.t_star)
        out.flags.writeable = False     # one array for every user of the spec
        return out


def _density(ks, X):
    """p(x) = a(t) a(t*-t) W(xi; tau_t) W(xi; tau_{t*-t}) / prod m_n(t*) on a
    batch of configurations X (B, N), at the family and times of ks.

    The determinant identity at both times turns det conj M(t*-t) det M(t)
    into this product (the unit phases cancel, and W is real for real xi), so
    p carries no cancellation: an exact 0 only where a theta factor vanishes
    (coincident points, a point on an absorbing wall).  The logs of a(t),
    a(t*-t) and the norms go into the scale before the one exponentiation;
    the real part drops the round-off of the phases.
    """
    d, t, t_star = ks.family, ks.t, ks.t_star
    xi = X / (2.0 * np.pi * d.r)
    lg = coeff_a_log(d, t) + coeff_a_log(d, t_star - t) - ks.norms_log.sum()
    m1, s1 = _product_parts(d.tag, xi, d.tau(t_star - t, "density", 1))
    m2, s2 = _product_parts(d.tag, xi, d.tau(t, "density", 1))
    return parts_value(m1 * m2, s1 + s2 + lg).real


def midpoint_nodes(d, t, t_star, dim, cap):
    """Nodes per dimension of a midpoint rule on [0, L] at times (t, t*):
    n = N + ceil(1.5 L / sigma), sigma = sqrt(t (t* - t) / t*) the bridge's
    spread at time t.  N covers the products of the N modes; aliasing of a
    feature of width sigma is ~exp(-2 pi^2 1.5^2) ~ 5e-20.  The integrand is
    analytic and periodic, or extends evenly or oddly across the walls, so
    the rule converges spectrally.  AccuracyError past `cap` points n^dim."""
    sigma = math.sqrt(t * (t_star - t) / t_star)
    n = d.N + math.ceil(1.5 * d.length / sigma)
    if n**dim > cap:
        raise AccuracyError(f"midpoint rule needs {n}^{dim} = {n**dim} points, "
                            f"past the limit {cap}")
    return n


# the most rows of the Selberg sum, and the rows per density call
_SELBERG_ROWS, _SELBERG_BLOCK = 2**20, 2**14


@dataclass(frozen=True)
class SelbergResult:
    lhs: float
    rhs: float
    rel_err: float


def selberg_check(ks):
    """Integral of the KernelSpec ks's joint density over [0, L]^N against N!.

    The box covers each configuration of the alcove once per ordering, and
    the closed-form norms make the density integrate to 1 over the alcove.
    One tensor midpoint rule (`midpoint_nodes`; midpoint keeps the nodes off
    the wall zeros) sums its n^N rows in fixed blocks; AccuracyError past
    `_SELBERG_ROWS` rows.
    Returns SelbergResult(lhs, rhs=N!, rel_err).
    """
    N, L = ks.family.N, ks.family.length
    n = midpoint_nodes(ks.family, ks.t, ks.t_star, N, _SELBERG_ROWS)
    nodes = (np.arange(n) + 0.5) * (L / n)
    total = 0.0
    for start in range(0, n**N, _SELBERG_BLOCK):
        rows = np.arange(start, min(start + _SELBERG_BLOCK, n**N))
        X = nodes[np.stack(np.unravel_index(rows, (n,) * N), axis=1)]
        total += float(_density(ks, X).sum())
    lhs = total * (L / n) ** N
    rhs = float(math.factorial(N))
    return SelbergResult(lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / max(abs(lhs), rhs))

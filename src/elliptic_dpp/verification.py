"""Named residual checks shared by the CLI verify and limits verbs and the
test gate.

Each suite of SUITES takes the run's KernelSpec (family, 0 < t < t*, norms)
and returns a list of CheckResult rows; a row renders as

    <name>: residual=<value> tol=<value> PASS|FAIL

so the CLI and the acceptance tests print identical evidence.  A numerical
engine that refuses a case (an AccuracyError; `macdonald.IllConditionedError`
is one) turns the lines it feeds into inf (`_or_inf`): they fail, and every
other line still prints.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bridges import (bridge_density, ck_residual, eta_formula_residual,
                      macdonald_kmlgv_residual, matrix_identity_residual, transition,
                      transition_images)
from .dpp_kernels import (InfiniteKernelSpec, KernelSpec, _factors, _kernel_sum, density_batch,
                          infinite_kernel, kernel, kernel_matrix, sine_kernel, trig_kernel)
from .macdonald import denominator_residual, midpoint_nodes
from .root_systems import FamilySpec
from .theta_core import AccuracyError, theta, theta_series

__all__ = ["CheckResult", "SINE_OF", "SUITES", "limit_specs", "limits_suite", "run_suites",
           "render"]

# sine-kernel form of each infinite-volume geometry (d.sharp)
SINE_OF = {"A": "A", "B": "C", "C": "C", "D": "D"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self):
        return math.isfinite(self.residual) and self.residual <= self.tol

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: residual={self.residual:.3e} tol={self.tol:.1e} {status}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _worst(*residuals):
    """Python's max, except that any NaN gives NaN (max drops a NaN that is
    not first), so a NaN residual fails its line."""
    return math.nan if any(r != r for r in residuals) else max(residuals)


def _or_inf(fn, *args, lines=1):
    """fn(*args), the residual of one line or a tuple of `lines` residuals;
    inf on each when a numerical engine refuses the case."""
    try:
        return fn(*args)
    except AccuracyError:
        return math.inf if lines == 1 else (math.inf,) * lines


def _configs(seed, d, n):
    """The first n accepted rows (n, N) of batches drawn from default_rng(seed);
    margins keep them off the walls, a gap floor keeps the identities well
    conditioned."""
    rng, L, out = np.random.default_rng(seed), d.length, np.empty((0, d.N))
    while len(out) < n:
        X = np.sort(rng.uniform(0.03 * L, 0.97 * L, (2 * n, d.N)), axis=1)
        out = np.concatenate((out, X[np.min(np.diff(X), axis=1, initial=L) > 0.01 * L]))
    return out[:n]


# ---------------------------------------------------------------------------
# suites

def theta_suite(ks):
    """The theta engine against its series oracle and its two symmetries; ks is not read."""
    pts = [(0.31 + 0.12j, 0.8j), (-0.7 + 0.4j, 0.3j), (1.9 - 0.2j, 1.7j),
           (0.45, 0.09j), (2.2 + 1.1j, 2.5j)]
    worst = 0.0
    vs, taus = zip(*pts)
    for idx in range(4):
        # the oracle takes all five (v, tau) in one call; the engine one per tau
        for (v, tau), ref in zip(pts, theta_series(idx, vs, taus)):
            worst = _worst(worst, _rel(theta(idx, v, tau), ref))
    out = [CheckResult("theta engine vs series oracle", worst, 1e-12)]

    # one theta call per (index, tau); the oracle side stays in Python scalars
    worst = 0.0
    signs = {0: lambda m, k: (-1.0) ** m, 1: lambda m, k: (-1.0) ** (m + k),
             2: lambda m, k: (-1.0) ** k, 3: lambda m, k: 1.0}
    shifts = ((1, 0), (0, 1), (2, 1), (-1, 2))
    for idx in range(4):
        for v, tau in ((0.23 + 0.05j, 0.7j), (-0.4, 1.3j)):
            *lhs, base = theta(idx, [v + m * tau + k for m, k in shifts] + [v], tau)
            for (m, k), lh in zip(shifts, lhs):
                pref = signs[idx](m, k) * np.exp(
                    -1j * np.pi * tau * m * m - 2j * np.pi * m * v)
                rhs = pref * base
                worst = _worst(worst, abs(lh - rhs) / max(abs(lh), abs(rhs), abs(pref)))
    out.append(CheckResult("theta quasi-periodicity", worst, 1e-12))

    # theta_idx(v | tau) against theta_swap(v / tau | -1/tau); the dual taus of
    # 0.5i and 2i are direct taus too, so one theta call per (index, tau)
    worst = 0.0
    vs = (0.3 + 0.17j, -0.8 + 0.05j)
    cases = [(idx, swap, tau) for idx, swap in ((0, 2), (1, 1), (2, 0), (3, 3))
             for tau in (0.1j, 0.5j, 2j)]
    args = {}
    for idx, swap, tau in cases:
        args.setdefault((idx, tau), []).extend(vs)
        args.setdefault((swap, -1.0 / tau), []).extend(v / tau for v in vs)
    val = {(i, tau, u): th for (i, tau), us in args.items()
           for u, th in zip(us, theta(i, us, tau))}
    for idx, swap, tau in cases:
        eps = np.exp(0.75j * np.pi) if idx == 1 else np.exp(0.25j * np.pi)
        for v in vs:
            lh, du = val[idx, tau, v], val[swap, -1.0 / tau, v / tau]
            rhs = eps * tau ** -0.5 * np.exp(-1j * np.pi * v * v / tau) * du
            worst = _worst(worst, abs(lh - rhs) / max(abs(lh), 1e-12))
    out.append(CheckResult("theta imaginary transform", worst, 1e-12))
    return out


def _gram(ks, n):
    """The balanced factors a = f(x, t), b = f(x, t*-t) on the theta route
    (`_factors` with `series` false: `m_fn_parts` over `ks.norms_log`, never
    the kernel's mode series) on the midpoint grid x of n nodes, and their
    Gram matrix G = h conj(b) a^T.

    G_jk approximates the integral of conj f_j(x, t*-t) f_k(x, t), which is
    m_j delta_jk / (m_j^{1-t/t*} m_k^{t/t*}) = delta_jk: G = I is the
    biorthogonality with the closed-form norms.  The integrand extends to a
    smooth periodic function (periodically for the circle family, evenly across
    both walls for the interval families), so the midpoint rule converges
    spectrally.
    """
    L = ks.family.length
    x = np.arange(n) * (L / n) + L / (2 * n)
    a, b = _factors(ks, x, x, series=False)
    return a, b, (L / n) * (np.conj(b) @ a.T)


def _biortho_residuals(ks):
    # G is I in plain doubles at every horizon; entry (j, k) is measured on
    # the scale m_j^{1-t/t*} m_k^{t/t*}, that of its round-off h sum |b_j| |a_k|
    g = _gram(ks, midpoint_nodes(ks.family, ks.t, ks.t_star, 1, 8192))[2]
    off = np.abs(g - np.diag(np.diag(g)))
    return float(off.max()), float(np.max(np.abs(np.diag(g) - 1.0)))


def biortho_suite(ks):
    """The Gram matrix of ks's balanced factors against I (`_gram`)."""
    off, norms = _or_inf(_biortho_residuals, ks, lines=2)
    return [CheckResult("biorthogonality off-diagonal", off, 1e-9),
            CheckResult("biorthogonality norms", norms, 1e-9)]


def denominator_suite(ks):
    """The determinant identity at 5 configurations each of t, t*/2 and t*."""
    X = _configs(101, ks.family, 15).reshape(3, 5, ks.family.N)
    worst = _or_inf(lambda: float(np.max([denominator_residual(ks.family, xs, tt) for tt, xs in
                                          zip((ks.t, 0.5 * ks.t_star, ks.t_star), X)])))
    return [CheckResult("determinant-identity residual", worst, 1e-10)]


def matrix_suite(ks):
    """Weight-matrix identity at t and t*, pinned paths and (circle) eta at t; a line
    reads inf when r(t) leaves double range, or r(t) or P is past `logdet`'s limit."""
    d = ks.family
    X = _configs(103, d, 10).reshape(2, 5, d.N)
    weight = _or_inf(lambda: float(np.max([matrix_identity_residual(d, tt, xs) for tt, xs in
                                           zip((ks.t, ks.t_star), X)])))
    pinned = _or_inf(lambda: float(np.max(macdonald_kmlgv_residual(d, ks.t, _configs(107, d, 5)))))
    out = [CheckResult("weight-matrix identity", weight, 1e-10),
           CheckResult("pinned-path proportionality", pinned, 1e-9)]
    if d.walls == "circ":
        out.append(CheckResult("eta closed form", _or_inf(eta_formula_residual, d, ks.t), 1e-10))
    return out


def _images_residual(d):
    L, worst = d.length, 0.0
    for dts in (0.1, 1.0):
        for x, y in ((0.2 * L, 0.7 * L), (0.8 * L, 0.4 * L)):
            a = transition(d, 0.0, x, dts * d.r ** 2, y)
            b = transition_images(d, 0.0, x, dts * d.r ** 2, y, 12)
            worst = _worst(worst, abs(a - b))
    return worst


def bridge_suite(ks):
    """Heat kernel vs winding images, Chapman-Kolmogorov, bridge vs spectral density."""
    images = _or_inf(_images_residual, ks.family)
    # the residual is absolute: a kernel that underflowed or cancelled to 0 reads inf
    x, z = 0.3 * ks.family.length, 0.7 * ks.family.length
    ck = _or_inf(lambda: ck_residual(ks.family, 0.0, 0.4 * ks.t_star, ks.t_star, x, z)
                 if transition(ks.family, 0.0, x, ks.t_star, z) > 0.0 else math.inf)
    X = _configs(109, ks.family, 5)
    dens = _or_inf(lambda: _worst(*map(_rel, bridge_density(ks, X), density_batch(ks, X))))
    return [CheckResult("transition vs winding images", images, 1e-11),
            CheckResult("Chapman-Kolmogorov", ck, 1e-10),
            CheckResult("bridge density vs spectral density", dens, 1e-8)]


def _reproducing_residual(a, b, g, km):
    """max |(K o K)(x, z) - K(x, z)| / max |K| over a grid x, where
    (K o K)(x, z) = h sum_y K(x, y) K(y, z), km is K on x, a, b are the
    balanced factors on x and g their Gram matrix h conj(b) a^T (`_gram`).

    K = a^T conj(b), so K o K = a^T g conj(b): O(N G^2) in place of the dense
    O(G^3) product.  It is compared with km entry by entry, one block of rows
    at a time, so g != I (factors not biorthogonal) and km != a^T conj(b) (a
    wrong assembly of K) both show.
    """
    bc = np.conj(b)
    left = a.T @ g                          # rows of a^T g, (points, N)
    worst = 0.0
    for start in range(0, len(km), 64):
        rows = slice(start, start + 64)
        worst = _worst(worst, float(np.max(np.abs(left[rows] @ bc - km[rows]))))
    return worst / float(np.max(np.abs(km)))


def _kernel_grid_residuals(ks):
    """|trace K - N| and the reproducing residual on a midpoint grid whose
    nodes follow the kernel's modes and width (`midpoint_nodes`), refused
    past 2048 nodes (a 67 MB kernel matrix)."""
    d = ks.family
    n = midpoint_nodes(d, ks.t, ks.t_star, 2, 2048**2)
    # the factors once, for K and for K o K; K here is the theta-frame kernel
    # at every time, while `kernel_matrix` takes the mode series where Im tau >= 1
    a, b, g = _gram(ks, n)
    km = _kernel_sum(a[:, :, None], b[:, None])
    trace = float(np.sum(np.diag(km)).real) * (d.length / n)
    return abs(trace - d.N), _reproducing_residual(a, b, g, km)


def kernel_suite(ks):
    """Trace and reproducing identity of the kernel on a grid; density sign at 200 rows."""
    trace, comp_err = _or_inf(_kernel_grid_residuals, ks, lines=2)
    X = np.sort(np.random.default_rng(113).uniform(0.0, ks.family.length, (200, ks.family.N)), 1)
    dens = _or_inf(lambda: _worst(0.0, -float(density_batch(ks, X).min())))
    return [
        CheckResult("kernel trace = N", trace, 1e-9),
        CheckResult("reproducing identity", comp_err, 1e-9),
        CheckResult("density nonnegativity", dens, 1e-12),
    ]


def limit_specs(d, rho, horizon):
    """The specs `limits_suite` runs on, as (sine, large), at density rho.

    sine holds (t* rho^2, InfiniteKernelSpec of d.sharp at t*/2) for the sine
    lines at t* rho^2 = `horizon`, 50, 200 and 800; large the (KernelSpec,
    InfiniteKernelSpec) pairs of the N -> infinity line, at t* = 1 / rho^2
    and t / t* = 0.1, 0.5: the family of d's tag at N = 64 and r = size /
    (2 pi rho), about rho points per unit length.  ValueError where a spec
    refuses rho; one of the law's horizons (50, 200 or 800) is named.
    """
    if not sys.float_info.min <= rho * rho < math.inf:     # t* = horizon / rho^2
        raise ValueError(f"rho = {rho!r} leaves rho**2 outside the normal doubles")
    fam, sine = d.sharp, []
    for h in (horizon, 50.0, 200.0, 800.0):
        t, t_star = 0.5 * h / rho**2, h / rho**2
        try:
            sine.append((h, InfiniteKernelSpec(fam, rho=rho, t=t, t_star=t_star)))
        except ValueError as exc:
            if not sine:     # the caller's horizon, which the caller names
                raise
            raise ValueError(f"the sine law at t*rho^2 = {h:g}, InfiniteKernelSpec({fam!r}, "
                             f"rho={rho!r}, t={t!r}, t_star={t_star!r}): {exc}") from None
    big = FamilySpec(d.tag, 64, FamilySpec(d.tag, 64).size / (2.0 * math.pi * rho))
    t_star = 1.0 / rho**2
    large = [(KernelSpec(big, t=f * t_star, t_star=t_star),
              InfiniteKernelSpec(fam, rho=rho, t=f * t_star, t_star=t_star))
             for f in (0.1, 0.5)]
    return sine, large


def limits_suite(d, specs):
    """Degeneration limits of one family: trigonometric, sine at the horizon
    t* rho^2 of the first sine spec, the sine convergence law, and N ->
    infinity, on the specs of `limit_specs`.

    Not one of SUITES: at the default horizon 50 the sine line fails by design
    (see the comment on it), and `verify --suite all` must keep passing.
    """
    results = []

    # (a) deep-relaxation limit at t*/r^2 = 100: finite kernel vs trig form
    r = d.r
    d.tau(100.0 * r**2, "limits_suite")     # names r where 100 r^2 leaves double range
    ks = KernelSpec(d, t=50.0 * r**2, t_star=100.0 * r**2)
    xs = np.linspace(0.11, 0.93, 7) * d.length
    km = kernel_matrix(ks, xs, xs)
    worst = float(np.max(np.abs(km - trig_kernel(d, xs[:, None], xs[None, :]))))
    results.append(CheckResult("trigonometric limit (t*/r^2 = 100)",
                               worst / (d.N / (2 * np.pi * r)), 1e-6))

    # (b) bulk limit of the infinite kernel vs the sine forms; at the default
    # horizon t* rho^2 = 50 the deviation is ~3e-3 and falls off as the
    # reciprocal of the horizon -- the law line below checks exactly that.
    sine, large = specs
    (horizon, first), *law = sine
    fam, rho = first.family, first.rho
    sfam = SINE_OF[fam]
    pts = [(0.3 / rho, 0.3 / rho), (1.3 / rho, 0.6 / rho), (2.2 / rho, 0.9 / rho)]
    px, py = np.array(pts).T

    def sine_dev(ik):
        return _worst(*(abs(k - sine_kernel(sfam, x, y, rho))
                        for k, (x, y) in zip(infinite_kernel(ik, px, py), pts)))

    results.append(CheckResult(
        f"sine limit (t*rho^2 = {horizon:g})", sine_dev(first) / rho, 1e-6))

    scaled = [sine_dev(ik) * h for h, ik in law]
    spread = (_worst(*scaled) - min(scaled)) / _worst(*scaled)
    results.append(CheckResult("sine convergence law (deviation x horizon)",
                               spread, 2e-2))

    # (c) N -> infinity: the run's family at N = 64 against its infinite
    # kernel, at the sine lines' pairs
    worst = 0.0
    for ks, ik in large:
        dev = kernel(ks, px, py) - infinite_kernel(ik, px, py)
        worst = _worst(worst, float(np.max(np.abs(dev))))
    results.append(CheckResult(f"infinite kernel vs finite N=64 {d.tag} (limit {fam})",
                               worst / rho, 1e-10))
    return results


SUITES = {
    "theta": theta_suite,
    "biortho": biortho_suite,
    "denominator": denominator_suite,
    "matrix": matrix_suite,
    "bridge": bridge_suite,
    "kernel": kernel_suite,
}


def run_suites(name, ks):
    """Run one named suite, or all of them for "all", on the run's KernelSpec
    ks; ordered results."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {list(SUITES)} or 'all'")
    return [res for n in (SUITES if name == "all" else [name]) for res in SUITES[n](ks)]


def render(results):
    return "\n".join(r.line() for r in results)

"""End-to-end gate: nine headline checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines; each
check also asserts, so the plain suite stays the single source of truth.
"""

import time

import numpy as np
import pytest

from elliptic_dpp.bridges import (bridge_density, ck_residual,
                                  eta_formula_residual,
                                  matrix_identity_residual, transition,
                                  transition_images)
from elliptic_dpp.dpp_kernels import (InfiniteKernelSpec, KernelSpec,
                                      bin_intensity, corr_det, density,
                                      empirical_density, exact_sample,
                                      infinite_kernel, kernel, kernel_matrix,
                                      sine_kernel, trig_kernel)
from elliptic_dpp.macdonald import denominator_residual, selberg_check
from elliptic_dpp.root_systems import FAMILIES, derive
from elliptic_dpp.theta_core import theta
from elliptic_dpp.verification import biortho_suite
from oracles import corr_oracle, gram_oracle

_MIN_N = {"D": 2}


def _report(num, name, ok, detail):
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def _fams(max_n):
    for tag in FAMILIES:
        for N in range(_MIN_N.get(tag, 1), max_n + 1):
            yield tag, N


# ---------------------------------------------------------------------------

def test_criterion_1_theta_identity_suite():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst_exact = 0.0
    worst_heat = 0.0
    swap = {0: 2, 1: 1, 2: 0, 3: 3}
    ih = 1e-4j
    for _ in range(200):
        v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        tau = 1j * rng.uniform(0.3, 2.5)
        m = int(rng.integers(-2, 3))
        k = int(rng.integers(-2, 3))
        for idx in range(4):
            # parity
            plus, minus = theta(idx, v, tau), theta(idx, -v, tau)
            expected = -minus if idx == 1 else minus
            worst_exact = max(worst_exact,
                              abs(plus - expected) / max(abs(plus), 1.0))
            # lattice shift
            sign = {0: (-1.0) ** m, 1: (-1.0) ** (m + k),
                    2: (-1.0) ** k, 3: 1.0}[idx]
            lhs = theta(idx, v + m * tau + k, tau)
            pref = sign * np.exp(-1j * np.pi * tau * m * m - 2j * np.pi * m * v)
            rhs = pref * theta(idx, v, tau)
            worst_exact = max(worst_exact, abs(lhs - rhs)
                              / max(abs(lhs), abs(rhs), abs(pref)))
            # modular inversion
            eps = np.exp(0.75j * np.pi) if idx == 1 else np.exp(0.25j * np.pi)
            inv = eps * tau ** -0.5 * np.exp(-1j * np.pi * v * v / tau) \
                * theta(swap[idx], v / tau, -1.0 / tau)
            worst_exact = max(worst_exact,
                              abs(theta(idx, v, tau) - inv) / max(abs(inv), 1e-12))
            # diffusion equation, central differences with the complex step
            # i h in both variables (tau stays on the imaginary axis, and
            # both truncation errors turn by (i h)^2 = -h^2 alike); judged on
            # the scale of the derivatives being compared
            dt = (theta(idx, v, tau + ih) - theta(idx, v, tau - ih)) / (2 * ih)
            dvv = (theta(idx, v + ih, tau) - 2 * theta(idx, v, tau)
                   + theta(idx, v - ih, tau)) / ih ** 2
            worst_heat = max(worst_heat, abs(dt - dvv / (4j * np.pi))
                             / max(abs(dt), abs(theta(idx, v, tau)), 1.0))
    dt_run = time.time() - t0
    ok = worst_exact < 1e-12 and worst_heat < 1e-6 and dt_run < 5.0
    _report(1, "theta identity suite", ok,
            f"exact={worst_exact:.3e}/1e-12 heat={worst_heat:.3e}/1e-6 "
            f"time={dt_run:.1f}s/5s")
    assert ok


def test_criterion_2_biorthogonality():
    t0 = time.time()
    worst = 0.0
    worst_gamma = 0.0       # production path: the balanced factors' Gram vs I
    for tag, N in _fams(6):
        for ratio in (0.25, 0.5, 0.75):
            g, norms = gram_oracle((tag, N, 1.0), ratio, 1.0)
            scale = np.sqrt(np.outer(norms, norms))   # natural size of entry (j,k)
            worst = max(worst, float(np.max(np.abs(g - np.diag(norms)) / scale)))
            lines = biortho_suite(derive((tag, N, 1.0)), ratio, 1.0)
            worst_gamma = max([worst_gamma] + [line.residual for line in lines])
    dt = time.time() - t0
    ok = worst < 1e-9 and worst_gamma < 1e-9 and dt < 60.0
    _report(2, "biorthogonality, 7 families N<=6", ok,
            f"residual={worst:.3e}/1e-9 gram-of-factors={worst_gamma:.3e}/1e-9 "
            f"time={dt:.1f}s/60s")
    assert ok


def _well_separated(rng, d):
    L = d.length
    while True:
        xs = np.sort(rng.uniform(0.03 * L, 0.97 * L, d.N))
        if d.N == 1 or np.min(np.diff(xs)) > 0.01 * L:
            return xs


def test_criterion_3_denominator_formula():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for tag, N in _fams(5):
        d = derive((tag, N, 1.0))
        for _ in range(20):
            xs = _well_separated(rng, d)
            t = rng.uniform(0.3, 2.0)
            worst = max(worst, denominator_residual(d, xs, t))
    dt = time.time() - t0
    ok = worst < 1e-10 and dt < 30.0
    _report(3, "theta-product determinant formula", ok,
            f"residual={worst:.3e}/1e-10 time={dt:.1f}s/30s")
    assert ok


def test_criterion_4_closed_form_integrals():
    t0 = time.time()
    worst1 = max(selberg_check((tag, 1, 1.0), 0.4, 1.0).rel_err
                 for tag in FAMILIES if tag != "D")
    worst2 = max(selberg_check((tag, 2, 1.0), 0.4, 1.0).rel_err
                 for tag in FAMILIES)
    worst3 = max(selberg_check((tag, 3, 1.0), 0.4, 1.0).rel_err
                 for tag in FAMILIES)
    dt = time.time() - t0
    ok = max(worst1, worst2, worst3) < 1e-8 and dt < 120.0
    _report(4, "closed-form normalization integrals", ok,
            f"N1={worst1:.3e}/1e-8 N2={worst2:.3e}/1e-8 N3={worst3:.3e}/1e-8 "
            f"time={dt:.1f}s/120s")
    assert ok


def test_criterion_5_kernel_structure():
    t0 = time.time()
    worst_tr = 0.0
    worst_rep = 0.0
    n = 512
    for tag, N in _fams(6):
        ks = KernelSpec((tag, N, 1.0), t=0.4, t_star=1.0)
        L = ks.family.length
        x = (np.arange(n) + 0.5) * (L / n)
        km = kernel_matrix(ks, x, x)
        worst_tr = max(worst_tr, abs(float(np.sum(np.diag(km)).real) * L / n - N))
        worst_rep = max(worst_rep, float(
            np.max(np.abs(km @ km * (L / n) - km)) / np.max(np.abs(km))))
    dt = time.time() - t0
    ok = worst_tr < 1e-9 and worst_rep < 1e-9
    _report(5, "kernel trace and reproducing identity", ok,
            f"trace={worst_tr:.3e}/1e-9 KK=K={worst_rep:.3e}/1e-9 time={dt:.1f}s")
    assert ok


def test_criterion_6_correlation_oracle():
    t0 = time.time()
    worst = 0.0
    for tag in FAMILIES:
        for N in (2, 3):
            for t in (0.3, 0.5):
                ks = KernelSpec((tag, N, 1.0), t=t, t_star=1.0)
                L = ks.family.length
                for n in (1, 2):
                    pts = np.array([0.31, 0.62])[:n] * L
                    a = corr_det(ks, pts)
                    b = corr_oracle(ks, pts)
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 300.0
    _report(6, "correlation determinant vs direct integration", ok,
            f"residual={worst:.3e}/1e-6 time={dt:.1f}s/300s")
    assert ok


def test_criterion_7a_trigonometric_limit():
    worst = 0.0
    for tag in FAMILIES:
        ks = KernelSpec((tag, 5, 1.0), t=50.0, t_star=100.0)
        d = ks.family
        xs = np.linspace(0.11, 0.93, 7) * d.length
        km = kernel_matrix(ks, xs, xs)
        dev = max(abs(km[i, j] - trig_kernel(d, x, y))
                  for i, x in enumerate(xs) for j, y in enumerate(xs))
        worst = max(worst, dev / (5 / (2 * np.pi)))
    ok = worst < 1e-6
    _report("7a", "trigonometric limit at t*/r^2=100", ok,
            f"residual={worst:.3e}/1e-6")
    assert ok


_SINE_PTS = [(0.3, 0.3), (1.3, 0.6), (2.2, 0.9)]


def _sine_deviation(fam, sfam, horizon):
    iks = InfiniteKernelSpec(fam, rho=1.0, t=horizon / 2, t_star=horizon)
    return max(abs(infinite_kernel(iks, x, y) - sine_kernel(sfam, x, y, 1.0))
               for x, y in _SINE_PTS)


@pytest.mark.xfail(strict=True, reason=(
    "sine-limit deviation at horizon t*rho^2=50 is ~3e-3 by the measured "
    "1/(t*rho^2) convergence law; 1e-6 would need t*rho^2 ~ 1.5e5"))
def test_criterion_7b_sine_limit_at_pinned_horizon():
    worst = max(_sine_deviation(fam, sfam, 50.0)
                for fam, sfam in (("A", "A"), ("B", "C"), ("C", "C"), ("D", "D")))
    ok = worst < 1e-6
    _report("7b", "sine limit at t*rho^2=50", ok,
            f"residual={worst:.3e}/1e-6 (finite-horizon floor ~C/(t*rho^2), "
            f"C~0.15-0.24; see 7b-law)")
    assert ok


def test_criterion_7b_sine_convergence_law():
    worst_spread = 0.0
    floor = 0.0
    for fam, sfam in (("A", "A"), ("B", "C"), ("C", "C"), ("D", "D")):
        scaled = [_sine_deviation(fam, sfam, h) * h for h in (50.0, 200.0, 800.0)]
        worst_spread = max(worst_spread, (max(scaled) - min(scaled)) / max(scaled))
        floor = max(floor, scaled[0] / 50.0)
    ok = worst_spread < 2e-2
    _report("7b-law", "sine deviation scales as 1/(t*rho^2)", ok,
            f"spread={worst_spread:.3e}/2e-2; measured deviation at "
            f"horizon 50 is {floor:.2e} vs demanded 1e-6")
    assert ok


def test_criterion_7c_infinite_vs_large_finite():
    N = 64
    r = N / (2 * np.pi)
    ks = KernelSpec(("A", N, r), t=0.5, t_star=1.0)
    iks = InfiniteKernelSpec("A", rho=1.0, t=0.5, t_star=1.0)
    x0 = 0.3 * 2 * np.pi * r
    worst = max(abs(kernel(ks, x0 + dx, x0) - infinite_kernel(iks, x0 + dx, x0))
                for dx in (0.1, 0.5, 1.0, 2.0))
    ok = worst < 1e-3
    _report("7c", "infinite kernel vs finite N=64 circle", ok,
            f"residual={worst:.3e}/1e-3")
    assert ok


def test_criterion_8_bridge_identities():
    t0 = time.time()
    rng = np.random.default_rng(88)
    w_img = w_ck = w_mat = w_den = 0.0
    seen = set()
    for tag in FAMILIES:
        d = derive((tag, 3, 1.0))
        L = d.length
        key = (d.walls, d.parity)
        if key not in seen:
            seen.add(key)
            for dts in (0.1, 1.0):
                for x, y in ((0.2 * L, 0.7 * L), (0.8 * L, 0.4 * L)):
                    a = transition(d, 0.0, x, dts, y)
                    b = transition_images(d, 0.0, x, dts, y, 12)
                    w_img = max(w_img, abs(a - b))
            w_ck = max(w_ck, ck_residual(d, 0.0, 0.4, 1.0, 0.3 * L, 0.7 * L))
        for _ in range(3):
            xs = _well_separated(rng, d)
            w_mat = max(w_mat, matrix_identity_residual(d, 0.4, xs))
            bp = bridge_density(d, 0.4, 1.0, xs)
            sp = density(KernelSpec(d, t=0.4, t_star=1.0), xs)
            w_den = max(w_den, abs(bp - sp) / max(abs(sp), 1e-300))
    w_eta = max(eta_formula_residual(derive(("A", N, 1.0)), 0.4)
                for N in range(1, 7))
    dt = time.time() - t0
    ok = (w_img < 1e-11 and w_ck < 1e-10 and w_mat < 1e-10
          and w_den < 1e-8 and w_eta < 1e-10 and dt < 60.0)
    _report(8, "noncolliding-bridge identities", ok,
            f"images={w_img:.1e}/1e-11 CK={w_ck:.1e}/1e-10 "
            f"matrix={w_mat:.1e}/1e-10 density={w_den:.1e}/1e-8 "
            f"eta={w_eta:.1e}/1e-10 time={dt:.1f}s/60s")
    assert ok


@pytest.mark.slow
def test_criterion_9_sampler():
    ks = KernelSpec(("A", 4, 1.0), t=0.5, t_star=1.0)
    t0 = time.time()
    res = exact_sample(ks, 200_000, seed=42)
    dt = time.time() - t0
    h = empirical_density(res, bins=40)
    # oracle: the bin average of K(x, x), which is what a bin's expected
    # density is (the midpoint value is off by the intensity's curvature, up
    # to ~1 stderr at this sample size)
    exact = bin_intensity(ks, np.append(h.bin_left, h.bin_right[-1]))
    pulls = np.abs(h.density - exact) / h.stderr
    res2 = exact_sample(ks, 200_000, seed=42)
    identical = (res.positions.tobytes() == res2.positions.tobytes()
                 and res.block_ids.tobytes() == res2.block_ids.tobytes())
    ok = (len(res.positions) >= 200_000 and pulls.max() < 4.0 and identical
          and dt < 600.0)
    _report(9, "sampler histogram and determinism", ok,
            f"states={len(res.positions)} worst_pull={pulls.max():.2f}/4 "
            f"byte_identical={identical} time={dt:.0f}s/600s")
    assert ok

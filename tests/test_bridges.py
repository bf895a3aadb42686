"""Boundary kernels, winding-image oracles, and pinned-path identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_dpp import bridges
from elliptic_dpp.bridges import (
    bridge_density,
    ck_residual,
    eta_formula_residual,
    macdonald_kmlgv_residual,
    matrix_identity_residual,
    r_matrix,
    transition,
    transition_images,
)
from elliptic_dpp.dpp_kernels import KernelSpec, density
from elliptic_dpp.macdonald import IllConditionedError, logdet
from elliptic_dpp.root_systems import FAMILIES, FamilySpec
from elliptic_dpp.theta_core import AccuracyError
from oracles import ck_det_residual

R = 1.0
# one family per wall behaviour: circ even, circ odd, ar, aa, rr
CIRC_EVEN, CIRC_ODD, AR, AA, RR = (FamilySpec(*f) for f in (
    ("A", 2, R), ("A", 3, R), ("B", 2, R), ("C", 2, R), ("D", 2, R)))
KINDS = (CIRC_EVEN, CIRC_ODD, AR, AA, RR)


def _kind_id(d):
    return d.walls + (d.parity or "")


def _random_config(rng, d, margin=0.02):
    pts = np.sort(rng.uniform(margin, 1.0 - margin, size=d.N)) * d.length
    return pts


# ---------------------------------------------------------------------------
# wall behaviour

def test_family_walls_mapping():
    walls = {tag: (FamilySpec(tag, 3, R).walls, FamilySpec(tag, 3, R).parity) for tag in FAMILIES}
    assert walls == {"A": ("circ", "odd"), "B": ("ar", None), "Cv": ("ar", None),
                     "BC": ("ar", None), "Bv": ("aa", None), "C": ("aa", None),
                     "D": ("rr", None)}
    assert FamilySpec("A", 4, R).parity == "even"


# ---------------------------------------------------------------------------
# transition kernels

def test_transition_rejects_bad_times():
    with pytest.raises(ValueError):
        transition(RR, 0.5, 0.1, 0.5, 0.2)
    with pytest.raises(ValueError):
        transition(RR, 0.7, 0.1, 0.5, 0.2)


def test_reflecting_kernel_conserves_mass():
    L = RR.length
    y = np.linspace(0.0, L, 513)
    w = np.full(513, L / 512)
    w[0] = w[-1] = 0.5 * L / 512
    mass = np.sum(w * transition(RR, 0.0, 0.7, 0.8, y))
    assert abs(mass - 1.0) < 1e-10


def test_circle_odd_kernel_conserves_mass():
    L = CIRC_ODD.length
    y = np.arange(512) * L / 512
    mass = np.sum(transition(CIRC_ODD, 0.0, 1.1, 0.6, y)) * L / 512
    assert abs(mass - 1.0) < 1e-10


def test_absorbing_walls_kill_kernel():
    assert transition(AA, 0.0, 1.0, 0.5, 0.0) == 0.0
    assert abs(transition(AA, 0.0, 1.0, 0.5, np.pi * R)) < 1e-15
    assert transition(AR, 0.0, 1.0, 0.5, 0.0) == 0.0
    # the ar kernel reflects at pi r, so mass survives there
    assert transition(AR, 0.0, 1.0, 0.5, np.pi * R) > 0.0


def test_circle_even_kernel_is_signed():
    # nearest winding image carries weight (-1): negative for |x-y| > pi r
    assert transition(CIRC_EVEN, 0.0, 0.0, 0.05, 0.9 * 2 * np.pi * R) < 0.0


@pytest.mark.parametrize("d", KINDS, ids=_kind_id)
def test_transition_matches_image_oracle(d):
    L = d.length
    worst = 0.0
    for dt_scale in (0.1, 1.0, 5.0):
        for x, y in [(0.1 * L, 0.8 * L), (0.45 * L, 0.5 * L), (0.9 * L, 0.2 * L)]:
            a = transition(d, 0.0, x, dt_scale * R * R, y)
            b = transition_images(d, 0.0, x, dt_scale * R * R, y, windings=12)
            worst = max(worst, abs(a - b))
    assert worst < 1e-11, f"{_kind_id(d)}: theta vs images {worst:.3e}"


# one family per boundary kind: A4 circ even, A3 circ odd, D rr, B ar, C aa
_KIND_FAMILIES = (("A", 4), ("A", 3), ("D", 3), ("B", 3), ("C", 3))


@pytest.mark.parametrize("tag,N", _KIND_FAMILIES)
@pytest.mark.parametrize("t,t_star", [(0.4, 1.0), (20.0, 50.0)])
def test_broadcast_transition_matches_scalar_rows(tag, N, t, t_star):
    # the one-call matrices against the per-row forms they replaced, bit for bit
    d = FamilySpec(tag, N, R)
    v = np.asarray(d.pinned)
    xs = _random_config(np.random.default_rng(37), d)
    L = d.length    # the 40-node Chapman-Kolmogorov grid
    y = np.arange(40) * (L / 40) if d.walls == "circ" else np.linspace(0.0, L, 41)
    pairs = [
        (bridges._pinned_matrix(d, t, xs),
         np.stack([transition(d, 0.0, vj, t, xs) for vj in d.pinned])),
        (transition(d, t, xs[:, None], t_star, v[None, :]),
         np.stack([transition(d, t, xj, t_star, v) for xj in xs])),
        (transition(d, 0.0, v[:, None], t_star, v[None, :]),
         np.stack([transition(d, 0.0, vj, t_star, v) for vj in d.pinned])),
        (transition(d, t, y[:, None], t_star, xs[None, :]),
         np.stack([transition(d, t, y, t_star, xj) for xj in xs], axis=1)),
    ]
    for batched, rows in pairs:
        assert batched.shape == rows.shape
        assert batched.tobytes() == rows.tobytes()
    # a scalar call rounds in Python complex arithmetic (x / L, where numpy's
    # complex division multiplies by 1 / L), so entry by entry it may sit
    # one unit in the last place off the array path
    np.testing.assert_array_max_ulp(
        transition(d, 0.0, xs[:, None], t, xs[None, :]),
        np.array([[transition(d, 0.0, a, t, b) for b in xs] for a in xs]),
        maxulp=1)


@pytest.mark.parametrize("d, idx, sign", [(AR, 2, -1.0), (AA, 3, -1.0), (RR, 3, 1.0)],
                         ids=["ar", "aa", "rr"])
def test_interval_transition_is_one_theta_call(d, idx, sign, monkeypatch):
    # the difference and image arguments share the call; the sum of the two
    # separate calls agrees to round-off
    real, calls = bridges.theta, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bridges, "theta", counted)
    L, P = d.length, 2.0 * np.pi * R
    tau = 1j * 0.3 / (2.0 * np.pi * R * R)
    x = np.linspace(0.05, 0.95, 7) * L
    for a, b in ((x[:, None], x[None, :]), (0.2 * L, 0.7 * L)):
        calls.clear()
        got = transition(d, 0.0, a, 0.3, b)
        assert len(calls) == 1
        two = np.real(real(idx, (a - b) / P, tau) + sign * real(idx, (a + b) / P, tau)) / P
        assert np.max(np.abs(got - two)) <= 1e-15 * np.max(np.abs(two))


def test_transition_images_tail_guard():
    # one winding cannot cover a very diffuse kernel
    with pytest.raises(AccuracyError):
        transition_images(RR, 0.0, 0.3, 50.0, 1.0, windings=1)
    with pytest.raises(ValueError):
        transition_images(RR, 0.0, 0.3, 0.5, 1.0, windings=0)


@pytest.mark.parametrize("tag", ["A", "C"])
@pytest.mark.parametrize("x, y", [(np.nan, 0.3), (0.3, np.inf), (-np.inf, 0.3)],
                         ids=["nan-x", "inf-y", "minus-inf-x"])
def test_transition_images_refuses_non_finite_points(tag, x, y):
    # a NaN point returned nan and y = inf asked to raise the windings; the
    # oracle's own check, sharing no code with `transition` or `FamilySpec`
    with pytest.raises(ValueError, match="^transition_images needs finite points"):
        transition_images(FamilySpec(tag, 3), 0.0, x, 1.0, y, 12)


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.05, 4.0))
@settings(max_examples=40, deadline=None)
def test_time_reversal_symmetry(x, y, dt):
    # p(0, x; dt, y) = p(u - dt, y; u, x)
    for d in (RR, CIRC_EVEN):
        a = transition(d, 0.0, x, dt, y)
        b = transition(d, 5.0 - dt, y, 5.0, x)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov

@pytest.mark.parametrize("d", KINDS, ids=_kind_id)
def test_chapman_kolmogorov(d):
    L = d.length
    res = ck_residual(d, 0.0, 0.3, 0.9, 0.31 * L, 0.77 * L)
    assert res < 1e-10, f"{_kind_id(d)}: CK residual {res:.3e}"


def test_chapman_kolmogorov_determinant_version():
    res = ck_det_residual(AA, 0.0, 0.4, 1.1, [0.8, 2.1], [0.5, 2.6])
    assert res < 1e-8
    res = ck_det_residual(CIRC_EVEN, 0.0, 0.4, 1.1, [0.8, 3.1], [0.5, 4.6])
    assert res < 1e-8


def test_ck_refuses_degenerate_gaps():
    # a gap of 5e-7 takes 6 667 nodes; 1e-8 would take 47 126, past the cap
    assert ck_residual(RR, 0.0, 5e-7, 1.0, 0.3, 0.7) <= 1e-10
    with pytest.raises(AccuracyError, match="midpoint rule needs 47126"):
        ck_residual(RR, 0.0, 1e-8, 1.0, 0.3, 0.7)
    with pytest.raises(ValueError):
        ck_residual(RR, 0.0, 0.9, 0.3, 0.3, 0.7)   # bad ordering
    # u = inf ended in numpy's "cannot convert float NaN to integer"
    for s, u in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="need s < t < u finite"):
            ck_residual(RR, s, 0.4, u, 0.3, 0.7)


def test_ck_resolves_a_narrow_kernel():
    # gaps (2e-7, 0.04) at r = 0.2: a fixed 512-node rule reads 6.6e-2 for
    # this true identity; the width rule takes 4 217
    d = FamilySpec("A", 2, 0.2)
    L = d.length
    assert ck_residual(d, 0.0, 2e-7, 0.04, 0.3 * L, 0.7 * L) <= 1e-10


# ---------------------------------------------------------------------------
# weight matrices

def test_r_matrix_rejects_bad_t():
    with pytest.raises(ValueError):
        r_matrix(FamilySpec("A", 3, 1.0), 0.0)


def test_r_matrix_entries_match_stated_forms():
    t = 0.7
    d = FamilySpec("D", 4, 1.0)
    rm = r_matrix(d, t)
    J = np.asarray(d.offsets)
    expect = (2 * np.pi * R / d.size) * np.exp(J * J * t / (2 * R * R))
    assert np.allclose(rm[:, 0], expect, rtol=1e-14)
    # C-type entries are purely imaginary (real sine over i)
    rmc = r_matrix(FamilySpec("C", 3, 1.0), t)
    assert np.max(np.abs(rmc.real)) < 1e-12 * np.max(np.abs(rmc.imag))
    # B-type last column carries half the generic prefactor
    dB = FamilySpec("B", 3, 1.0)
    rmb = r_matrix(dB, t)
    JB = np.asarray(dB.offsets)
    generic = (4 * np.pi * R / dB.size) * np.exp(JB ** 2 * t / (2 * R * R)) \
        * np.sin((dB.size - 2 * JB) * np.pi / 2)
    assert np.allclose(rmb[:, -1], 0.5 * generic, rtol=1e-14)


@given(st.floats(0.05, 2.0))
@settings(max_examples=30, deadline=None)
def test_r_matrix_entries_finite(t):
    for tag in FAMILIES:
        ent = r_matrix(FamilySpec(tag, 8, 1.0), t)
        assert np.all(np.isfinite(ent.view(float)))


@pytest.mark.parametrize("tag, N, r", [("A", 3, 0.02), ("C", 2, 0.05), ("D", 3, 0.05)])
def test_r_matrix_past_double_range_raises(tag, N, r):
    # e^{J^2 t / 2 r^2} overflows at small r: a named error, not inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="double range"):
            r_matrix(FamilySpec(tag, N, r), 1.0)
        with pytest.raises(AccuracyError, match="double range"):
            matrix_identity_residual(FamilySpec(tag, N, r), 1.0, np.linspace(0.1, 0.9, N) * r)


@pytest.mark.parametrize("tag", ["B", "Bv"])
def test_matrix_identity_with_M_underflowed_to_zero_raises(tag):
    # r(t) is finite (J = 0) but M underflows to 0: no 0/0 residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=r"M\(x, t\) at t=1.0 leaves double range"):
            matrix_identity_residual(FamilySpec(tag, 1, 0.01), 1.0, [0.01])


# ---------------------------------------------------------------------------
# matrix identity r(t) . P = M

@pytest.mark.parametrize("tag", FAMILIES)
def test_matrix_identity(tag):
    rng = np.random.default_rng(17)
    worst = 0.0
    for N in (2, 3, 4, 6):
        d = FamilySpec(tag, N, 1.0)
        for t in (0.2, 0.7, 1.5):
            xs = _random_config(rng, d)
            worst = max(worst, matrix_identity_residual(d, t, xs))
    assert worst < 1e-10, f"{tag}: worst residual {worst:.3e}"


def test_matrix_identity_sharp_kernels():
    rng = np.random.default_rng(5)
    for tag in ("A", "C", "D"):
        d = FamilySpec(tag, 4, 1.0)
        res = matrix_identity_residual(d, 0.05, _random_config(rng, d))
        assert res < 1e-8, f"{tag}: sharp residual {res:.3e}"


# ---------------------------------------------------------------------------
# bridge representation of the density

@pytest.mark.parametrize("tag", FAMILIES)
def test_bridge_density_equals_spectral_density(tag):
    rng = np.random.default_rng(23)
    worst = 0.0
    for N in (2, 3, 4):
        d = FamilySpec(tag, N, 1.0)
        ks = KernelSpec(d, t=0.4, t_star=1.0)
        for _ in range(3):
            xs = _random_config(rng, d)
            a = bridge_density(ks, xs)
            b = density(ks, xs)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    assert worst < 1e-8, f"{tag}: worst rel deviation {worst:.3e}"


def test_bridge_density_normalizes():
    d = FamilySpec("C", 2, 1.0)
    u, gw = np.polynomial.legendre.leggauss(32)
    x = 0.5 * d.length * (u + 1.0)
    w = 0.5 * d.length * gw
    ks, total = KernelSpec(d, 0.4, 1.0), 0.0
    for i in range(32):
        for j in range(32):
            total += w[i] * w[j] * bridge_density(ks, np.sort([x[i], x[j]]))
    assert abs(0.5 * total - 1.0) < 1e-8


def test_bridge_density_time_reversal():
    # pinned at the same configuration both ends: t and t* - t interchangeable
    d = FamilySpec("A", 3, 1.0)
    xs = np.array([0.9, 2.8, 4.4])
    assert abs(bridge_density(KernelSpec(d, 0.3, 1.0), xs)
               - bridge_density(KernelSpec(d, 0.7, 1.0), xs)) < 1e-12


@pytest.mark.parametrize("tag", FAMILIES)
def test_bridge_density_agrees_or_raises_at_large_horizons(tag):
    # the heat-kernel matrices approach rank one as t* grows; the bridge
    # route must then refuse (IllConditionedError) rather than return a
    # wrong or negative density, and at t* = 1 it must never refuse
    rng = np.random.default_rng(31)
    for N in (2, 3, 4):
        d = FamilySpec(tag, N, 1.0)
        for t_star in (1.0, 5.0, 20.0, 50.0):
            t = 0.4 * t_star
            xs, ks = _random_config(rng, d), KernelSpec(d, t=t, t_star=t_star)
            try:
                a = bridge_density(ks, xs)
            except IllConditionedError:
                assert t_star > 1.0, f"{tag}{N}: refused at t* = 1"
                continue
            b = density(ks, xs)
            assert abs(a - b) <= 1e-8 * abs(b), (
                f"{tag}{N} t*={t_star}: bridge {a:.6e} vs density {b:.6e}")


@pytest.mark.parametrize("m", [[[1.0, 0.5], [0.0, 0.0]], [[1.0, np.inf], [0.2, 1.0]],
                               [[1.0, np.nan], [0.2, 1.0]]])
def test_bridge_cond_of_zero_row_or_nonfinite_entry_is_inf(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="condition ~ inf"):
            logdet("bridge matrix P", np.array(m))


def test_bridge_density_validates_times():
    with pytest.raises(ValueError):
        bridge_density(KernelSpec(("A", 2, 1.0), 1.0, 1.0), [0.3, 0.9])


# ---------------------------------------------------------------------------
# Weyl denominator vs pinned-path determinant

@pytest.mark.parametrize("tag", FAMILIES)
def test_kmlgv_proportionality(tag):
    rng = np.random.default_rng(31)
    worst = 0.0
    for N in (1, 2, 3, 5):
        if tag == "D" and N < 2:
            continue
        d = FamilySpec(tag, N, 1.0)
        for t in (0.3, 1.0):
            xs = _random_config(rng, d)
            worst = max(worst, macdonald_kmlgv_residual(d, t, xs))
    assert worst < 1e-9, f"{tag}: worst residual {worst:.3e}"


def test_kmlgv_scalar_case():
    rng = np.random.default_rng(7)
    for tag in ("A", "B", "C"):
        d = FamilySpec(tag, 1, 1.0)
        res = macdonald_kmlgv_residual(d, 0.6, _random_config(rng, d))
        assert res < 1e-12, f"{tag}: N=1 residual {res:.3e}"


def test_eta_closed_form():
    for N in range(1, 7):
        res = eta_formula_residual(FamilySpec("A", N, 1.0), 0.8)
        assert res < 1e-10, f"A_{N}: eta-form residual {res:.3e}"
    with pytest.raises(ValueError):
        eta_formula_residual(FamilySpec("B", 3, 1.0), 0.8)

"""Biorthogonality tests: block structure, norms, Gram matrices.

The Gram matrices come two ways: the plain-double trapezoid oracle against
the closed-form norms (`oracles.gram_oracle`), and the production check, the
Gram matrix of the balanced kernel factors against I
(`verification.biortho_suite`)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elliptic_dpp import verification
from elliptic_dpp.biortho import m_fn_parts, norm_const_log, theta_block_parts
from elliptic_dpp.dpp_kernels import KernelSpec
from elliptic_dpp.macdonald import midpoint_nodes
from elliptic_dpp.root_systems import FAMILIES, FamilySpec
from elliptic_dpp.theta_core import parts_sum, parts_value, theta, theta_parts
from oracles import gram_oracle


def _block(shape, sigma, z, tau):
    return complex(parts_value(*theta_block_parts(shape, sigma, z, tau))[0])


def _norm(spec, j, t_star):
    return math.exp(norm_const_log(spec, t_star)[j - 1])


def _suite_passes(spec, t, t_star):
    """Production path: the Gram matrix of the balanced factors is I."""
    lines = verification.biortho_suite(KernelSpec(spec, t, t_star))
    return all(line.passed for line in lines), [line.residual for line in lines]


def test_m_fn_parts_scaled_coordinates():
    """Blocks at xi = x / (2 pi r) and tau_t = i t / (2 pi r^2), scaled by size."""
    d = FamilySpec("C", 3, 0.8)
    xs = np.array([0.0, 0.8 * math.pi, 2.0])
    m, s = m_fn_parts(d, xs, 0.3)
    size = d.size
    want = theta_block_parts("C", d.offsets[1] / size, size * xs / (2 * math.pi * 0.8),
                             size**2 * 0.3j / (2 * math.pi * 0.8**2))
    assert np.allclose(parts_value(m[1], s[1]), parts_value(*want), rtol=1e-14, atol=0.0)


def test_m_fn_parts_rejects_negative_time():
    with pytest.raises(ValueError, match=r"^m_fn_parts: radius r=1.0, duration -0.1: "):
        m_fn_parts(FamilySpec("A", 2, 1.0), [0.5], -0.1)
    with pytest.raises(ValueError, match=r"^m_fn_parts: radius r=1.0, duration -1e-300: "):
        m_fn_parts(FamilySpec("C", 3, 1.0), [0.5, 1.0], -1e-300)


def test_block_shapes_against_theta():
    """Blocks recombine plain theta values (moderate scale, direct check)."""
    tau = 0.7j
    sigma, z = 0.25, 0.4
    a = _block("A", sigma, z, tau)
    assert a == pytest.approx(
        np.exp(2j * np.pi * sigma * z) * theta(2, sigma * tau + z, tau)
    )
    for shape, idx, sign in (("B", 1, -1), ("C", 2, -1), ("D", 2, +1)):
        got = _block(shape, sigma, z, tau)
        want = np.exp(2j * np.pi * sigma * z) * theta(idx, sigma * tau + z, tau) + (
            sign * np.exp(-2j * np.pi * sigma * z) * theta(idx, sigma * tau - z, tau)
        )
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("tag", FAMILIES)
def test_value_structure_on_real_axis(tag):
    """Circle-family functions conjugate into x -> -x; interval families are
    real (B/Bv/D) or purely imaginary (C/Cv/BC) at real positions."""
    N = 2 if tag == "D" else 3
    spec = FamilySpec(tag, N, 1.3)
    xs = np.linspace(0.05, 2.9, 7)
    mirror = parts_value(*m_fn_parts(spec, -xs, 0.42))
    for vals, mirrored in zip(parts_value(*m_fn_parts(spec, xs, 0.42)), mirror):
        if tag == "A":
            assert np.allclose(np.conj(vals), mirrored, rtol=1e-12, atol=1e-14)
        elif tag in ("B", "Bv", "D"):
            assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals))
        else:
            assert np.max(np.abs(vals.real)) <= 1e-12 * np.max(np.abs(vals))


@pytest.mark.parametrize("tag", FAMILIES)
def test_parts_for_all_indices_stack_single_ones(tag):
    # the N functions from one call are, bit for bit, the building blocks of
    # one function each: a function's bits do not depend on the others
    d = FamilySpec(tag, 3, 0.8)
    xs = np.linspace(0.1, 2.0, 5)
    m, s = m_fn_parts(d, xs, 0.3)
    assert m.shape == s.shape == (3, 5)
    z, tau = d.size * (xs / (2.0 * np.pi * d.r)), d.tau(0.3, "test", 2)
    for j, J in enumerate(d.offsets):
        mj, sj = theta_block_parts(d.sharp, J / d.size, z, tau)
        assert np.array_equal(m[j], mj) and np.array_equal(s[j], sj)


@pytest.mark.parametrize("tag", [f for f in FAMILIES if f != "A"])
def test_interval_block_parts_equal_two_theta_calls(tag):
    # the stacked sigma tau +- z call gives the parts of the two separate
    # calls, bit for bit
    d = FamilySpec(tag, 3, 0.8)
    x, t = np.linspace(0.0, d.length, 37), 0.4
    m, s = m_fn_parts(d, x, t)
    size, r = d.size, d.r
    sigma = (np.asarray(d.offsets) / size)[:, None]
    z = (size * (x / (2.0 * np.pi * r))).astype(complex)
    tau = size * size * (1j * t / (2.0 * np.pi * r * r))
    idx, sign = (1 if d.sharp == "B" else 2), (1.0 if d.sharp == "D" else -1.0)
    m1, s1 = theta_parts(idx, sigma * tau + z, tau)
    m2, s2 = theta_parts(idx, sigma * tau - z, tau)
    e = 2j * np.pi * sigma * z
    want = parts_sum(np.multiply(m1, np.exp(1j * e.imag)), s1 + e.real,
                     sign * np.multiply(m2, np.exp(-1j * e.imag)), s2 - e.real)
    assert m.tobytes() == want[0].tobytes() and s.tobytes() == want[1].tobytes()


def test_parts_do_not_depend_on_call_size():
    # 6000 points and 3 functions make 18 000 values per call, past the
    # operand size (256 KiB) from which numpy reuses temporaries in place;
    # 1000 points make 3000, below it
    xs = np.linspace(0.1, 2.0, 6000)
    for tag in FAMILIES:
        spec = FamilySpec(tag, 3, 0.8)
        m, s = m_fn_parts(spec, xs, 0.3)
        mj, sj = m_fn_parts(spec, xs[:1000], 0.3)
        assert np.array_equal(m[:, :1000], mj) and np.array_equal(s[:, :1000], sj)


def test_norms_positive_and_doubled():
    """First (and for D also last) interval-family norms carry the factor 2."""
    t_star = 0.9
    for tag, N in (("B", 4), ("Bv", 4)):
        d = FamilySpec(tag, N, 1.0)
        base = 2 * np.pi * 1.0 * theta(
            2, 0.0, d.size**2 * 1j * t_star / (2 * np.pi)
        )
        assert _norm(d, 1, t_star) == pytest.approx(2 * base.real, rel=1e-13)
    dD = FamilySpec("D", 4, 1.0)
    mid = _norm(dD, 2, t_star)
    assert _norm(dD, 1, t_star) > 0
    assert _norm(dD, 4, t_star) > 0
    # doubling shows up only at the endpoints
    tau_t = 1j * t_star / (2 * np.pi)
    for j in (1, 4):
        base = theta(2, dD.size * dD.offsets[j - 1] * tau_t, dD.size**2 * tau_t)
        assert _norm(dD, j, t_star) == pytest.approx(
            4 * np.pi * base.real, rel=1e-13
        )
    assert mid == pytest.approx(
        2 * np.pi * theta(2, dD.size * 1 * tau_t, dD.size**2 * tau_t).real, rel=1e-13
    )


def test_norm_log_matches_value():
    # no doubled norm in Cv: m_j = 2 pi r theta_2(size sigma_j tau* | size^2 tau*)
    d = FamilySpec("Cv", 5, 1.1)
    tau_t = 1j * 0.7 / (2 * np.pi * 1.1**2)
    for j in (1, 3, 5):
        want = 2 * np.pi * 1.1 * theta(2, d.size * d.offsets[j - 1] * tau_t, d.size**2 * tau_t)
        assert _norm(d, j, 0.7) == pytest.approx(want.real, rel=1e-13)


@pytest.mark.parametrize("tag", FAMILIES)
def test_norm_log_array_j_matches_scalar_calls(tag):
    # the N logs from one theta call against the closed form of each norm
    # from a one-point theta call, bit for bit
    for N in range(2 if tag == "D" else 1, 5):
        d = FamilySpec(tag, N, 0.9)
        for t_star in (0.7, 50.0):
            logs = norm_const_log(d, t_star)
            tau_t, tau = d.tau(t_star, "test", 0), d.tau(t_star, "test", 2)
            for j, J in enumerate(d.offsets):
                m, s = theta_parts(2, d.size * np.array([J]) * tau_t, tau)
                mult = 2.0 if d.walls != "circ" and J in (0.0, d.size / 2) else 1.0
                one = np.log(2.0 * np.pi * d.r * np.array([mult]) * m.real) + s
                assert logs[j:j + 1].tobytes() == one.tobytes(), (N, t_star, j)


def test_gram_input_validation():
    d = FamilySpec("A", 3)
    with pytest.raises(ValueError):
        verification.biortho_suite(KernelSpec(d, 0.0, 1.0))  # t strictly inside (0, t_star)
    with pytest.raises(ValueError):
        verification.biortho_suite(KernelSpec(d, 1.0, 1.0))
    with pytest.raises(ValueError):
        verification.biortho_suite(KernelSpec(d, 0.5, -1.0))
    with pytest.raises(ValueError):
        gram_oracle(d, 1.0, 1.0)


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t_star", [0.5, 2.0])
def test_biorthogonality(tag, t_star):
    """oracle gram == diag(norms) to 1e-9, entries normalized by max(m_j, m_k);
    the balanced factors' Gram matrix is I to 1e-9."""
    for N in (2, 6):
        spec = FamilySpec(tag, N, 1.0)
        for frac in (0.2, 0.5, 0.8):
            g, norms = gram_oracle(spec, frac * t_star, t_star)
            resid = np.abs(g - np.diag(norms)) / np.maximum.outer(norms, norms)
            assert np.max(resid) <= 1e-9, (tag, N, t_star, frac, np.max(resid))
            # diagonals also match in the plain relative sense
            diag = np.real(np.diag(g))
            assert np.max(np.abs(diag - norms) / norms) <= 1e-9
            ok, resids = _suite_passes(spec, frac * t_star, t_star)
            assert ok, (tag, N, t_star, frac, resids)


@given(
    frac=st.floats(0.15, 0.85),
    t_star=st.floats(0.3, 2.5),
    r=st.floats(0.5, 2.0),
    tag=st.sampled_from(FAMILIES),
)
@settings(max_examples=25, deadline=None)
def test_biorthogonality_random_params(frac, t_star, r, tag):
    N = 3 if tag != "D" else 2
    spec = FamilySpec(tag, N, r)
    g, norms = gram_oracle(spec, frac * t_star, t_star)
    resid = np.abs(g - np.diag(norms)) / np.maximum.outer(norms, norms)
    assert np.max(resid) <= 1e-9
    ok, resids = _suite_passes(spec, frac * t_star, t_star)
    assert ok, resids


@pytest.mark.parametrize("t, t_star", [(0.4, 1.0), (20.0, 50.0), (1e-4, 1.0)])
def test_gram_nodes_are_enough(t, t_star):
    # the width rule's n and 2n nodes agree to 1e-11 for every family
    worst = 0.0
    for tag in FAMILIES:
        for N in (2, 3, 4):
            ks = KernelSpec((tag, N, 1.0), t=t, t_star=t_star)
            n = midpoint_nodes(ks.family, t, t_star, 1, 8192)
            g = verification._gram(ks, n)[2]
            worst = max(worst, float(np.max(np.abs(verification._gram(ks, 2 * n)[2] - g))))
    assert worst <= 1e-11


@pytest.mark.parametrize("t, t_star", [(0.4, 1.0), (2.0, 5.0)])
def test_nodes_are_enough_where_the_modes_set_them(t, t_star, monkeypatch):
    # at N = 8, 16 and r = 0.2 the N term is most of n (A16 at r = 0.2 takes
    # 16 + 4 nodes at (0.4, 1)); the Gram matrix, and the kernel suite's trace
    # and reproducing residuals, read the same at n and 2n to 1e-11
    gram = trace = repro = 0.0
    for tag in FAMILIES:
        for N in (8, 16):
            for r in (0.2, 3.0):
                ks = KernelSpec((tag, N, r), t=t, t_star=t_star)
                n = midpoint_nodes(ks.family, t, t_star, 1, 8192)
                g = verification._gram(ks, n)[2]
                gram = max(gram, float(np.max(np.abs(verification._gram(ks, 2 * n)[2] - g))))
                with monkeypatch.context() as m:
                    m.setattr(verification, "midpoint_nodes", lambda *a: 2 * midpoint_nodes(*a))
                    fine = verification._kernel_grid_residuals(ks)
                coarse = verification._kernel_grid_residuals(ks)
                assert max(coarse) <= 1e-9, f"{tag}{N} r={r}: {coarse}"
                trace = max(trace, abs(coarse[0] - fine[0]))
                repro = max(repro, abs(coarse[1] - fine[1]))
    assert max(gram, trace, repro) <= 1e-11, (gram, trace, repro)


def test_gram_resolves_a_small_time():
    # t = 3e-6 takes 5 445 nodes, under the cap of 8192
    ok, resids = _suite_passes(("A", 3, 1.0), 3e-6, 1.0)
    assert ok, resids


def test_gram_past_its_node_limit_reads_inf():
    # t = 1e-6 needs 9 428 nodes, past the cap: both lines read inf
    lines = verification.biortho_suite(KernelSpec(("A", 3, 1.0), 1e-6, 1.0))
    assert [(r.residual, r.passed) for r in lines] == [(np.inf, False)] * 2

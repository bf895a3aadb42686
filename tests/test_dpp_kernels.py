"""Determinantal kernel, density, limit-kernel, and sampler checks."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import zlib
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptic_dpp import dpp_kernels, macdonald
from elliptic_dpp.biortho import m_fn_parts, norm_const_log
from elliptic_dpp.bridges import bridge_density, macdonald_kmlgv_residual, matrix_identity_residual
from elliptic_dpp.dpp_kernels import (
    SAMPLER_BLOCKS,
    InfiniteKernelSpec,
    KernelSpec,
    bin_intensity,
    corr_det,
    density,
    density_batch,
    empirical_density,
    exact_sample,
    infinite_kernel,
    intensity,
    kernel,
    kernel_matrix,
    sine_kernel,
    trig_kernel,
)
from elliptic_dpp.macdonald import _product_parts, denominator_residual, selberg_check
from elliptic_dpp.root_systems import FAMILIES, FamilySpec
from elliptic_dpp.theta_core import AccuracyError, parts_sum, parts_value
from elliptic_dpp.verification import biortho_suite
from oracles import (UnsupportedScaleError, corr_oracle, density_mpmath, downdate_chain_rule,
                     fredholm_residual, inf_kernel_reference, pair_bin_masses)

ABSORBING = ("B", "Bv", "C", "Cv", "BC")   # left wall kills the density
T, T_STAR = 0.4, 1.0


def _ks(tag, N, r=1.0, t=T, t_star=T_STAR):
    return KernelSpec((tag, N, r), t=t, t_star=t_star)


def _random_rows(rng, d, B, margin=0.02):
    L = d.length
    X = rng.uniform(margin * L, (1.0 - margin) * L, size=(B, d.N))
    return np.sort(X, axis=1)


# ---------------------------------------------------------------------------
# spec validation

def test_subnormal_tau_raises_without_warnings():
    # r = 4e153: Im tau = t / (2 pi r^2) is subnormal; the kernel is refused
    # with a named error instead of [[0j]] after numpy overflow warnings, and
    # the refusal is KernelSpec's, through the family's tau rule
    with warnings.catch_warnings(), pytest.raises(
            ValueError, match=r"^KernelSpec: radius r=4e\+153, .*normal imaginary part"):
        warnings.simplefilter("error")
        KernelSpec(("A", 2, 4e153), t=0.5, t_star=1.0)


def test_tiny_radius_is_refused_by_name_without_warnings():
    # C3 at r = 1e-154: pi Im tau of the norms at t* = 1 leaves double range;
    # kernel_matrix and norm_const_log emitted "overflow encountered in
    # multiply" before the theta engine's anonymous refusal
    d = FamilySpec("C", 3, 1e-154)
    calls = [lambda: kernel_matrix(KernelSpec(d, 0.5, 1.0), [1e-154], [1e-154]),
             lambda: norm_const_log(d, 1.0)]
    for call in calls:
        with warnings.catch_warnings(), pytest.raises(
                ValueError, match=r"^norm_const_log: radius r=1e-154, duration 1.0: tau "):
            warnings.simplefilter("error")
            call()


def test_one_spec_evaluates_its_norms_once(monkeypatch, cpus):
    # the density, the kernel, its diagonal and the sampler of one KernelSpec
    # share one norm evaluation, ks.norms_log, the same bits as a direct call
    cpus(1)
    calls, norms = [], macdonald.norm_const_log

    def counted(*args):
        calls.append(args)
        return norms(*args)

    monkeypatch.setattr(macdonald, "norm_const_log", counted)
    ks = _ks("C", 3, t=0.3)
    xs = np.array([0.2, 0.5, 0.8]) * ks.family.length
    density(ks, xs)
    kernel_matrix(ks, xs, xs)
    intensity(ks, xs)
    exact_sample(ks, 64, seed=1)
    assert len(calls) == 1
    assert ks.norms_log.tobytes() == norm_const_log(ks.family, ks.t_star).tobytes()


def test_kernel_spec_validates_times():
    with pytest.raises(ValueError):
        KernelSpec(("A", 3, 1.0), t=1.0, t_star=1.0)
    with pytest.raises(ValueError):
        KernelSpec(("A", 3, 1.0), t=-0.1, t_star=1.0)
    ks = _ks("A", 3)
    assert ks.family.N == 3


@pytest.mark.parametrize("tag", FAMILIES)
def test_kernel_spec_accepts_every_family_form(tag):
    # a tuple and a FamilySpec give the same kernel bit for bit
    x = np.linspace(0.05, 0.95, 9) * FamilySpec(tag, 3, 1.3).length
    ref = kernel_matrix(KernelSpec((tag, 3, 1.3), t=T, t_star=T_STAR), x, x[::-1])
    for fam in (FamilySpec(tag, 3, 1.3), (tag, 3, 1.3)):
        ks = KernelSpec(fam, t=T, t_star=T_STAR)
        assert ks.family == FamilySpec(tag, 3, 1.3)
        assert np.array_equal(kernel_matrix(ks, x, x[::-1]), ref)


@pytest.mark.parametrize("family", ["A", None, ("A",), ("A", 3, 1.0, 2.0)],
                         ids=["bare-tag", "None", "1-tuple", "4-tuple"])
def test_kernel_spec_names_the_family_forms_it_takes(family):
    # these raised a TypeError from FamilySpec.__init__ that named neither
    # KernelSpec nor the forms it takes
    with pytest.raises(ValueError, match=r"^KernelSpec family must be a FamilySpec or a "
                                         r"\(tag, N\[, r\]\) tuple, got "):
        KernelSpec(family, 0.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda: KernelSpec(("C", 3, 1.0), t=0.4, t_star=np.inf),
    lambda: KernelSpec(("C", 3, 1.0), t=np.nan, t_star=1.0),
    lambda: selberg_check(KernelSpec(("C", 3, 1.0), 0.4, np.inf)),
    lambda: bridge_density(KernelSpec(("C", 3, 1.0), 0.4, np.inf), [0.5, 1.2, 2.0]),
], ids=["KernelSpec", "KernelSpec-nan", "selberg_check", "bridge_density"])
def test_time_pair_must_be_finite(call):
    # selberg_check at t* = inf ended in numpy's "cannot convert float NaN to
    # integer"; the one check of a time pair is KernelSpec's
    with pytest.raises(ValueError, match=r"need 0 < t < t_star < inf"):
        call()


def test_infinite_spec_validates():
    with pytest.raises(ValueError):
        InfiniteKernelSpec("BC", rho=1.0, t=0.5, t_star=1.0)
    with pytest.raises(ValueError):
        InfiniteKernelSpec("A", rho=-1.0, t=0.5, t_star=1.0)
    with pytest.raises(ValueError):
        InfiniteKernelSpec("A", rho=1.0, t=1.5, t_star=1.0)
    # t* = inf ended in the theta engine's "tau must be finite ... (nan+nanj)",
    # rho = 1e200 in a bare OverflowError; the time pair is KernelSpec's rule
    with pytest.raises(ValueError, match=r"need 0 < t < t_star < inf"):
        InfiniteKernelSpec("C", rho=1.0, t=0.5, t_star=np.inf)
    for rho in (1e200, np.inf):
        with pytest.raises(ValueError, match=r"^rho = .* too large"):
            InfiniteKernelSpec("A", rho=rho, t=0.5, t_star=1.0)
    # rho = 1e-200 and 1e-160 were accepted, and infinite_kernel then raised
    # the theta engine's "... got 0j" and "... got 3.142e-320j"
    for rho in (1e-200, 1e-160):
        with pytest.raises(ValueError, match=r"^rho = .* too small"):
            InfiniteKernelSpec("C", rho=rho, t=0.5, t_star=1.0)


# ---------------------------------------------------------------------------
# density

@pytest.mark.parametrize("tag", FAMILIES)
def test_density_nonnegative(tag):
    rng = np.random.default_rng(3)
    ks = _ks(tag, 4)
    vals = density_batch(ks, _random_rows(rng, ks.family, 200))
    assert vals.min() > -1e-12, f"{tag}: min density {vals.min():.3e}"


@pytest.mark.parametrize("tag", FAMILIES)
def test_density_zero_at_coincidence(tag):
    ks = _ks(tag, 3)
    L = ks.family.length
    assert density(ks, [0.2 * L, 0.2 * L, 0.7 * L]) == 0.0


@pytest.mark.parametrize("tag", ABSORBING)
def test_density_zero_on_absorbing_wall(tag):
    ks = _ks(tag, 3)
    L = ks.family.length
    assert density(ks, [0.0, 0.4 * L, 0.7 * L]) == 0.0


def test_density_positive_on_reflecting_wall():
    # both walls of the D family reflect, so the boundary keeps mass
    ks = _ks("D", 3)
    L = ks.family.length
    assert density(ks, [0.0, 0.4 * L, 0.7 * L]) > 0.0
    assert density(ks, [0.2 * L, 0.4 * L, L]) > 0.0


def test_density_accepts_alcove_configuration():
    # a configuration is a float array: a list, a tuple and an ndarray agree
    ks = _ks("B", 2)
    d, t = ks.family, ks.t
    pts = [0.8, 2.1]
    for fn in (lambda xs: density(ks, xs),
               lambda xs: denominator_residual(d, xs, t),
               lambda xs: matrix_identity_residual(d, t, xs),
               lambda xs: bridge_density(ks, xs),
               lambda xs: macdonald_kmlgv_residual(d, t, xs)):
        assert fn(pts) == fn(tuple(pts)) == fn(np.array(pts))


@pytest.mark.parametrize("tag, rows, bad", [
    ("C", [[0.5, 1.2]], 0),                          # 2 points for N = 3
    ("C", [[0.5, 1.2, 2.0, 2.5]], 0),                # 4 points
    ("C", [[0.5, 1.2, 2.0], [0.5, 1.2, 4.0]], 1),    # past the wall at pi
    ("C", [[0.5, 1.2, 2.0], [-0.1, 1.2, 2.0]], 1),
    ("A", [[0.5, 1.2, 2.0], [0.5, np.nan, 2.0]], 1),
    ("A", [[0.5, 1.2, 2.0], [0.5, np.inf, 2.0]], 1),
])
def test_density_refuses_a_row_off_the_domain(tag, rows, bad):
    # a wrong number of points, or a point outside [0, L] on an interval,
    # is an error naming the row, never a density
    ks = _ks(tag, 3)
    with pytest.raises(ValueError, match=f"density row {bad} must be N = 3 finite points"):
        density_batch(ks, rows)
    with pytest.raises(ValueError, match="density row 0 "):
        density(ks, rows[bad])


def test_density_on_the_circle_is_periodic():
    ks = _ks("A", 3)
    xs = np.array([0.5, 1.2, 2.0])
    shifted = xs + np.array([2.0, -1.0, 0.0]) * ks.family.length
    assert abs(density(ks, shifted) - density(ks, xs)) <= 1e-12 * density(ks, xs)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_density_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    ks = _ks("Cv", 3)
    row = _random_rows(rng, ks.family, 1)[0]
    shuffled = row[rng.permutation(3)]
    a, b = density(ks, row), density(ks, shuffled)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)


@pytest.mark.parametrize("tag", FAMILIES)
def test_density_normalizes_over_alcove(tag):
    # integrate p over the box and divide by 2!; Gauss-Legendre is spectral here
    ks = _ks(tag, 2)
    L = ks.family.length
    u, w = np.polynomial.legendre.leggauss(96)
    x = 0.5 * L * (u + 1.0)
    W = np.multiply.outer(0.5 * L * w, 0.5 * L * w)
    XX, YY = np.meshgrid(x, x, indexing="ij")
    rows = np.column_stack([XX.ravel(), YY.ravel()])
    vals = density_batch(ks, rows).reshape(96, 96)
    total = float(np.sum(vals * W)) / 2.0
    assert abs(total - 1.0) < 1e-9, f"{tag}: normalization {total:.12f}"


def _spread_row(rng, d):
    """One sorted configuration in [0.03 L, 0.97 L] with gaps above 0.01 L."""
    L = d.length
    while True:
        xs = np.sort(rng.uniform(0.03 * L, 0.97 * L, d.N))
        if np.min(np.diff(xs)) > 0.01 * L:
            return xs


@pytest.mark.parametrize("t", (0.01, 0.05, 0.4))
@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("tag", FAMILIES)
def test_density_matches_the_mpmath_determinant_route(tag, N, t):
    # the determinants M(t) of these rows cancel by up to ~70 digits at t = 0.01
    d = FamilySpec(tag, N, 1.0)
    xs = _spread_row(np.random.default_rng([17, FAMILIES.index(tag), N]), d)
    ref = float(density_mpmath(d, t, 1.0, xs))
    assert ref > 0.0
    assert abs(density(KernelSpec(d, t=t, t_star=1.0), xs) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("spec, xs", [
    # det M(t) cancels past plain doubles here (p ~ 9.4e-29): an LU reads 0
    (FamilySpec("A", 2, 1.0), [3.3999428699507845, 5.158019593340341]),
    # p ~ 2.5e-65; bridge_density passes its condition gate and is off by 1.1e-9
    # (row 0 of default_rng([2017, 1, 4]) in the spread-row draw above)
    (FamilySpec("B", 4, 1.0), [1.9085936330840534, 2.0738494004787547, 2.3735728043935787,
                               2.590792913283408]),
])
def test_density_matches_the_mpmath_route_where_doubles_lose_the_determinant(spec, xs):
    ref = float(density_mpmath(spec, 0.01, 1.0, xs))
    assert abs(density(KernelSpec(spec, t=0.01, t_star=1.0), xs) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("tag", FAMILIES)
def test_product_and_density_stay_finite_at_n16_small_time(tag):
    # at Im tau ~ 5e-4 a factor |tau|^{-1/2} ~ 45 in each of the 256 theta
    # mantissas of W would overflow their product
    d = FamilySpec(tag, 16, 1.0)
    ks = KernelSpec(d, t=1e-4, t_star=1.0)
    rng = np.random.default_rng(5)
    X = _random_rows(rng, d, 8, margin=0.03)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (ks.t, ks.t_star - ks.t):
            m, sc = _product_parts(d, X, s, "density")
            assert np.all(np.isfinite(m)) and np.all(np.isfinite(sc)), s
        assert np.all(np.isfinite(density_batch(ks, X)))
        # close to the pinned start the density is large (~1e24 for the intervals)
        near = np.asarray(d.pinned) + rng.uniform(0.05, 0.1, (4, 16)) * (d.length / d.size)
        p = density_batch(ks, np.minimum(near, 0.999 * d.length))
        assert np.all(np.isfinite(p)) and np.all(p > 0.0)


def _near_the_start(ks, spread=0.3):
    """The pinned start moved up by `spread` times the bridge's spread at t."""
    d = ks.family
    sigma = np.sqrt(ks.t * (ks.t_star - ks.t) / ks.t_star)
    return np.minimum(np.asarray(d.pinned) + spread * sigma, d.length)


def test_density_refuses_a_horizon_its_round_off_cannot_support(monkeypatch):
    # C3 at t* = 1e-12 read 4.4407e17 where det K reads 4.4380e17 (6.1e-4):
    # the theta scales, ~L^2/t each, are rounded apart; refused before any
    # theta is evaluated
    ks = KernelSpec(("C", 3, 1.0), 5e-13, 1e-12)
    monkeypatch.setattr(macdonald, "_product_parts", None)
    with pytest.raises(AccuracyError, match=r"^density at t = 5e-13, t\* - t = 5e-13, radius "
                                            r"r = 1\.0: its round-off .* = 0\.0133 is past 1e-08$"):
        density(ks, _near_the_start(ks))


@pytest.mark.parametrize("tag", FAMILIES)
def test_density_at_a_small_horizon_matches_the_kernel_determinant(tag):
    # t* = 1e-4 is inside the margin: p = det[K(x_i, x_j)] to the stated
    # 10 N eps r^2 / min(t, t* - t) = 1.3e-10 (measured <= 3.8e-11)
    ks = KernelSpec((tag, 3, 1.0), 5e-5, 1e-4)
    xs = _near_the_start(ks)
    p = density(ks, xs)
    assert abs(p / corr_det(ks, xs) - 1.0) <= 10 * 3 * np.finfo(float).eps / 5e-5


# ---------------------------------------------------------------------------
# kernel: trace, reproducing property, symmetry at the middle time

@pytest.mark.parametrize("tag", FAMILIES)
def test_kernel_trace_and_reproducing(tag):
    ks = _ks(tag, 4)
    L = ks.family.length
    n = 512
    x = np.arange(n) * (L / n) + L / (2 * n)
    km = kernel_matrix(ks, x, x)
    trace = np.sum(np.diag(km)).real * (L / n)
    assert abs(trace - 4.0) < 1e-9, f"{tag}: trace {trace:.12f}"
    # K composed with itself reproduces K
    comp = km @ km * (L / n)
    err = np.max(np.abs(comp - km)) / np.max(np.abs(km))
    assert err < 1e-9, f"{tag}: reproducing residual {err:.3e}"


def test_kernel_hermitian_at_middle_time():
    ks = _ks("BC", 3, t=0.5, t_star=1.0)
    x = np.array([0.3, 1.1, 1.9, 2.6])
    km = kernel_matrix(ks, x, x)
    assert np.max(np.abs(km - km.conj().T)) < 1e-12


def test_kernel_scalar_matches_matrix():
    ks = _ks("A", 3)
    km = kernel_matrix(ks, [0.7], [1.9])
    assert kernel(ks, 0.7, 1.9) == complex(km[0, 0])


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t", [0.3, 0.5], ids=["t!=t*/2", "t=t*/2"])
def test_kernel_broadcasts_like_every_kernel(tag, t):
    # like the limit kernels, kernel takes points that broadcast: scalars,
    # pairs, a grid and a (B, N, N) stack give the kernel_matrix entries of
    # their points bit for bit
    ks = _ks(tag, 3, t=t)
    L = ks.family.length
    xs, ys = np.linspace(0.02, 0.98, 7) * L, np.linspace(0.05, 0.95, 5) * L
    km = kernel_matrix(ks, xs, ys)
    one = kernel(ks, xs[2], ys[4])
    assert type(one) is complex and one == km[2, 4]
    pairs = km[np.arange(5), np.arange(5)]
    for got, want in ((kernel(ks, xs[:5], ys), pairs),
                      (kernel(ks, list(xs[:5]), list(ys)), pairs),
                      (kernel(ks, xs, ys[3]), km[:, 3]),
                      (kernel(ks, xs[:, None], ys[None, :]), km)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    X = _random_rows(np.random.default_rng(7), ks.family, 4)
    stack = kernel(ks, X[:, :, None], X[:, None, :])
    assert stack.shape == (4, 3, 3)
    for row, block in zip(X, stack):
        assert block.tobytes() == kernel_matrix(ks, row, row).tobytes()
    diag = intensity(ks, xs[3])
    assert type(diag) is float and diag == intensity(ks, xs)[3]


def _stream_kernel_matrix(ks, xs, ys):
    """Oracle: the mode sum streamed in (mantissa, log_scale) parts, each term
    M_n(x, t) conj M_n(y, t*-t) / m_n at its own scale -- no balanced factors."""
    d = ks.family
    N = d.N
    log_m = norm_const_log(d, ks.t_star)
    mx, sx = m_fn_parts(d, xs, ks.t)
    my, sy = m_fn_parts(d, ys, ks.t_star - ks.t)
    acc = np.zeros((xs.size, ys.size), dtype=complex)
    top = np.full((xs.size, ys.size), -np.inf)
    for n in range(N):
        acc, top = parts_sum(acc, top, mx[n, :, None] * np.conj(my[n])[None, :],
                             sx[n, :, None] + sy[n][None, :] - log_m[n])
    return parts_value(acc, top)


# from deep small time (Im tau ~ 1e-4 N^2) to t* = 1000, at and off t*/2
_TIME_SWEEP = ((1e-4, 1.0), (0.01, 1.0), (0.1, 1.0), (0.4, 1.0), (0.5, 1.0),
               (0.9, 1.0), (0.999, 1.0), (2.0, 5.0), (20.0, 50.0), (25.0, 50.0),
               (50.0, 100.0), (1.0, 1000.0), (500.0, 1000.0), (999.0, 1000.0))


def _theta_route_error(ks):
    """The theta route's own stated error, 10 eps max(1, max_n |log m_n|),
    relative to the largest factor or kernel value (`dpp_kernels._factors`)."""
    return 10.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(ks.norms_log))))


def _block_im_tau(d, s):
    return d.size**2 * s / (2.0 * np.pi * d.r**2)


@pytest.mark.parametrize("tag", FAMILIES)
def test_kernel_matrix_matches_parts_stream(tag):
    # balanced factors vs the parts stream over N and the time sweep, on a
    # grid with xs != ys and at single points; the factors stay moderate.
    # The theta route is held to 1e-11 of max|K| at every time.  The kernel
    # itself takes the mode series where a time's block has Im tau >= 1; the
    # stream is the theta route's parts, whose scales (~|log m_n|) cancel after
    # rounding, so there it is itself off by up to eps max|log m_n| (2.8e-11 at
    # t* = 1000, N = 16) and the kernel is held to 1e-11 or that, whichever is
    # larger.
    worst, worst_series, biggest = 0.0, 0.0, 0.0
    for N in (2, 4, 8, 16):
        for t, t_star in _TIME_SWEEP:
            ks = KernelSpec((tag, N, 1.0), t=t, t_star=t_star)
            L = ks.family.length
            xs = np.linspace(0.03, 0.97, 9) * L
            ys = np.linspace(0.01, 0.99, 7) * L
            ref = _stream_kernel_matrix(ks, xs, ys)
            scale = np.max(np.abs(ref))
            a, b = dpp_kernels._factors(ks, xs, ys, series=False)
            theta = dpp_kernels._kernel_sum(a[:, :, None], b[:, None])
            worst = max(worst, np.max(np.abs(theta - ref)) / scale)
            for i, j in ((0, 6), (4, 1), (8, 3)):
                one = dpp_kernels._kernel_sum(
                    *dpp_kernels._factors(ks, xs[i], ys[j], series=False))
                worst = max(worst, abs(complex(one[0]) - ref[i, j]) / scale)
            bound = 1e-11
            if max(_block_im_tau(ks.family, t), _block_im_tau(ks.family, t_star - t)) >= 1.0:
                bound = max(bound, _theta_route_error(ks))
            km = kernel_matrix(ks, xs, ys)
            err = np.max(np.abs(km - ref))
            for i, j in ((0, 6), (4, 1), (8, 3)):
                err = max(err, abs(kernel(ks, xs[i], ys[j]) - ref[i, j]))
            worst_series = max(worst_series, err / scale / bound)
            for f in dpp_kernels._factors(ks, xs, ys):
                assert np.all(np.isfinite(f)), f"{tag}{N} t={t} t*={t_star}"
                biggest = max(biggest, float(np.max(np.abs(f))))
    assert worst <= 1e-11, f"{tag}: kernel vs parts stream {worst:.3e} of max|K|"
    assert worst_series <= 1.0, f"{tag}: kernel vs parts stream {worst_series:.3e} of its bound"
    assert biggest < 1e3, f"{tag}: balanced factor reaches {biggest:.3e}"


@pytest.mark.parametrize("tag", FAMILIES)
def test_series_factors_match_the_theta_route(tag):
    # the mode series against the theta route wherever it is taken (the
    # block's Im tau >= 1), over N and the time sweep at 64 points with both
    # ends of the alcove, within the theta route's stated error of max|f|
    worst, cases = 0.0, 0
    for N in (1, 2, 3, 4, 8, 16):
        if tag == "D" and N < 2:
            continue
        for t, t_star in _TIME_SWEEP:
            ks = KernelSpec((tag, N, 1.0), t=t, t_star=t_star)
            xs = np.linspace(0.0, ks.family.length, 64)
            for s, ref in zip((t, t_star - t), dpp_kernels._factors(ks, xs, xs, series=False)):
                if _block_im_tau(ks.family, s) < 1.0:
                    continue
                f = dpp_kernels._series_factor(ks.family, xs, s, t_star)
                err = np.max(np.abs(f - ref)) / np.max(np.abs(ref)) / _theta_route_error(ks)
                worst, cases = max(worst, err), cases + 1
    assert cases >= 60
    assert worst <= 1.0, f"{tag}: series vs theta route {worst:.3g} of the bound"


@pytest.mark.parametrize("t, frame", [(0.39, "theta"), (0.4, "series")])
def test_factors_switch_frame_at_im_tau_one(t, frame):
    # A4: the block's Im tau = 16 t / (2 pi) is 0.993 at t = 0.39 and 1.019 at
    # 0.4; the series agrees with the theta route on both sides, and the
    # factors take it on the upper side only, at both times
    ks = KernelSpec(("A", 4, 1.0), t=t, t_star=2 * t)
    assert (_block_im_tau(ks.family, t) >= 1.0) == (frame == "series")
    xs = np.linspace(0.0, ks.family.length, 64)
    a, b = dpp_kernels._factors(ks, xs, xs)
    ref, _ = dpp_kernels._factors(ks, xs, xs, series=False)
    series = dpp_kernels._series_factor(ks.family, xs, t, 2 * t)
    assert b is a
    assert a.tobytes() == (series if frame == "series" else ref).tobytes()
    assert np.max(np.abs(series - ref)) <= _theta_route_error(ks) * np.max(np.abs(ref))


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t, t_star", [(0.3, 1.0), (20.0, 50.0), (25.0, 50.0)])
def test_kernel_grid_entries_equal_one_point_calls(tag, t, t_star):
    # an entry's rounding depends on its own two points only, off the middle
    # time and at a large horizon too (a BLAS product a.T @ b would not)
    ks = _ks(tag, 4, t=t, t_star=t_star)
    L = ks.family.length
    xs = np.linspace(0.02, 0.98, 8) * L
    ys = np.linspace(0.05, 0.95, 6) * L
    km = kernel_matrix(ks, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert kernel(ks, x, y) == km[i, j], f"{tag} entry ({i}, {j})"


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t, t_star", [(0.3, 1.0), (20.0, 50.0)])
def test_kernel_entries_do_not_depend_on_row_blocks(tag, t, t_star):
    # the mode sum runs in blocks of 64 rows: 130 rows cross two block
    # boundaries, and every entry still equals its one-point call bit for bit
    ks = _ks(tag, 4, t=t, t_star=t_star)
    L = ks.family.length
    xs = np.linspace(0.01, 0.99, 130) * L
    ys = np.linspace(0.05, 0.95, 5) * L
    for rows, cols in ((xs, ys), (xs[77:78], ys[2:3])):
        km = kernel_matrix(ks, rows, cols)
        assert km.shape == (rows.size, cols.size)
        for i, x in enumerate(rows):
            for j, y in enumerate(cols):
                assert kernel(ks, x, y) == km[i, j], f"{tag} entry ({i}, {j})"
    diag = np.diag(kernel_matrix(ks, xs, xs)).real
    assert intensity(ks, xs).tobytes() == diag.tobytes()


@pytest.mark.parametrize("tag", ["A", "C"])       # a circle and an interval family
@pytest.mark.parametrize("t", [0.3, 0.5], ids=["t!=t*/2", "t=t*/2"])
def test_kernel_row_blocks_are_rows_of_the_kernel_matrix(tag, t):
    # the writer asks for blocks of rows: at bounds that cross the mode sum's
    # 32-row blocks at odd offsets, each is the same doubles as those rows of
    # the whole matrix, and an empty block is empty
    ks = _ks(tag, 4, t=t)
    xs = (np.arange(517) + 0.5) * (ks.family.length / 517)
    km = kernel_matrix(ks, xs, xs)
    rows = dpp_kernels._kernel_rows(ks, xs, xs)
    for lo, hi in ((0, 1), (0, 517), (3, 36), (31, 97), (500, 517), (516, 517), (7, 7)):
        block = rows(lo, hi)
        assert block.shape == (hi - lo, 517)
        assert np.array_equal(block.view(np.int64), km[lo:hi].view(np.int64)), (lo, hi)


def test_kernel_rows_refuse_before_the_first_row():
    # the points and the factors' margin are checked when the row form is
    # made, not when its rows are asked for
    ks = _ks("C", 3)
    with pytest.raises(ValueError, match="kernel_matrix needs finite points"):
        dpp_kernels._kernel_rows(ks, np.array([0.5, 4.0]), np.array([0.5]))
    ks = KernelSpec(("C", 3, 1.0), t=5e15, t_star=1e16)
    with pytest.raises(AccuracyError, match="past the margin"):
        dpp_kernels._kernel_rows(ks, np.array([0.5]), np.array([0.5]))


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t", [0.3, 0.5])
def test_intensity_is_the_kernel_diagonal(tag, t):
    ks = _ks(tag, 4, t=t)
    xs = np.linspace(0.0, 1.0, 33) * ks.family.length
    diag = np.diag(kernel_matrix(ks, xs, xs)).real
    assert intensity(ks, xs).tobytes() == diag.tobytes()


# ---------------------------------------------------------------------------
# correlation functions: determinant route vs direct integration

@pytest.mark.parametrize("tag", ("A", "C", "D"))
@pytest.mark.parametrize("n", (1, 2))
def test_corr_det_matches_oracle(tag, n):
    ks = _ks(tag, 3)
    L = ks.family.length
    pts = np.array([0.31, 0.62])[:n] * L
    a = corr_det(ks, pts)
    b = corr_oracle(ks, pts)
    rel = abs(a - b) / max(abs(b), 1e-300)
    assert rel < 1e-6, f"{tag} n={n}: det {a:.9e} oracle {b:.9e} rel {rel:.3e}"


def test_corr_full_order_matches_density():
    # n = N: the correlation function IS the (symmetric) density value
    ks = _ks("B", 2)
    pts = np.array([0.9, 2.0])
    assert abs(corr_det(ks, pts) - density(ks, pts)) < 1e-12


def test_corr_oracle_refuses_big_N():
    with pytest.raises(UnsupportedScaleError):
        corr_oracle(_ks("A", 4), [0.5])


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t", [0.3, 0.5])
def test_corr_det_of_a_scalar_is_the_intensity(tag, t):
    # a scalar is a one-point set (numpy's sort raised AxisError on it), and
    # its determinant the 1 x 1 kernel's entry: intensity there, bit for bit
    ks = _ks(tag, 3, t=t)
    for x in (0.3, 0.71 * ks.family.length):
        assert corr_det(ks, x) == intensity(ks, [x])[0]


def test_corr_det_refuses_too_many_points():
    with pytest.raises(ValueError):
        corr_det(_ks("A", 2), [0.1, 0.2, 0.3])


@pytest.mark.parametrize("tag", ["A", "C"])
def test_corr_det_of_no_points_is_the_empty_determinant(tag):
    # raised numpy's "zero-size array to reduction operation maximum"
    assert corr_det(_ks(tag, 3), []) == 1.0


@pytest.mark.parametrize("eps, refused", [(1e-14, False), (1e-6, True)])
def test_corr_det_refuses_an_imaginary_residue(eps, refused, monkeypatch):
    # an imaginary part eps |K| on the diagonal puts ~eps tr K into Im det:
    # past 1e-10 relative it is an AccuracyError, below it the real part stands
    ks, pts = _ks("C", 3), np.array([0.9, 2.0])
    exact = corr_det(ks, pts)
    real = dpp_kernels.kernel_matrix

    def tilted(ks, xs, ys):
        km = real(ks, xs, ys)
        return km + 1j * eps * np.max(np.abs(km)) * np.eye(len(xs))

    monkeypatch.setattr(dpp_kernels, "kernel_matrix", tilted)
    if refused:
        with pytest.raises(AccuracyError, match="correlation determinant residue"):
            corr_det(ks, pts)
    else:
        assert abs(corr_det(ks, pts) - exact) <= 1e-12 * abs(exact)


@given(st.integers(0, 2 ** 32 - 1))
@example(292)
@example(686)
@example(972)
@example(2155)
@settings(max_examples=15, deadline=None)
def test_corr_det_point_order_invariant(seed):
    # these seeds' permutations gave a different LU pivot order before corr_det
    # sorted its points
    rng = np.random.default_rng(seed)
    ks = _ks("D", 4)
    pts = np.sort(rng.uniform(0.1, 0.9, size=3)) * ks.family.length
    a = corr_det(ks, pts)
    b = corr_det(ks, pts[rng.permutation(3)])
    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-300)


# ---------------------------------------------------------------------------
# homogeneous (trigonometric) limit

@pytest.mark.parametrize("tag", FAMILIES)
def test_finite_kernel_reaches_trig_limit(tag):
    # deep diffusive relaxation: t*/r^2 = 100 at the middle time
    ks = _ks(tag, 5, r=1.0, t=50.0, t_star=100.0)
    d = ks.family
    L = d.length
    xs = np.linspace(0.11, 0.93, 7) * L
    km = kernel_matrix(ks, xs, xs)
    worst = 0.0
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            worst = max(worst, abs(km[i, j] - trig_kernel(d, x, y)))
    scale = 5 / (2 * np.pi)  # kernel height ~ N / (2 pi r)
    assert worst / scale < 1e-6, f"{tag}: trig deviation {worst:.3e}"


def test_kernel_under_the_factor_margin_matches_the_trig_limit():
    # at r = 1 and t* = 1e6 .. 4e7 the trigonometric limit holds far below
    # double precision; at t = t*/2 both times take the mode series, whose
    # exponents cancel before rounding, so K is within a few eps of the limit's
    # height (through the theta route BC2 read 2.4e-8 at t* = 1e7: its scales,
    # ~|log m_n|, cancelled after rounding), and the horizon is under the
    # margin the factors accept
    cases = [(tag, N, t_star) for tag in FAMILIES for N in (2, 3) for t_star in (1e6, 1e7)]
    for tag, N, t_star in cases + [("A", 2, 4e7)]:
        ks = _ks(tag, N, t=t_star / 2, t_star=t_star)
        assert np.finfo(float).eps * np.max(np.abs(ks.norms_log)) <= dpp_kernels._FACTOR_MARGIN
        xs = np.linspace(0.11, 0.93, 7) * ks.family.length
        dev = np.abs(kernel_matrix(ks, xs, xs) - trig_kernel(ks.family, xs[:, None], xs))
        assert np.max(dev) / (N / (2 * np.pi)) <= 1e-14, (tag, N, t_star)


def test_every_user_of_the_factors_refuses_past_the_margin():
    # C3 at t* = 1e8: eps max|log m_n| = 8.9e-8, past the 1e-8 margin, for
    # the kernel, K(x, x), the Gram check (its lines read inf) and the sampler
    ks = _ks("C", 3, t=5e7, t_star=1e8)
    xs = np.array([0.5, 1.5])
    for call in (lambda: kernel_matrix(ks, xs, xs), lambda: intensity(ks, xs),
                 lambda: exact_sample(ks, 4)):
        with pytest.raises(AccuracyError, match=r"^kernel factors at horizon t\* = 100000000.0"):
            call()
    lines = biortho_suite(ks)
    assert [line.residual for line in lines] == [np.inf, np.inf]


def test_trig_kernel_shared_table():
    # B, BC and Cv share one reduced form; C and Bv share another
    d1 = [FamilySpec(t, 4, 1.0) for t in ("B", "BC", "Cv")]
    d2 = [FamilySpec(t, 4, 1.0) for t in ("C", "Bv")]
    for x, y in [(0.4, 0.9), (1.3, 0.2), (2.0, 2.8)]:
        v1 = {trig_kernel(d, x, y) for d in d1}
        v2 = {trig_kernel(d, x, y) for d in d2}
        assert max(v1) - min(v1) < 1e-14
        assert max(v2) - min(v2) < 1e-14


def test_trig_kernel_translation_invariance_circle():
    d = FamilySpec("A", 5, 1.0)
    assert abs(trig_kernel(d, 1.1, 0.3) - trig_kernel(d, 1.1 + 0.7, 0.3 + 0.7)) < 1e-13


def test_trig_kernel_diagonal_is_mean_density():
    d = FamilySpec("A", 6, 1.0)
    assert abs(trig_kernel(d, 0.8, 0.8) - 6 / (2 * np.pi)) < 1e-13


def test_trig_kernel_removable_singularity():
    # values just off the diagonal must agree with the limit on it
    d = FamilySpec("C", 4, 1.0)
    on = trig_kernel(d, 0.7, 0.7)
    near = trig_kernel(d, 0.7, 0.7 + 1e-9)
    assert abs(on - near) < 1e-6


@pytest.mark.parametrize("c", [1, 4, 9, 33])
def test_sin_ratio_matches_mpmath_down_to_subnormal_arguments(c):
    # the plain ratio wherever the reduced argument is not tiny, its limit c
    # below 1e-150; a subnormal argument never divides
    import mpmath
    v = np.array([0.3, -2.1, 1e-3, -1e-8, 1e-100, 2e-150, 1e-151, 5e-324, 0.0,
                  np.pi + 1e-9, -3 * np.pi + 1e-3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dpp_kernels._sin_ratio(c, v)
    for x, g in zip(v, got):
        k = round(x / np.pi)
        x0 = mpmath.mpf(float(x - k * np.pi))       # the reduction the function makes
        with mpmath.workdps(40):
            ref = (-1) ** (k * (c + 1)) * (c if x0 == 0 else mpmath.sin(c * x0) / mpmath.sin(x0))
        assert abs(g - ref) <= 1e-14 * c, (x, g, ref)
    assert list(got[6:9]) == [c, c, c]


# ---------------------------------------------------------------------------
# sine-kernel forms

def test_sine_kernel_identities():
    rho = 1.3
    assert abs(sine_kernel("A", 0.4, 0.4, rho) - rho) < 1e-14
    assert sine_kernel("C", 0.0, 0.8, rho) == 0.0    # absorbing image kills x = 0
    # D minus C is twice the image term
    x, y = 0.9, 0.4
    img = rho * np.sinc(rho * (x + y))
    assert abs((sine_kernel("D", x, y, rho) - sine_kernel("C", x, y, rho)) - 2 * img) < 1e-14
    with pytest.raises(ValueError):
        sine_kernel("B", 0.1, 0.2, rho)


@pytest.mark.parametrize("fam, x, y, rho", [
    ("C", np.nan, 0.1, 1.0),            # read nan
    ("A", 0.2, np.inf, 1.0),
    ("D", [0.2, 0.3], [0.1, np.nan], 1.0),
    ("A", 0.2, 0.1, np.inf),            # read nan after a RuntimeWarning
    ("A", 0.2, 0.1, np.nan),
    ("C", 0.2, 0.1, 0.0),
])
def test_sine_kernel_refuses_nonfinite_points_and_bad_rho(fam, x, y, rho):
    with pytest.raises(ValueError, match=r"^sine_kernel needs"):
        sine_kernel(fam, x, y, rho)


def test_sine_kernel_chgue_bessel_form():
    # at rho = 2/pi the reflected sine kernels are the nu = +-1/2 hard-edge forms,
    # with mpmath's Bessel functions J_nu and J_nu'
    def bessel_form(nu, x, y):
        def jv(z, derivative=0):
            return float(mpmath.besselj(nu, z, derivative=derivative))

        return (2.0 * np.sqrt(x * y) / (x * x - y * y)) * (
            jv(2 * x) * y * jv(2 * y, 1) - jv(2 * y) * x * jv(2 * x, 1))

    rho = 2.0 / np.pi
    for x, y in [(0.5, 0.3), (1.7, 0.4), (2.5, 2.0), (0.9, 0.85)]:
        assert abs(sine_kernel("C", x, y, rho) - bessel_form(0.5, x, y)) < 1e-12
        assert abs(sine_kernel("D", x, y, rho) - bessel_form(-0.5, x, y)) < 1e-12


# ---------------------------------------------------------------------------
# infinite-volume kernels

def test_infinite_kernel_matches_large_finite_circle():
    rho = 1.0
    N = 64
    r = N / (2 * np.pi * rho)
    ks = KernelSpec(("A", N, r), t=0.5, t_star=1.0)
    iks = InfiniteKernelSpec("A", rho=rho, t=0.5, t_star=1.0)
    x0 = 0.3 * 2 * np.pi * r
    worst = 0.0
    for dx in (0.1, 0.5, 1.0, 2.0):
        worst = max(worst, abs(kernel(ks, x0 + dx, x0) - infinite_kernel(iks, x0 + dx, x0)))
    assert worst / rho < 1e-10, f"finite vs infinite deviation {worst:.3e}"


def test_infinite_spec_forms_its_taus_after_scaling_the_times():
    # 2 pi i t overflowed before rho^2 scaled it down: this spec (horizon
    # t* rho^2 = 200, tau ~ 628i) read "rho = 1.5e-153 too large ... (nan+infj)"
    iks = InfiniteKernelSpec("C", 1.5e-153, 4.44e307, 8.9e307)
    assert [tau.imag for tau in iks.taus] == pytest.approx(
        [2.0 * np.pi * (s * 1.5e-153**2) for s in (4.44e307, 8.9e307 - 4.44e307, 8.9e307)],
        rel=1e-14)
    # at rho = 1 each tau is 2 pi i s, rounded once
    assert InfiniteKernelSpec("A", 1.0, 0.3, 1.0).taus == (2j * np.pi * 0.3,
                                                          2j * np.pi * (1.0 - 0.3), 2j * np.pi)


@pytest.mark.parametrize("fam", ["A", "C"])
@pytest.mark.parametrize("horizon", [50.0, 200.0])
def test_infinite_kernel_scales_with_rho(fam, horizon):
    # K_rho(x, y; t, t*) = rho K_1(rho x, rho y; t rho^2, t* rho^2): the
    # lambda = rho mu substitution; at t = t*/2 and rho = 1.5e-153 the times
    # reach 8.9e307 (horizon 200), where 2 pi t alone overflows
    rho = 1.5e-153
    t_star = horizon / rho**2
    x, y = np.array([0.3, 1.3, 2.2]), np.array([0.3, 0.6, 0.9])
    small = infinite_kernel(InfiniteKernelSpec(fam, rho, 0.5 * t_star, t_star), x / rho, y / rho)
    unit = infinite_kernel(InfiniteKernelSpec(fam, 1.0, 0.5 * horizon, horizon), x, y)
    assert np.max(np.abs(small - rho * unit)) <= 1e-9 * rho


def test_infinite_kernel_wall_zero():
    iks = InfiniteKernelSpec("B", rho=1.0, t=0.5, t_star=1.0)
    assert abs(infinite_kernel(iks, 0.0, 0.7)) < 1e-13


def test_infinite_kernel_rejects_negative_halfline():
    iks = InfiniteKernelSpec("C", rho=1.0, t=0.5, t_star=1.0)
    with pytest.raises(ValueError):
        infinite_kernel(iks, -0.3, 0.5)


@pytest.mark.parametrize("fam", ["A", "C"])
@pytest.mark.parametrize("x, y", [(np.nan, 0.3), (0.3, np.inf), ([0.2, np.nan], 0.3)],
                         ids=["nan-x", "inf-y", "nan-in-array"])
def test_infinite_kernel_refuses_non_finite_points(fam, x, y):
    # a NaN reached the theta engine, whose "theta argument must be finite"
    # named neither the function nor the point
    iks = InfiniteKernelSpec(fam, rho=1.0, t=0.5, t_star=1.0)
    with pytest.raises(ValueError, match="^infinite_kernel needs finite x and y"):
        infinite_kernel(iks, x, y)


def _inf_quad_per_panel(iks, x, y, nodes):
    # one integrand call per panel of the same mesh
    edges = dpp_kernels._inf_panels(iks)
    acc, top = 0.0 + 0.0j, -np.inf
    for lo, hi in zip(edges[:-1], edges[1:]):
        lam, w = dpp_kernels._gl_nodes(nodes, lo, hi)
        mant, sc = dpp_kernels._inf_integrand(iks, x, y, lam)
        peak = float(sc.max())
        acc, top = parts_sum(acc, top, np.sum(parts_value(w * mant, sc - peak)), peak)
    return parts_value(acc, top)


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
@pytest.mark.parametrize("horizon", [50.0, 300000.0])
def test_inf_quad_one_call_matches_per_panel_loop(fam, horizon):
    iks = InfiniteKernelSpec(fam, rho=1.0, t=horizon / 2, t_star=horizon)
    for x, y in ((0.3, 0.3), (1.3, 0.6), (2.2, 0.9)):
        for nodes in (8, 24, 48):
            one = dpp_kernels._inf_quad(iks, x, y, nodes)
            assert np.array(one).tobytes() == np.array(
                _inf_quad_per_panel(iks, x, y, nodes)).tobytes()


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_inf_panels_grow_fourfold_from_the_switch_points(fam):
    # first panel half the narrowest switch layer 1/(4 pi^2 rho t*), each next
    # 4 times as far out, up to rho/2 (A, mirrored onto rho) or rho (B-D,
    # mirrored onto -rho); 624 (A) or 672 (B-D) nodes at t* rho^2 = 3e5
    for rho in (1e-3, 1.0, 1e3):
        iks = InfiniteKernelSpec(fam, rho=rho, t=0.1 * 3e5 / rho**2, t_star=3e5 / rho**2)
        edges = dpp_kernels._inf_panels(iks)
        assert np.all(np.diff(edges) > 0.0)
        lo = 0.0 if fam == "A" else -rho
        half = 0.5 * rho if fam == "A" else rho
        assert edges[0] == lo and edges[-1] == lo + 2 * half
        assert edges[::-1] == pytest.approx(2 * (lo + half) - edges, rel=0, abs=1e-15 * rho)
        out = edges[(edges >= 0.0) & (edges <= half)]
        h = 1.0 / (8.0 * np.pi**2 * rho * iks.t_star)
        assert out[:3] == pytest.approx([0.0, h, 4 * h], rel=1e-12)
        assert out[2:-1] / out[1:-2] == pytest.approx(4.0, rel=1e-12)
        assert out[-1] == half and out[-2] * 4 >= half
        assert 24 * (len(edges) - 1) == (624 if fam == "A" else 672)


_RULE_PAIRS = ((0.3, 0.3), (1.3, 0.6), (2.2, 0.9))


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
@pytest.mark.parametrize("frac", [0.1, 0.9])
def test_infinite_kernel_off_mid_time_matches_a_reference_mesh(fam, frac):
    # away from mid-time at a long horizon the integrand's switch layers have
    # three widths; the reference is 32 768 Gauss-Legendre nodes on four
    # panels of its own
    iks = InfiniteKernelSpec(fam, rho=1.0, t=frac * 3e5, t_star=3e5)
    x, y = np.array(_RULE_PAIRS).T
    ref = inf_kernel_reference(iks, x, y)
    assert np.max(np.abs(infinite_kernel(iks, x, y) - ref)) <= 1e-10


def _rule_bound(iks):
    # the error bound `infinite_kernel` states
    horizon = iks.t_star * iks.rho * iks.rho
    lost = 0.0 if iks.t_star - iks.t == iks.t else 3.0 * np.finfo(float).eps * horizon
    return (1e-12 + lost) * iks.rho


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_infinite_kernel_is_within_its_bound_of_a_finer_rule(fam):
    # the same mesh at 48 nodes a panel
    worst = 0.0
    for rho in (1e-3, 1.0, 1e3):
        for horizon in (0.5, 1.0, 50.0, 800.0, 3e5):
            for frac in (0.1, 0.5, 0.9):
                iks = InfiniteKernelSpec(fam, rho, frac * horizon / rho**2, horizon / rho**2)
                x, y = np.array(_RULE_PAIRS).T / rho
                finer = dpp_kernels._inf_quad(iks, x, y, 48)
                dev = np.max(np.abs(infinite_kernel(iks, x, y) - finer))
                assert dev <= _rule_bound(iks), (rho, horizon, frac, dev)
                worst = max(worst, dev / rho)
    assert worst <= 1e-10


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_infinite_kernel_refuses_off_mid_time_past_its_horizon(fam):
    for rho in (1e-3, 1.0):
        for frac in (0.1, 0.9):
            iks = InfiniteKernelSpec(fam, rho, frac * 1e8 / rho**2, 1e8 / rho**2)
            with pytest.raises(AccuracyError, match=r"^infinite kernel at horizon "
                                                    r"t\*rho\^2 = 1e\+08 and t != t\*/2"):
                infinite_kernel(iks, 0.3 / rho, 0.3 / rho)
    # at 1.5e6 the round-off bound is still inside 1e-9, and t = t*/2 is
    # taken at every horizon
    iks = InfiniteKernelSpec(fam, 1.0, 0.1 * 1.5e6, 1.5e6)
    assert np.isfinite(infinite_kernel(iks, 0.3, 0.3))
    iks = InfiniteKernelSpec(fam, 1.0, 0.5e8, 1e8)
    x, y = np.array(_RULE_PAIRS).T
    finer = dpp_kernels._inf_quad(iks, x, y, 48)
    assert np.max(np.abs(infinite_kernel(iks, x, y) - finer)) <= 1e-12


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
@pytest.mark.parametrize("horizon", [50.0, 300000.0])
def test_infinite_kernel_pairs_share_one_rule(fam, horizon):
    # each pair's value is the one-pair call's, bit for bit
    iks = InfiniteKernelSpec(fam, rho=1.0, t=horizon / 2, t_star=horizon)
    xs = np.array([0.3, 1.3, 2.2, 0.0, 4.0, 7.5, 12.0])
    ys = np.array([0.3, 0.6, 0.9, 0.7, 0.1, 3.0, 0.5])
    batch = infinite_kernel(iks, xs, ys)
    assert batch.shape == xs.shape
    for x, y, k in zip(xs, ys, batch):
        assert np.array(infinite_kernel(iks, x, y)).tobytes() == np.array(k).tobytes()
    # broadcasting: one y for all x, and a 2-d grid
    row = infinite_kernel(iks, xs, 0.6)
    assert row[1].tobytes() == batch[1].tobytes()
    grid = infinite_kernel(iks, xs[:, None], ys[None, :])
    assert grid.shape == (7, 7)
    assert np.diag(grid).tobytes() == batch.tobytes()


@pytest.mark.parametrize("fam,sfam", [("A", "A"), ("B", "C"), ("C", "C"), ("D", "D")])
def test_infinite_kernel_sine_convergence_law(fam, sfam):
    """Deviation from the sine kernel falls off as 1/(t* rho^2).

    The pinned-horizon figure (t* rho^2 = 50) sits at ~3e-3 for these
    kernels, so the check here is the law itself: deviation times horizon
    stays constant as the horizon quadruples twice.
    """
    pts = [(0.3, 0.3), (1.3, 0.6), (2.2, 0.9)]
    scaled = []
    for ts in (50.0, 200.0, 800.0):
        iks = InfiniteKernelSpec(fam, rho=1.0, t=ts / 2, t_star=ts)
        dev = max(abs(infinite_kernel(iks, x, y) - sine_kernel(sfam, x, y, 1.0))
                  for x, y in pts)
        scaled.append(dev * ts)
    spread = (max(scaled) - min(scaled)) / max(scaled)
    assert spread < 0.02, f"{fam}: scaled deviations {scaled} spread {spread:.3f}"


# ---------------------------------------------------------------------------
# moment generating functional: direct integral vs kernel expansion

@pytest.mark.parametrize("tag,N", [("A", 2), ("B", 2), ("C", 1), ("D", 2), ("BC", 2)])
def test_fredholm_consistency(tag, N):
    ks = _ks(tag, N)
    assert fredholm_residual(ks, "bump", 0.0) < 1e-12
    assert fredholm_residual(ks, "zero", 0.7) < 1e-12
    assert fredholm_residual(ks, "bump", 0.3) < 1e-10
    assert fredholm_residual(ks, "hann", -0.5) < 1e-10


def test_fredholm_refuses_big_N():
    with pytest.raises(UnsupportedScaleError):
        fredholm_residual(_ks("A", 3), "bump", 0.1)


def test_fredholm_unknown_test_fn():
    with pytest.raises(ValueError):
        fredholm_residual(_ks("A", 2), "spike", 0.1)


# ---------------------------------------------------------------------------
# sampler

def test_exact_sample_deterministic_for_fixed_seed_any_chunk(monkeypatch):
    ks = _ks("A", 3)
    a = exact_sample(ks, 300, seed=5)
    runs = []
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(dpp_kernels, "_CHUNK", chunk)
        runs.append(exact_sample(ks, 300, seed=5))
    for b in runs:
        assert a.positions.tobytes() == b.positions.tobytes()
        assert np.array_equal(a.block_ids, b.block_ids)
        assert a.tabulation_error == b.tabulation_error


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("N", [2, 4, 16])
def test_stacked_table_products_match_elementwise_loop(tag, N):
    # the per-row products of `_chain_rule_chunk` on the sampler's own tables,
    # with random stand-ins for Q: a descent level's dot products with the
    # gathered tree rows, Re sum_ij Q_ij S_ij, and the leaf scan
    # Re a(x_g)^T Q c(x_g), read from the rows W (N <= 8) or the factors,
    # within 1e-14 of a loop over the entries (relative to the sum of the
    # terms' moduli), and each row bit for bit the same whatever R
    ks = _ks(tag, N, t=0.5)
    rng = np.random.default_rng(zlib.crc32(f"{tag}{N}".encode()))
    Q = rng.standard_normal((64, N, N)) + 1j * rng.standard_normal((64, N, N))
    q = Q.view(float).reshape(64, -1)
    for nodes in (513, 4097):
        _, A, C, W, tree, _ = dpp_kernels._tables(ks, nodes)
        assert (W is None) == (N > dpp_kernels._ROW_MAX_N)
        leaf = (nodes - 1) // tree.shape[0]
        node = rng.integers(0, tree.shape[0], 64)
        at = rng.integers(0, tree.shape[0], 64)[:, None] * leaf + np.arange(leaf + 1)
        S = np.conj(tree.view(complex).reshape(-1, N, N))[node]
        terms = [(Q[:, i, j] * S[:, i, j], A[at, i] * Q[:, i, j, None] * C[at, j])
                 for i in range(N) for j in range(N)]

        def products(R):
            scan = (np.einsum("rgi,rgi->rg", np.matmul(A[at[:R]], Q[:R]), C[at[:R]]).real
                    if W is None else np.einsum("rk,rgk->rg", q[:R], W[at[:R]]))
            return np.einsum("rk,rk->r", q[:R], tree[node[:R]]), scan

        for got, part in zip(products(64), zip(*terms)):
            ref = sum(part).real
            scale = sum(np.abs(p) for p in part)    # 0 at an absorbing wall's node
            assert np.all(np.abs(got - ref) <= 1e-14 * scale), f"{tag}{N} at {nodes} nodes"
        for R in (1, 3, 7, 33):
            assert all(a.tobytes() == b[:R].tobytes()
                       for a, b in zip(products(R), products(64))), R


@pytest.mark.parametrize("tag", ["A", "C"])
@pytest.mark.parametrize("N", [2, 4, 16])
@pytest.mark.parametrize("t", [0.5, 0.3])
def test_tree_masses_and_bound_match_the_downdated_table(tag, N, t):
    # the chain rule on the downdated table of the conditional intensity F
    # (`oracles.downdate_chain_rule`), at t = t*/2 and off it: before every
    # draw, each mass the tree stores (the root and every left child) is the
    # trapezoid sum of F over its cells to 1e-12 of the total and the
    # curvature bound is at least F's second-difference sum; the drawn rows
    # carry a bound at least the table's estimate and move by round-off only
    ks = KernelSpec((tag, N, 1.0), t=t, t_star=1.0)
    xs, A, C, W, tree, curv = dpp_kernels._tables(ks, dpp_kernels.SAMPLER_NODES)
    U = np.random.default_rng(zlib.crc32(f"{tag}{N}{t}".encode())).random((16, N))
    ref_pos, ref_tv, steps = downdate_chain_rule(ks, U, xs, A, C)
    pos, tv = dpp_kernels._chain_rule_chunk(ks, U, xs, A, C, W, tree, curv)
    leaves = tree.shape[0]
    heap = np.r_[1, 2 * np.arange(1, leaves)]               # the node each entry holds
    depth = np.floor(np.log2(heap)).astype(int)
    width = (xs.size - 1) >> depth                          # cells under the node
    lo = (heap - 2**depth) * width
    for k, (F, Q) in enumerate(steps):
        cum = np.concatenate([np.zeros((16, 1)), np.cumsum(F[:, :-1] + F[:, 1:], axis=1)], axis=1)
        ref = cum[:, lo + width] - cum[:, lo]
        got = np.einsum("rk,nk->rn", Q.view(float).reshape(16, -1), tree)
        worst = np.max(np.abs(got - ref) / cum[:, -1:])
        assert worst <= 1e-12, f"{tag}{N} t={t} draw {k}: {worst:.2e}"
        # at the first draw Q = I, and where the diagonal W_ii all bend the
        # same way the two agree up to round-off
        bound = np.einsum("rij,ij->r", np.abs(Q), curv)
        assert np.all(bound >= (1.0 - 1e-12) * np.abs(np.diff(F, 2, axis=1)).sum(axis=1)), k
    assert np.all(tv >= ref_tv)
    assert np.max(np.abs(pos - ref_pos)) <= 1e-9 * ks.family.length


@pytest.mark.parametrize("tag,N,t", [("A", 4, 0.5), ("C", 4, 0.3), ("A", 12, 0.5)],
                         ids=["A-0.5", "C-0.3", "A12-0.5"])
def test_chain_rule_rows_do_not_depend_on_chunk(tag, N, t):
    # Hermitian (t = t*/2) and general case, on the rows W (N = 4) and on the
    # factors (N = 12): every drawn row and its tv estimate are bit for bit
    # the same whichever rows share its chunk
    ks = KernelSpec((tag, N, 1.0), t=t, t_star=1.0)
    tables = dpp_kernels._tables(ks, dpp_kernels.SAMPLER_NODES)
    U = np.random.default_rng(7).random((64, N))
    for R in (1, 3, 7, 33, 64):
        runs = [dpp_kernels._chain_rule_chunk(ks, U[s:s + R], *tables)
                for s in range(0, 64, R)]
        pos = np.concatenate([p for p, _ in runs])
        tv = np.concatenate([e for _, e in runs])
        if R == 1:
            ref_pos, ref_tv = pos, tv
        assert pos.tobytes() == ref_pos.tobytes() and tv.tobytes() == ref_tv.tobytes(), R


_BLAS_RUN = """
import sys
import numpy as np
from elliptic_dpp.dpp_kernels import KernelSpec, exact_sample
ks = KernelSpec((sys.argv[1], int(sys.argv[2]), 1.0), t=float(sys.argv[3]), t_star=1.0)
res = exact_sample(ks, 256, seed=9)
sys.stdout.write(res.positions.tobytes().hex() + " " + res.tabulation_error.hex())
"""


@pytest.mark.parametrize("tag,N,t", [("A", 4, 0.5), ("C", 3, 0.3), ("A", 12, 0.5)])
def test_exact_sample_does_not_depend_on_blas_threads(tag, N, t):
    # every product is per row, so one and two OpenBLAS threads draw the same
    # states and the same tabulation bound, bit for bit (at t = t*/2 and off
    # it); at N = 12 the leaf scan's products of the factors go through BLAS
    src = str(Path(dpp_kernels.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.run([sys.executable, "-c", _BLAS_RUN, tag, str(N), str(t)], env=env,
                                   check=True, capture_output=True, text=True).stdout)
    assert runs[0] and runs[0] == runs[1]


@pytest.mark.parametrize("t_star", [0.3, 1.0, 10.0])
@pytest.mark.parametrize("tag,N", [("A", 2), ("A", 4), ("C", 3), ("D", 4), ("BC", 3), ("Bv", 2)])
def test_certificate_bounds_every_drawn_row(tag, N, t_star):
    # at t = t*/2 every Q of the chain rule is an orthogonal projector, so no
    # row's tabulation bound passes N h lambda_max / (12 (1 - mass tol)), with
    # lambda_max the top of the spectrum of the second-difference sums of
    # W_g = a(x_g) conj a(x_g)^T, formed here from the table's factors
    ks = KernelSpec((tag, N, 1.0), t=0.5 * t_star, t_star=t_star)
    tables = dpp_kernels._tables(ks, dpp_kernels.SAMPLER_NODES)
    xs, A, curv = tables[0], tables[1], tables[-1]
    W = A[:, :, None] * np.conj(A)[:, None, :]
    lam = np.linalg.eigvalsh(np.abs(W[2:] - 2.0 * W[1:-1] + W[:-2]).sum(axis=0))[-1]
    bound = N * (xs[1] - xs[0]) * lam / (12.0 * (1.0 - dpp_kernels._MASS_TOL))
    U = np.random.default_rng(zlib.crc32(f"{tag}{N}{t_star}".encode())).random((512, N))
    _, est = dpp_kernels._chain_rule_chunk(ks, U, *tables)
    assert np.max(est) <= bound
    # the table's own curvature sums are >= 0 and symmetric up to rounding,
    # and give the same bound up to the rounding of the second differences
    assert np.all(curv >= 0.0) and np.max(np.abs(curv - curv.T)) <= 1e-14 * np.max(curv)
    assert abs(dpp_kernels._certificate(ks, tables) - bound) <= 1e-9 * bound


def _table_draws(monkeypatch):
    """The (rows, table nodes) of each `_draw_rows` call from then on."""
    calls, draw_rows = [], dpp_kernels._draw_rows

    def traced(ks, U, tables, *rest):
        calls.append((len(U), len(tables[0])))
        return draw_rows(ks, U, tables, *rest)

    monkeypatch.setattr(dpp_kernels, "_draw_rows", traced)
    return calls


def _spawned_uniforms(seed, states, N):
    """The uniforms of a run, block by block from SeedSequence(seed).spawn."""
    nb = min(SAMPLER_BLOCKS, states)
    cuts = np.arange(nb + 1) * states // nb
    return np.concatenate([np.random.default_rng(child).random((hi - lo, N)) for child, lo, hi
                           in zip(np.random.SeedSequence(seed).spawn(nb), cuts[:-1], cuts[1:])])


def test_a_proven_table_draws_no_pilot(monkeypatch, cpus):
    # A4 at t = t*/2: the 513-node table is proven before any draw, so no
    # 64-state pilot runs, and the states are one draw of all rows on that
    # table from the seed-blocks SeedSequence(seed).spawn gives
    cpus(1)
    draw_rows, calls = dpp_kernels._draw_rows, _table_draws(monkeypatch)
    ks, S = _ks("A", 4, t=0.5), 600
    res = exact_sample(ks, S, seed=4)
    assert calls == [(S, 513)] and res.nodes == 513
    pos, est = np.empty((S, 4)), np.empty(S)
    draw_rows(ks, _spawned_uniforms(4, S, 4), dpp_kernels._tables(ks, 513), pos, est)
    assert np.sort(pos, axis=1).tobytes() == res.positions.tobytes()
    assert float(np.mean(est)) == res.tabulation_error


@pytest.mark.parametrize("tag,N,t,pilots,nodes", [
    ("A", 16, 0.5, (513, 1025, 2049, 4097), 8193),
    ("C", 4, 0.5, (513,), 513),
    ("C", 3, 0.3, (513,), 513),
])
def test_tables_the_certificate_fails_run_the_pilot(tag, N, t, pilots, nodes, monkeypatch, cpus):
    # A16 below 8193 nodes and C4 at 513 are Hermitian tables the
    # certificate cannot prove, and C3 at t = 0.3 is not Hermitian: the
    # pilot's 64 states pick the table as before, and the rest are drawn on
    # it; A16's 8193-node table is proven, so its last pilot draw is skipped
    cpus(1)
    calls = _table_draws(monkeypatch)
    S = 128
    res = exact_sample(_ks(tag, N, t=t), S, seed=5)
    rest = S if nodes > pilots[-1] else S - dpp_kernels._PILOT
    assert calls == [(dpp_kernels._PILOT, n) for n in pilots] + [(rest, nodes)]
    assert res.nodes == nodes


@pytest.mark.parametrize("seed", [3, None])
def test_a_seed_block_is_its_spawn_key(seed):
    # seed-block b's generator SeedSequence(seed).spawn(64)[b] is
    # SeedSequence(entropy, spawn_key=(b,)), so a part draws its own blocks;
    # `_uniforms` gives any rows lo..hi-1 of the whole run's uniforms
    root = np.random.SeedSequence(seed)
    children = root.spawn(SAMPLER_BLOCKS)
    for b in (0, 31, 63):
        mine = np.random.SeedSequence(root.entropy, spawn_key=(b,))
        assert np.array_equal(np.random.default_rng(mine).random(8),
                              np.random.default_rng(children[b]).random(8))
    S, N = 1600, 3
    U = _spawned_uniforms(root.entropy, S, N)
    cuts = np.arange(SAMPLER_BLOCKS + 1) * S // SAMPLER_BLOCKS
    for lo, hi in ((0, 64), (64, 533), (533, 1066), (1066, 1600), (25, 25), (1600, 1600)):
        rows = dpp_kernels._uniforms(root.entropy, cuts, N, lo, hi)
        assert rows.tobytes() == U[lo:hi].tobytes(), (lo, hi)


# 7 parts of 512 states on 7 CPUs, after the pilot's 64 states where there is one
_PARTS_STATES = dpp_kernels._PILOT + 7 * dpp_kernels._PART_ROWS


@pytest.mark.parametrize("tag,N,t", [("A", 4, 0.5), ("C", 3, 0.3), ("A", 4, 0.01)])
def test_exact_sample_is_the_same_in_every_part_count(tag, N, t, cpus):
    # Hermitian, non-Hermitian, and a small time where the pilot doubles the
    # table: states, block ids, bound and table are bit for bit those of one
    # part at 2, 3 and 7 parts
    ks = KernelSpec((tag, N, 1.0), t=t, t_star=1.0)
    runs = []
    for n in (1, 2, 3, 7):
        forks = cpus(n)
        runs.append(exact_sample(ks, _PARTS_STATES, seed=11))
        assert len(forks) == n - 1
    if t == 0.01:
        assert runs[0].nodes > dpp_kernels.SAMPLER_NODES
    for res in runs[1:]:
        assert res.positions.tobytes() == runs[0].positions.tobytes()
        assert res.block_ids.tobytes() == runs[0].block_ids.tobytes()
        assert (res.tabulation_error, res.nodes) == (runs[0].tabulation_error, runs[0].nodes)


def _failing_parts(monkeypatch, forks, fail):
    """Make `_chain_rule_chunk` call fail[part] in each part it names, once
    the parts are forked: part 0 is this process, part k the k-th child."""
    parent, chunk = os.getpid(), dpp_kernels._chain_rule_chunk

    def chain_rule_chunk(*args):
        part = 0 if os.getpid() == parent else len(forks)
        if forks and part in fail:
            fail[part]()
        return chunk(*args)

    monkeypatch.setattr(dpp_kernels, "_chain_rule_chunk", chain_rule_chunk)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


def _raise(exc):
    def fail():
        raise exc
    return fail


# three parts of 1600 states on a proven table: [0, 533), [533, 1066),
# [1066, 1600)
@pytest.mark.parametrize("fail, raised, match", [
    ({1: _raise(AccuracyError("conditional 2 has mass off"))}, AccuracyError,
     "^conditional 2 has mass off$"),
    ({1: _raise(ValueError("a middle row"))}, ValueError, "^a middle row$"),
    ({1: _raise(KeyboardInterrupt())}, KeyboardInterrupt, "^$"),
    ({1: _raise(_Unpicklable("a middle row"))}, ChildProcessError,
     "^the sampler of rows 533..1065 of 1600 exited with status 1: _Unpicklable: a middle row$"),
    ({1: lambda: os.kill(os.getpid(), signal.SIGKILL)}, ChildProcessError,
     f"^the sampler of rows 533..1065 of 1600 was killed by signal {int(signal.SIGKILL)}$"),
    ({0: _raise(ValueError("part 0")), 1: _raise(AccuracyError("part 1"))}, ValueError,
     "^part 0$"),
    ({1: _raise(AccuracyError("part 1")), 2: _raise(ValueError("part 2"))}, AccuracyError,
     "^part 1$"),
], ids=["AccuracyError", "ValueError", "KeyboardInterrupt", "unpicklable", "killed",
        "part 0 first", "part 1 before part 2"])
def test_a_failing_part_of_the_draws_raises_in_row_order(fail, raised, match, monkeypatch, cpus):
    # a child's exception reaches the caller with its own type, one that does
    # not pickle and a killed child as a ChildProcessError naming the rows;
    # the first part in row order that fails is the one raised, and every
    # child is reaped
    forks = cpus(3)
    _failing_parts(monkeypatch, forks, fail)
    with pytest.raises(raised, match=match):
        exact_sample(_ks("A", 4, t=0.5), 1600, seed=3)
    assert len(forks) == 2


def test_an_interrupted_sampler_kills_its_children(monkeypatch, cpus):
    # this process raises on its part while the two children would draw for a
    # minute: both are killed and reaped
    forks = cpus(3)
    _failing_parts(monkeypatch, forks, {0: _raise(KeyboardInterrupt()),
                                        1: lambda: time.sleep(60.0), 2: lambda: time.sleep(60.0)})
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        exact_sample(_ks("A", 4, t=0.5), 1600, seed=3)
    assert time.perf_counter() - t0 < 30.0 and len(forks) == 2


@pytest.mark.parametrize("one_part", ["no sched_getaffinity", "no fork", "a second thread"])
def test_sampler_forks_nothing_where_it_cannot(one_part, monkeypatch, cpus):
    forks = cpus(4)
    if one_part == "a second thread":
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
    else:
        monkeypatch.delattr(os, one_part.split()[1])
    try:
        res = exact_sample(_ks("A", 4, t=0.5), 1088, seed=3)
    finally:
        if one_part == "a second thread":
            done.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    assert forks == [] and res.positions.shape == (1088, 4)


@pytest.mark.parametrize("t, states, forked", [
    pytest.param(0.3, 100, 0, id="100-0"),
    pytest.param(0.3, 575, 0, id="575-0"),
    pytest.param(0.3, 1087, 0, id="1087-0"),
    pytest.param(0.3, 1088, 1, id="1088-1"),
    pytest.param(0.5, 1023, 0, id="proven-1023-0"),
    pytest.param(0.5, 1024, 1, id="proven-1024-1"),
])
def test_sampler_parts_take_at_least_512_states(t, states, forked, cpus):
    # two parts need 1024 states on 4 CPUs: past the pilot's 64 off t*/2
    # (A4 at t = 0.3), and all of them on A4's proven table at t = t*/2
    forks = cpus(4)
    assert exact_sample(_ks("A", 4, t=t), states, seed=3).positions.shape == (states, 4)
    assert len(forks) == forked


def test_exact_sample_seed_changes_output():
    ks = _ks("A", 3)
    a = exact_sample(ks, 64, seed=5)
    b = exact_sample(ks, 64, seed=6)
    assert not np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize("tag", FAMILIES)
def test_exact_sample_states_stay_in_alcove(tag):
    ks = _ks(tag, 3)
    res = exact_sample(ks, 200, seed=2)
    L = ks.family.length
    assert res.positions.shape == (200, 3)
    assert np.all(res.positions >= 0.0) and np.all(res.positions <= L)
    assert np.all(np.diff(res.positions, axis=1) > 0.0)   # strictly ordered rows
    # every state carries positive density
    assert density_batch(ks, res.positions).min() > 0.0
    assert 0.0 < res.tabulation_error < 1e-3


def test_exact_sample_result_sequence_interface():
    ks = _ks("B", 2)
    res = exact_sample(ks, 100, seed=0)
    # row order is (seed-block, draw): ids grouped, nondecreasing, even sizes
    sizes = np.bincount(res.block_ids)
    assert np.all(np.diff(res.block_ids) >= 0)
    assert sizes.size == min(SAMPLER_BLOCKS, 100) and sizes.max() - sizes.min() <= 1


def test_exact_sample_small_time_refines_table():
    # Im tau ~ 0.01 at time t: the particles sit in narrow peaks, and the
    # default table is too coarse for the tabulation bound.  The table must
    # double until the bound is met, and the states must then follow the
    # intensity: 64 bins resolve the peaks
    ks = KernelSpec(("A", 4, 1.0), t=0.01 * 2.0 * np.pi / 16.0, t_star=1.0)
    res = exact_sample(ks, 4096, seed=1)
    assert res.nodes > dpp_kernels.SAMPLER_NODES
    assert res.tabulation_error <= dpp_kernels.SAMPLER_TV_TOL
    assert np.all(res.positions >= 0.0) and np.all(res.positions < ks.family.length)
    h = empirical_density(res, bins=64)
    exact = bin_intensity(ks, np.append(h.bin_left, h.bin_right[-1]))
    hit = h.stderr > 0.0
    assert np.all(exact[~hit] < 1e-4)       # only bins the peaks miss are empty
    pulls = np.abs(h.density - exact)[hit] / h.stderr[hit]
    assert pulls.max() < 4.0, f"worst bin pull {pulls.max():.2f}"


def test_exact_sample_tabulation_bound_is_enforced(monkeypatch):
    monkeypatch.setattr(dpp_kernels, "SAMPLER_TV_TOL", 1e-12)
    with pytest.raises(AccuracyError, match="tabulation error"):
        exact_sample(_ks("A", 4), 64, seed=1)


def test_exact_sample_rejects_empty_request():
    with pytest.raises(ValueError):
        exact_sample(_ks("A", 2), 0)


@pytest.mark.parametrize("states", [2.5, "3", True, -1])
def test_exact_sample_takes_an_integer_count(states):
    # 2.5 drew 2 states and "3" drew 3
    with pytest.raises(ValueError, match="states must be an integer >= 1"):
        exact_sample(_ks("A", 2), states)


@pytest.mark.parametrize("bins", [0, 2.5, "3", False])
def test_empirical_density_takes_an_integer_bin_count(bins):
    # 0 raised IndexError and 2.5 gave 2 bins
    res = dpp_kernels.SampleResult(positions=np.array([[0.5, 1.0, 2.0]]), block_ids=np.zeros(1),
                                   length=np.pi, tabulation_error=0.0, nodes=513)
    with pytest.raises(ValueError, match="bins must be an integer >= 1"):
        empirical_density(res, bins=bins)
    assert empirical_density(res, bins=np.int64(4)).count.tolist() == [1, 1, 1, 0]


@pytest.mark.parametrize("edges", [[2.0, 1.0], [1.0], [1.0, 1.0], []],
                         ids=["reversed", "one", "equal", "none"])
def test_bin_intensity_needs_increasing_edges(edges):
    # a reversed bin read a positive average, and one edge gave []
    with pytest.raises(ValueError, match="bin_intensity needs two or more increasing edges"):
        bin_intensity(_ks("C", 3), edges)


@pytest.mark.parametrize("tag", ["A", "C"])
def test_exact_sample_joint_law(tag):
    # 6 x 6 histogram of sorted N=2 states against cell integrals of the
    # joint density: this checks the conditional draws, not only the marginal
    ks = _ks(tag, 2)
    L = ks.family.length
    S = 20_000
    res = exact_sample(ks, S, seed=21)
    edges = np.linspace(0.0, L, 7)
    count, _, _ = np.histogram2d(res.positions[:, 0], res.positions[:, 1], bins=(edges, edges))
    u, w = np.polynomial.legendre.leggauss(16)
    worst = 0.0
    for i in range(6):
        for j in range(i, 6):
            x = 0.5 * (edges[i + 1] - edges[i]) * (u + 1.0) + edges[i]
            y = 0.5 * (edges[j + 1] - edges[j]) * (u + 1.0) + edges[j]
            X, Y = np.meshgrid(x, y, indexing="ij")
            vals = density_batch(ks, np.column_stack([X.ravel(), Y.ravel()]))
            mass = float(np.sum(np.multiply.outer(w, w).ravel() * vals)) * (L / 12.0) ** 2
            if i == j:
                mass *= 0.5     # only the ordered half of a diagonal cell
            expect = S * mass
            worst = max(worst, abs(count[i, j] - expect) / np.sqrt(max(expect, 1.0)))
    assert count[np.tril_indices(6, -1)].sum() == 0
    assert worst < 4.0, f"{tag}: worst cell pull {worst:.2f}"


@pytest.mark.parametrize("tag,N,t", [("A", 4, 0.5), ("A", 4, 0.1), ("C", 3, 0.2),
                                     ("BC", 3, 0.7), ("D", 3, 0.3)])
def test_exact_sample_two_point_law(tag, N, t):
    # the ordered pairs (x_i, x_j), i != j, of 40 000 states in 8 x 8 bins
    # against S times the bins' integrals of rho_2 (`oracles.pair_bin_masses`):
    # a sampler with the right intensity but wrong conditionals fails here.
    # Pulls in standard errors from 20 blocks of 2 000 states, over the bins
    # that expect more than 50 pairs; 4.5 allows for ~60 bins at once
    ks = KernelSpec((tag, N, 1.0), t=t, t_star=1.0)
    S, blocks, bins = 40_000, 20, 8
    res = exact_sample(ks, S, seed=zlib.crc32(f"{tag}{N}{t}".encode()))
    edges = np.linspace(0.0, ks.family.length, bins + 1)
    at = np.minimum(np.searchsorted(edges, res.positions, side="right") - 1, bins - 1)
    i, j = np.nonzero(~np.eye(N, dtype=bool))
    pairs = at[:, i] * bins + at[:, j]
    counts = np.stack([np.bincount(p.ravel(), minlength=bins * bins)
                       for p in np.split(pairs, blocks)])
    expect = S * pair_bin_masses(ks, edges).ravel()
    stderr = np.sqrt(blocks) * counts.std(axis=0, ddof=1)
    hit = expect > 50.0
    assert hit.sum() >= bins * bins // 2
    pulls = (counts.sum(axis=0) - expect)[hit] / stderr[hit]
    worst = np.max(np.abs(pulls))
    assert worst <= 4.5, f"{tag}{N} t={t}: worst pair-bin pull {worst:.2f}"


# ---------------------------------------------------------------------------
# histograms

def test_empirical_density_integrates_to_N():
    ks = _ks("A", 3)
    res = exact_sample(ks, 1_024, seed=4)
    h = empirical_density(res, bins=25)
    total = np.sum(h.density * (h.bin_right - h.bin_left))
    assert abs(total - 3.0) < 1e-12
    assert int(h.count.sum()) == res.positions.size
    assert np.all(h.stderr[h.count > 0] > 0.0)


def test_empirical_density_counts_match_histogram_per_block():
    # one bincount over (seed-block, bin) against np.histogram per block:
    # half-open bins, the last one closed, points outside [0, L] dropped
    edges = np.linspace(0.0, 2.0, 9)
    rng = np.random.default_rng(3)
    pos = np.sort(rng.uniform(-0.1, 2.1, size=(90, 3)), axis=1)
    pos[:9, 0] = edges                    # every edge, 0 and L included
    pos[9, 1] = np.nextafter(edges[3], 0.0)
    ids = np.repeat(np.arange(6), 15)
    res = dpp_kernels.SampleResult(positions=pos, block_ids=ids, length=2.0,
                                   tabulation_error=0.0, nodes=513)
    h = empirical_density(res, bins=8)
    per = np.array([np.histogram(pos[ids == b].ravel(), bins=edges)[0] for b in range(6)])
    assert h.count.dtype == per.dtype and np.array_equal(h.count, per.sum(axis=0))
    dens = per / (15 * (edges[1] - edges[0]))
    assert h.stderr.tobytes() == (dens.std(axis=0, ddof=1) / np.sqrt(6)).tobytes()


def test_gauss_legendre_nodes_are_cached_read_only():
    u, w = dpp_kernels._leggauss(24)
    assert dpp_kernels._leggauss(24)[0] is u
    assert not (u.flags.writeable or w.flags.writeable)
    ref_u, ref_w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)


def test_bin_intensity_matches_per_bin_quadrature():
    ks = _ks("C", 3)
    edges = np.linspace(0.0, ks.family.length, 9)
    u, w = np.polynomial.legendre.leggauss(24)
    ref = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
        ref.append(0.5 * np.dot(w, np.diag(kernel_matrix(ks, xs, xs)).real))
    assert np.max(np.abs(bin_intensity(ks, edges) - ref)) < 1e-13 * max(ref)


def test_histogram_tracks_exact_intensity():
    # moderate run: every bin within 4 block-spread standard errors of the
    # bin-averaged intensity
    ks = _ks("A", 4)
    res = exact_sample(ks, 8_000, seed=13)
    h = empirical_density(res, bins=20)
    exact = bin_intensity(ks, np.append(h.bin_left, h.bin_right[-1]))
    pulls = np.abs(h.density - exact) / h.stderr
    assert pulls.max() < 4.0, f"worst bin pull {pulls.max():.2f}"

"""The verification suites against independent oracles."""

import math
import warnings

import numpy as np
import pytest

from elliptic_dpp import dpp_kernels, verification
from elliptic_dpp.biortho import norm_const_log
from elliptic_dpp.bridges import bridge_density, macdonald_kmlgv_residual, matrix_identity_residual
from elliptic_dpp.dpp_kernels import KernelSpec, kernel_matrix
from elliptic_dpp.macdonald import (IllConditionedError, denominator_residual, det_m_logc,
                                    midpoint_nodes, weyl_w_parts)
from elliptic_dpp.root_systems import FAMILIES, FamilySpec
from elliptic_dpp.theta_core import AccuracyError


def _lines(results):
    return {res.name: res for res in results}


def _dense_residual(ks):
    """Oracle: max |h K K - K| / max |K| by the dense G x G product, K from the
    theta-route factors the kernel lines read (`_factors` with `series`
    false), so the two residuals differ by the product only."""
    L, n = ks.family.length, 512
    x = np.arange(n) * (L / n) + L / (2 * n)
    a, b = dpp_kernels._factors(ks, x, x, series=False)
    km = dpp_kernels._kernel_sum(a[:, :, None], b[:, None])
    return float(np.max(np.abs(km @ km * (L / n) - km)) / np.max(np.abs(km)))


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t, t_star", [(0.4, 1.0), (20.0, 50.0)])
def test_factored_reproducing_residual_matches_dense_product(tag, t, t_star):
    for N in (2, 3, 4):
        ks = KernelSpec((tag, N, 1.0), t=t, t_star=t_star)
        line = _lines(verification.kernel_suite(ks))["reproducing identity"]
        dense = _dense_residual(ks)
        assert line.passed
        assert abs(line.residual - dense) <= 1e-13, (
            f"{tag}{N}: factored {line.residual:.3e} dense {dense:.3e}")


def _mixing(N):
    """tr M = N and M != I: the trace of a kernel built with it stays N."""
    return np.eye(N) + 0.5 * np.roll(np.eye(N), 1, axis=1)


def _mode_mixing_sum(a, b):
    # a wrong assembly of K from correct factors whose points broadcast, as
    # `_kernel_sum` takes them: sum_nm a_n M_nm conj b_m, a^T M conj(b) on a grid
    return np.sum(np.tensordot(_mixing(len(a)).T, a, axes=1) * np.conj(b), axis=0)


def _mixed_factors(ks, xs, ys, series=True, _factors=dpp_kernels._factors):
    # factors that are not biorthogonal: a -> M a over the mode axis, so
    # G = h conj(b) a^T M^T != I (_factors is bound to the unpatched function
    # at import), in either frame
    a, b = _factors(ks, xs, ys, series=series)
    return np.tensordot(_mixing(len(a)), a, axes=1), b


@property
def _shifted_norms_log(ks):
    # one closed-form norm off by a factor e^{1e-6}: f_1 is scaled by
    # e^{-1e-6 s/t*} at time s, so G_11 = e^{-1e-6}
    logs = norm_const_log(ks.family, ks.t_star)
    logs[0] += 1e-6
    return logs


@pytest.mark.parametrize("mutant", ["mode mixing", "not biorthogonal", "norm shifted"])
@pytest.mark.parametrize("tag, N", [("A", 4), ("C", 3), ("BC", 2)])
def test_reproducing_identity_fails_on_mutants(mutant, tag, N, monkeypatch):
    if mutant == "mode mixing":
        monkeypatch.setattr(verification, "_kernel_sum", _mode_mixing_sum)
    elif mutant == "not biorthogonal":
        monkeypatch.setattr(dpp_kernels, "_factors", _mixed_factors)
        monkeypatch.setattr(verification, "_factors", _mixed_factors)
    else:
        monkeypatch.setattr(KernelSpec, "norms_log", _shifted_norms_log)
    ks = KernelSpec((tag, N, 1.0), t=0.4, t_star=1.0)
    lines = _lines(verification.kernel_suite(ks))
    gram = _lines(verification.biortho_suite(ks))
    if mutant == "norm shifted":
        assert gram["biorthogonality off-diagonal"].passed
        assert not gram["biorthogonality norms"].passed
        return
    assert lines["kernel trace = N"].passed     # tr M = N hides it from the trace
    assert not lines["reproducing identity"].passed
    assert gram["biorthogonality norms"].passed
    if mutant == "not biorthogonal":            # the dense oracle sees it too
        assert _dense_residual(ks) > 1e-3
        assert not gram["biorthogonality off-diagonal"].passed
    else:                                       # the factors themselves are right
        assert gram["biorthogonality off-diagonal"].passed


@pytest.mark.parametrize("tag, N, t, t_star", [("A", 4, 0.4, 1.0), ("C", 3, 0.5, 1.0),
                                              ("BC", 2, 20.0, 50.0), ("D", 4, 25.0, 50.0)])
def test_gram_and_kernel_lines_never_read_the_mode_series(tag, N, t, t_star, monkeypatch):
    # the biorthogonality and kernel-grid lines check the paper's theta
    # functions: with the mode-series table broken they print the same bytes,
    # while the kernel itself, which takes the series at these times, fails
    ks = KernelSpec((tag, N, 1.0), t, t_star)
    suites = (verification.biortho_suite, verification.kernel_suite)
    before = [verification.render(suite(ks)) for suite in suites]

    def broken(*args):
        raise RuntimeError("mode series reached")

    monkeypatch.setattr(dpp_kernels, "_modes", broken)
    assert [verification.render(suite(ks)) for suite in suites] == before
    with pytest.raises(RuntimeError, match="mode series reached"):
        kernel_matrix(ks, [0.5], [0.5])


@pytest.mark.parametrize("tag", FAMILIES)
def test_biortho_suite_at_large_horizon(tag):
    # at t* = 50 the functions and the norms leave double range, the Gram
    # matrix of the balanced factors does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (2, 3, 4):
            for line in verification.biortho_suite(KernelSpec((tag, N, 1.0), 20.0, 50.0)):
                assert line.passed, f"{tag}{N}: {line.line()}"


@pytest.mark.parametrize("fn, name", [("macdonald_kmlgv_residual", "pinned-path proportionality"),
                                      ("eta_formula_residual", "eta closed form")])
def test_refused_determinant_reads_inf_on_its_line(fn, name, monkeypatch):
    # both determinant lines of the matrix suite go through logdet; a refusal
    # turns only that line into inf
    def refuse(*args):
        raise IllConditionedError("r-matrix #1 of 1 condition ~ inf exceeds 1.0e+07")

    monkeypatch.setattr(verification, fn, refuse)
    lines = _lines(verification.matrix_suite(KernelSpec(("A", 3, 1.0), 0.4, 1.0)))
    assert list(lines) == ["weight-matrix identity", "pinned-path proportionality",
                           "eta closed form"]
    assert [n for n, r in lines.items() if not r.passed] == [name]
    assert lines[name].residual == math.inf


@pytest.mark.parametrize("error", [AccuracyError, IllConditionedError])
def test_refusal_reads_inf_on_every_identity_line(error, monkeypatch):
    # every engine the identity lines call refuses: each of those lines reads
    # inf and the suites run to the end; the theta suite's fixed arguments
    # call no such engine
    def refuse(*args):
        raise error("refused")

    for fn in ("_gram", "denominator_residual", "matrix_identity_residual",
               "macdonald_kmlgv_residual", "eta_formula_residual", "transition",
               "bridge_density", "density_batch"):
        monkeypatch.setattr(verification, fn, refuse)
    results = verification.run_suites("all", KernelSpec(("A", 3, 1.0), 0.4, 1.0))
    assert len(results) == 15
    for res in results[:3]:
        assert res.passed, res.line()
    for res in results[3:]:
        assert res.residual == math.inf and not res.passed, res.line()


def test_kernel_grid_follows_the_kernel_width():
    # N + 20 nodes on the circle and N + 10 on an interval at the benchmark
    # times; more where the kernel is narrower
    for tag in FAMILIES:
        for N in (2, 3, 4):
            d = FamilySpec(tag, N, 1.0)
            want = N + (20 if d.walls == "circ" else 10)
            assert midpoint_nodes(d, 0.4, 1.0, 2, 2048**2) == want
    assert midpoint_nodes(FamilySpec("A", 3, 1.0), 1e-4, 1.0, 2, 2048**2) == 946


@pytest.mark.parametrize("N", [2, 3, 4])
def test_kernel_suite_resolves_a_small_time(N):
    # at t = 1e-4 the kernel's width ~1e-2 is about the step of 512 nodes on
    # the circle; N + 943 nodes resolve it
    results = verification.kernel_suite(KernelSpec(("A", N, 1.0), 1e-4, 1.0))
    for res in results:
        assert res.passed and res.residual <= 1e-13, res.line()


def test_kernel_grid_past_its_limit_reads_inf():
    # t = 1e-6 would need 9 427 nodes on the circle: trace and reproducing
    # lines read inf, the density line still prints
    lines = _lines(verification.kernel_suite(KernelSpec(("A", 2, 1.0), 1e-6, 1.0)))
    assert lines["kernel trace = N"].residual == math.inf
    assert lines["reproducing identity"].residual == math.inf
    assert lines["density nonnegativity"].passed


# one NaN among finite residuals, and not the first one: Python's max would
# drop it.  (suite, name the suite calls, call that returns NaN, its line)
_NAN_CASES = [
    ("theta", "theta_series", 2, "theta engine vs series oracle"),
    ("denominator", "denominator_residual", 2, "determinant-identity residual"),
    ("matrix", "matrix_identity_residual", 2, "weight-matrix identity"),
    ("matrix", "macdonald_kmlgv_residual", 1, "pinned-path proportionality"),
    ("bridge", "transition_images", 2, "transition vs winding images"),
    ("bridge", "bridge_density", 1, "bridge density vs spectral density"),
    ("kernel", "density_batch", 1, "density nonnegativity"),
    ("limits", "sine_kernel", 2, "sine limit (t*rho^2 = 300000)"),
    ("limits", "kernel", 2, "infinite kernel vs finite N=64 A (limit A)"),
]


@pytest.mark.parametrize("suite, fn, at, line", _NAN_CASES)
def test_nan_residual_fails_its_line(suite, fn, at, line, monkeypatch):
    real, calls = getattr(verification, fn), []

    def one_nan(*args):
        out = real(*args)
        calls.append(fn)
        if len(calls) != at:
            return out
        if np.ndim(out):
            out = np.array(out)
            out[1] = np.nan
            return out
        # a numpy NaN: builtin abs of a Python complex NaN may raise a spurious
        # OverflowError (CPython 3.11 reads a stale errno there)
        return np.complex128(np.nan)

    monkeypatch.setattr(verification, fn, one_nan)
    d = FamilySpec("A", 3, 1.0)
    if suite == "limits":
        results = verification.limits_suite(d, verification.limit_specs(d, 1.0, 300000.0))
    else:
        results = verification.run_suites(suite, KernelSpec(d, 0.4, 1.0))
    res = _lines(results)[line]
    assert math.isnan(res.residual) and not res.passed
    assert res.line().endswith("residual=nan tol=%.1e FAIL" % res.tol)


@pytest.mark.parametrize("tag", FAMILIES)
def test_batch_rows_equal_one_configuration_calls(tag):
    # a row of a 15-configuration call is the 1-configuration call, bit for
    # bit, so the suites' batches report what per-configuration calls would
    for N in (2, 3, 4):
        d = FamilySpec(tag, N, 1.0)
        X = verification._configs(5, d, 15)
        for t in (0.4, 0.5, 1.0):
            tau = 1j * d.size * t / (2.0 * np.pi)
            fns = {
                "W": lambda xs: weyl_w_parts(tag, np.asarray(xs) / (2.0 * np.pi), tau),
                "denominator": lambda xs: denominator_residual(d, xs, t),
                "weight matrix": lambda xs: matrix_identity_residual(d, t, xs),
                "pinned path": lambda xs: macdonald_kmlgv_residual(d, t, xs),
                "bridge density": lambda xs: bridge_density(KernelSpec(d, t, t + 0.6), xs),
            }
            for name, fn in fns.items():
                batch = fn(X)
                assert np.shape(batch) == ((2, 15) if name == "W" else (15,))
                for i, xs in enumerate(X):
                    one = fn(xs)
                    if name == "W":
                        assert [p[0] for p in one] == [p[i] for p in batch], (
                            f"{tag}{N} t={t} W row {i}")
                    else:
                        assert isinstance(one, float) and one == batch[i], (
                            f"{tag}{N} t={t} {name} row {i}: {one!r} vs {batch[i]!r}")


def _configs_one_draw_at_a_time(seed, d, n):
    # one rng.uniform call per candidate row
    rng, L, out = np.random.default_rng(seed), d.length, []
    while len(out) < n:
        xs = np.sort(rng.uniform(0.03 * L, 0.97 * L, d.N))
        if d.N == 1 or np.min(np.diff(xs)) > 0.01 * L:
            out.append(xs)
    return np.array(out)


@pytest.mark.parametrize("tag", FAMILIES)
def test_configs_in_batches_equal_one_draw_at_a_time(tag):
    # the suites' configurations, bit for bit: at N = 6 a quarter of the
    # candidates fail the gap floor, at N = 12 most do, and every seed below
    # then takes more than one batch
    for N in (1, 2, 3, 4, 6, 12):
        if tag == "D" and N == 1:
            continue
        d = FamilySpec(tag, N, 1.0)
        for seed, n in ((101, 15), (103, 10), (107, 5), (109, 5), (5, 1)):
            got = verification._configs(seed, d, n)
            assert got.shape == (n, N)
            assert got.tobytes() == _configs_one_draw_at_a_time(seed, d, n).tobytes()


def test_run_suites_takes_one_name_or_all():
    ks = KernelSpec(("C", 2, 1.0), 0.4, 1.0)
    assert [r.name for r in verification.run_suites("theta", ks)] == [
        "theta engine vs series oracle", "theta quasi-periodicity", "theta imaginary transform"]
    with pytest.raises(ValueError, match="unknown suite"):
        verification.run_suites("thetas", ks)


@pytest.mark.parametrize("tag", FAMILIES)
def test_determinant_gate_passes_every_line_at_the_benchmark_times(tag):
    # det_m_logc's condition limit (1e7) is well above the suite's matrices
    # at (0.4, 1), whose largest equilibrated condition is ~1.5e4
    for N in (2, 3, 4):
        results = verification.run_suites("all", KernelSpec((tag, N, 1.0), 0.4, 1.0))
        assert [r.line() for r in results if not r.passed] == [], f"{tag}{N}"


def test_determinant_gate_refuses_what_its_bound_cannot_judge():
    # equilibrated condition 1.72e10: LU round-off alone (~1e-17 cond) fails
    # the identity's 1e-10 bound, so the matrix is refused and the line reads
    # inf rather than a finite FAIL of 7.985e-08
    d = FamilySpec("A", 3, 1.0)
    xs = np.array([2.2381128239934287, 3.1863610630516708, 4.039174817973448])
    with pytest.raises(IllConditionedError, match=r"condition ~ 1\.72.e\+10 exceeds 1\.0e\+07"):
        det_m_logc(d, xs, 0.125)
    line = _lines(verification.denominator_suite(KernelSpec(d, 0.1, 0.25)))[
        "determinant-identity residual"]
    assert line.residual == math.inf and not line.passed

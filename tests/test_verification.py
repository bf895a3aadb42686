"""The verification suites against independent oracles."""

import warnings

import numpy as np
import pytest

from elliptic_dpp import dpp_kernels, verification
from elliptic_dpp.dpp_kernels import KernelSpec, kernel_matrix
from elliptic_dpp.root_systems import FAMILIES, derive


def _lines(results):
    return {res.name: res for res in results}


def _dense_residual(d, t, t_star):
    """Oracle: max |h K K - K| / max |K| by the dense G x G product."""
    ks = KernelSpec(d, t=t, t_star=t_star)
    L, n = d.length, 512
    x = np.arange(n) * (L / n) + L / (2 * n)
    km = kernel_matrix(ks, x, x)
    return float(np.max(np.abs(km @ km * (L / n) - km)) / np.max(np.abs(km)))


@pytest.mark.parametrize("tag", FAMILIES)
@pytest.mark.parametrize("t, t_star", [(0.4, 1.0), (20.0, 50.0)])
def test_factored_reproducing_residual_matches_dense_product(tag, t, t_star):
    for N in (2, 3, 4):
        d = derive((tag, N, 1.0))
        line = _lines(verification.kernel_suite(d, t, t_star))["reproducing identity"]
        dense = _dense_residual(d, t, t_star)
        assert line.passed
        assert abs(line.residual - dense) <= 1e-13, (
            f"{tag}{N}: factored {line.residual:.3e} dense {dense:.3e}")


def _mixing(N):
    """tr M = N and M != I: the trace of a kernel built with it stays N."""
    return np.eye(N) + 0.5 * np.roll(np.eye(N), 1, axis=1)


def _mode_mixing_sum(a, b, grid):
    # a wrong assembly of K from correct factors: a^T M conj(b)
    return a.T @ _mixing(a.shape[0]) @ np.conj(b)


def _mixed_factors(ks, xs, ys, lms, _factors=dpp_kernels._factors):
    # factors that are not biorthogonal: a -> M a, so G = h conj(b) a^T M^T != I
    # (_factors is bound to the unpatched function at import)
    a, b = _factors(ks, xs, ys, lms)
    return _mixing(a.shape[0]) @ a, b


def _shifted_norms_log(ks, _norms_log=dpp_kernels._norms_log):
    # one closed-form norm off by a factor e^{1e-6}: f_1 is scaled by
    # e^{-1e-6 s/t*} at time s, so G_11 = e^{-1e-6}
    lms = _norms_log(ks)
    lms[0] += 1e-6
    return lms


@pytest.mark.parametrize("mutant", ["mode mixing", "not biorthogonal", "norm shifted"])
@pytest.mark.parametrize("tag, N", [("A", 4), ("C", 3), ("BC", 2)])
def test_reproducing_identity_fails_on_mutants(mutant, tag, N, monkeypatch):
    if mutant == "mode mixing":
        monkeypatch.setattr(verification, "_kernel_sum", _mode_mixing_sum)
    elif mutant == "not biorthogonal":
        monkeypatch.setattr(dpp_kernels, "_factors", _mixed_factors)
        monkeypatch.setattr(verification, "_factors", _mixed_factors)
    else:
        monkeypatch.setattr(dpp_kernels, "_norms_log", _shifted_norms_log)
        monkeypatch.setattr(verification, "_norms_log", _shifted_norms_log)
    d = derive((tag, N, 1.0))
    lines = _lines(verification.kernel_suite(d, 0.4, 1.0))
    gram = _lines(verification.biortho_suite(d, 0.4, 1.0))
    if mutant == "norm shifted":
        assert gram["biorthogonality off-diagonal"].passed
        assert not gram["biorthogonality norms"].passed
        return
    assert lines["kernel trace = N"].passed     # tr M = N hides it from the trace
    assert not lines["reproducing identity"].passed
    assert gram["biorthogonality norms"].passed
    if mutant == "not biorthogonal":            # the dense oracle sees it too
        assert _dense_residual(d, 0.4, 1.0) > 1e-3
        assert not gram["biorthogonality off-diagonal"].passed
    else:                                       # the factors themselves are right
        assert gram["biorthogonality off-diagonal"].passed


@pytest.mark.parametrize("tag", FAMILIES)
def test_biortho_suite_at_large_horizon(tag):
    # at t* = 50 the functions and the norms leave double range, the Gram
    # matrix of the balanced factors does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (2, 3, 4):
            for line in verification.biortho_suite(derive((tag, N, 1.0)), 20.0, 50.0):
                assert line.passed, f"{tag}{N}: {line.line()}"

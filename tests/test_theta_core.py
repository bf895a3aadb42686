"""Theta engine tests: frozen special values, oracle overlap, classical identities."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from elliptic_dpp.theta_core import (
    AccuracyError,
    eta_log,
    parts_sum,
    parts_value,
    theta,
    theta_parts,
    theta_series,
)
from elliptic_dpp.theta_core import _ring_sum
from oracles import ring_sum_direct

# Frozen reference values.  theta3(0|i) and eta(i) are classical lemniscatic
# constants; theta2(0|i) was frozen from the series oracle and agrees with the
# duplication value theta3(0|i)/2^(1/4) to machine precision.
THETA3_0_I = 1.0864348112133080
THETA2_0_I = 0.9135791381561168
ETA_I = 0.7682254223260566


def test_frozen_special_values():
    assert abs(theta(3, 0.0, 1j) - THETA3_0_I) < 1e-12
    assert abs(theta(2, 0.0, 1j) - THETA2_0_I) < 1e-12
    assert abs(math.exp(eta_log(1.0)) - ETA_I) < 1e-12
    # theta2(0|i) = theta3(0|i) / 2^(1/4), a classical duplication identity
    assert abs(theta(2, 0.0, 1j) - theta(3, 0.0, 1j) / 2**0.25) < 1e-14


def test_theta1_vanishes_at_zero():
    assert theta(1, 0.0, 0.8j) == 0.0
    assert abs(theta(1, 1.0, 0.8j)) < 1e-15  # zero at every integer


def test_domain_rejection():
    with pytest.raises(ValueError):
        theta(3, 0.1, -1j)
    with pytest.raises(ValueError):
        theta(3, 0.1, 0.5)  # real tau
    with pytest.raises(ValueError):
        theta(5, 0.1, 1j)


@given(
    re_v=st.floats(-2.5, 2.5),
    im_v=st.floats(-1.0, 1.0),
    im_tau=st.floats(0.05, 4.0),
    re_tau=st.floats(-0.45, 0.45),
    idx=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_matches_series_oracle(re_v, im_v, im_tau, re_tau, idx):
    v = complex(re_v, im_v)
    tau = complex(re_tau, im_tau)
    # the plain sum's largest term is ~e^{pi Im(v)^2 / Im(tau)} times the value;
    # beyond ~e^9 the oracle itself drowns in cancellation and stops being a
    # yardstick (the production path reduces the argument exactly and is fine)
    assume(np.pi * im_v * im_v / im_tau < 9.0)
    a = theta(idx, v, tau)
    b = theta_series(idx, v, tau)
    # tolerance keyed to the accumulated series magnitude (>= |value|): near a
    # theta zero the value itself is no yardstick for roundoff
    scale = max(abs(a), abs(b), 1.0)
    assert abs(a - b) <= 1e-11 * scale * np.exp(np.pi * im_v * im_v / im_tau)


@given(
    re_v=st.floats(-2.0, 2.0),
    im_v=st.floats(-0.8, 0.8),
    im_tau=st.floats(0.2, 3.0),
    idx=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_parity(re_v, im_v, im_tau, idx):
    v = complex(re_v, im_v)
    tau = complex(0.0, im_tau)
    plus = theta(idx, v, tau)
    minus = theta(idx, -v, tau)
    expected = -minus if idx == 1 else minus
    assert abs(plus - expected) <= 1e-12 * max(abs(plus), 1.0)


@given(
    re_v=st.floats(-1.5, 1.5),
    im_v=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.3, 2.5),
    m=st.integers(-2, 2),
    k=st.integers(-2, 2),
    idx=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_quasi_periodicity(re_v, im_v, im_tau, m, k, idx):
    """theta(v + m tau + k) = sign * q^{-m^2} e^{-2 pi i m v} theta(v)."""
    v = complex(re_v, im_v)
    tau = complex(0.0, im_tau)
    if idx == 1:
        sign = (-1.0) ** (m + k)
    elif idx == 2:
        sign = (-1.0) ** k
    elif idx == 0:
        sign = (-1.0) ** m
    else:
        sign = 1.0
    lhs = theta(idx, v + m * tau + k, tau)
    pref = sign * np.exp(-1j * np.pi * tau * m * m - 2j * np.pi * m * v)
    rhs = pref * theta(idx, v, tau)
    # |pref| sets the natural magnitude floor at theta zeros
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), abs(pref))


@pytest.mark.parametrize("tau", [0.1j, 0.5j, 2j])
@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_imaginary_transformation(tau, idx):
    """theta_idx(v|tau) = eps * tau^{-1/2} e^{-i pi v^2/tau} theta_idx'(v/tau|-1/tau)."""
    swap = {0: 2, 1: 1, 2: 0, 3: 3}[idx]
    eps = np.exp(0.75j * np.pi) if idx == 1 else np.exp(0.25j * np.pi)
    for v in (0.3 + 0.17j, -0.8 + 0.05j, 0.02 - 0.3j):
        lhs = theta(idx, v, tau)
        rhs = eps * tau**-0.5 * np.exp(-1j * np.pi * v * v / tau) * theta(
            swap, v / tau, -1.0 / tau
        )
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-12)


def test_heat_equation():
    """d theta / d tau = (1/4 pi i) d^2 theta / dv^2, central differences."""
    h = 1e-4
    for idx in range(4):
        for v, tau in [(0.23, 1.1j), (0.4 + 0.1j, 0.7j), (-0.6, 1.9j)]:
            dt = (theta(idx, v, tau + h) - theta(idx, v, tau - h)) / (2 * h)
            dvv = (
                theta(idx, v + h, tau) - 2 * theta(idx, v, tau) + theta(idx, v - h, tau)
            ) / h**2
            resid = abs(dt - dvv / (4j * np.pi))
            assert resid < 1e-6 * max(abs(theta(idx, v, tau)), 1.0)


def test_parts_consistency_extreme_scale():
    """Parts form stays finite and matches quasi-periodicity where exp overflows."""
    tau = 3000.0j
    v = 0.5 * tau + 0.37  # half-lattice edge: peak exponent ~ +pi Im tau / 4
    m, s = theta_parts(2, v, tau)
    assert np.isfinite(s) and 0.1 < abs(m) < 10.0
    assert s > 2000.0  # direct exp would overflow
    # compare against the exact prefactor route in log form
    m0, s0 = theta_parts(2, 0.37 + 0.0j, tau)  # not the same point; just finite
    assert np.isfinite(s0)


def test_vectorized_matches_scalar():
    vs = np.linspace(-1.0, 1.0, 11) + 0.2j
    tau = 0.9j
    for idx in range(4):
        vec = theta(idx, vs, tau)
        sca = np.array([theta(idx, complex(z), tau) for z in vs])
        assert vec.tobytes() == sca.tobytes()


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("tau", [0.37 + 0.05j, 0.37 + 0.3j, 0.37 + 0.9j, 0.3j, 1j, 1.7j, 3j])
def test_values_do_not_depend_on_the_array_length(index, tau):
    # every slice of a 64-point call, and every point on its own, gives the
    # same mantissa and scale bit for bit: the modular walk at Re tau != 0,
    # the walk at Im tau < 1, and the ring recurrence's complex products
    rng = np.random.default_rng(18)
    vs = rng.uniform(-2.0, 2.0, 64) + 1j * tau.imag * rng.uniform(-1.5, 1.5, 64)
    mant, scale = theta_parts(index, vs, tau)
    for length in (1, 2, 3, 5, 7, 9, 17, 33):
        for at in range(0, 64 - length + 1, length):
            m, s = theta_parts(index, vs[at:at + length], tau)
            assert m.tobytes() == mant[at:at + length].tobytes(), (length, at)
            assert s.tobytes() == scale[at:at + length].tobytes(), (length, at)
    for v, m0, s0 in zip(vs, mant, scale):
        m, s = theta_parts(index, complex(v), tau)
        assert (m, s) == (m0, s0)


@pytest.mark.parametrize("index", range(4))
def test_ring_recurrence_matches_the_direct_exponents(index):
    # Im tau from sqrt(3)/2 to either side of 12.5: 4, 3, 2 and 1 rings, with
    # |Im w| at its limit Im tau / 2.  The gap is measured against the peak
    # term, of modulus 1; the largest is 4.6e-16 (tau = 0.37 + i sqrt(3)/2).
    seen = set()
    for re_tau in (0.0, 0.37, -0.5):
        for im_tau in (math.sqrt(3.0) / 2.0, 1.0, 1.38, 1.39, 2.0, 3.11, 3.12, 6.0,
                       12.46, 12.47, 40.0):
            tau = complex(re_tau, im_tau)
            rings = 1 + int(math.sqrt(math.log(1e17) / (math.pi * im_tau)))
            seen.add(rings)
            x = np.linspace(-0.5, 0.5, 21)
            w = np.concatenate([x + 0.5j * im_tau, x - 0.5j * im_tau, x + 0.17j * im_tau, x])
            ssum, peak = _ring_sum(index, w, tau)
            ref, ref_peak = ring_sum_direct(index, w, tau, rings)
            assert np.array_equal(peak, ref_peak)
            assert np.max(np.abs(ssum - ref)) <= 8 * np.finfo(float).eps, tau
    assert seen == {1, 2, 3, 4}


def _eta_log_mpmath(y, dual=False):
    """log eta(i y) at 30 digits from the Euler product prod (1 - e^{-2 pi n y})
    (mpmath.qp).  dual=True takes the product at 1 / y and the transformation
    eta(i / y) = y^{1/2} eta(i y): qp's series needs ~1 / y terms, so that is
    the only route it finishes below y ~ 1e-3."""
    import mpmath

    with mpmath.workdps(30):
        y = mpmath.mpf(y)
        z = 1 / y if dual else y
        out = -mpmath.pi * z / 12 + mpmath.log(mpmath.qp(mpmath.exp(-2 * mpmath.pi * z)))
        return out - mpmath.log(y) / 2 if dual else out


def test_eta_functional_equation():
    """eta(-1/tau) = sqrt(tau/i) eta(tau) at tau = 2i: `eta_log` on both sides
    against the plain Euler product, which needs no transformation there."""
    for y in (2.0, 0.5):
        assert abs(eta_log(y) - float(_eta_log_mpmath(y))) < 1e-13


def test_eta_log_matches_the_euler_product():
    # the oracle's dual route is the plain product where both finish
    for y in (1e-3, 0.05, 0.7):
        assert abs(_eta_log_mpmath(y) - _eta_log_mpmath(y, dual=True)) < 1e-25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in np.logspace(-6.0, math.log10(50.0), 33):
            got = eta_log(y)
            ref = float(_eta_log_mpmath(y, dual=y < 1e-3))
            assert math.isfinite(got)
            # log eta ~ -pi / (12 y): relative to |log eta|, since y carries 1e-16
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (y, got, ref)


def test_eta_log_refuses_what_tau_refuses():
    for y in (0.0, -1.0, math.nan, math.inf, 1e-310):
        with pytest.raises(ValueError):
            eta_log(y)


@pytest.mark.parametrize("index", range(4))
def test_theta_parts_mantissa_stays_of_order_unity_at_small_tau(index):
    # the modular walk's |tau|^{-1/2} (~45 at Im tau = 5e-4) belongs in the
    # scale: a product of 256 mantissas (W at N = 16) must not overflow.  A
    # mantissa is a ring sum at its peak term, below 4
    vs = np.linspace(-0.5, 1.5, 41)
    for im_tau in (1e-6, 5e-4, 0.1, 0.9):
        mant, _ = theta_parts(index, vs, 1j * im_tau)
        assert np.max(np.abs(mant)) < 4.0, im_tau


def test_oracle_reports_nonconvergence():
    with pytest.raises(AccuracyError):
        theta_series(3, 0.0, 1e-5j, cap=16)


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("v, error", [
    (np.nan, ValueError),
    (np.inf, ValueError),
    (-np.inf, ValueError),
    (complex(0.3, np.inf), ValueError),
    ([0.3, np.nan], ValueError),
    (1e300j, AccuracyError),
])
def test_theta_parts_rejects_unrepresentable_input(index, v, error):
    # non-finite arguments are not numbers to reduce; at |Im v| = 1e300 the
    # quasi-periodic prefactor e^{-pi Im tau m^2} leaves double range; the
    # error comes without numpy RuntimeWarnings
    with warnings.catch_warnings(), pytest.raises(error):
        warnings.simplefilter("error")
        theta_parts(index, v, 1j)


@pytest.mark.parametrize("tau", [1e-310j, 0.3 + 5e-324j, 0.5 * np.finfo(float).tiny * 1j])
def test_theta_parts_rejects_subnormal_im_tau(tau):
    # a subnormal Im tau has lost its digits: a ValueError, without numpy
    # RuntimeWarnings from the modular walk
    with warnings.catch_warnings(), pytest.raises(ValueError, match="normal imaginary part"):
        warnings.simplefilter("error")
        theta_parts(2, 0.1, tau)


def test_theta_parts_refuses_tau_past_double_range():
    # the series exponents start at pi Im tau: the largest Im tau that keeps it
    # finite is evaluated, the next double is a ValueError that names tau
    edge = sys.float_info.max / math.pi
    assert math.pi * edge < math.inf and math.pi * math.nextafter(edge, math.inf) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for im in (5e307, edge):
            m, s = theta_parts(2, 0.1, im * 1j)
            assert m == pytest.approx(1.902113032590307, rel=1e-14)
            assert s == pytest.approx(-math.pi * im / 4.0, rel=1e-15)
        for tau in (math.nextafter(edge, math.inf) * 1j, 1e308j, 0.3 + 1e308j):
            with pytest.raises(ValueError, match="tau too large"):
                theta_parts(2, 0.1, tau)
            with pytest.raises(ValueError, match="tau too large"):
                theta_series(2, 0.1, tau)


# the (v, tau) pairs of the verification theta suite's oracle line
SUITE_POINTS = [(0.31 + 0.12j, 0.8j), (-0.7 + 0.4j, 0.3j), (1.9 - 0.2j, 1.7j),
                (0.45, 0.09j), (2.2 + 1.1j, 2.5j)]


@pytest.mark.parametrize("idx", range(4))
def test_series_broadcasts_tau_bit_for_bit(idx):
    vs, taus = zip(*SUITE_POINTS)
    got = theta_series(idx, vs, taus)
    assert got.shape == (len(SUITE_POINTS),)
    for k, (v, tau) in enumerate(SUITE_POINTS):
        assert np.complex128(theta_series(idx, v, tau)).tobytes() == got[k].tobytes()
    # a scalar v against an array of tau broadcasts too
    v, tau = SUITE_POINTS[0]
    assert theta_series(idx, v, [tau, tau])[1] == theta_series(idx, v, tau)


@pytest.mark.parametrize("bad", [-1j, 0.5, 1e308j, complex(math.nan, 1.0), complex(1.0, math.inf)])
def test_series_checks_every_tau_as_the_scalar_call_does(bad):
    with pytest.raises(ValueError) as one:
        theta_series(2, 0.1, bad)
    with pytest.raises(ValueError) as many:
        theta_series(2, [0.1, 0.2, 0.3], [1j, bad, 0.5j])
    assert str(many.value) == str(one.value)


def test_theta_parts_overflow_in_the_modular_walk_is_quiet():
    # at Im tau < 1 the imaginary transform runs first, and its v^2 / tau
    # leaves double range before the quasi-periodic reduction does
    with warnings.catch_warnings(), pytest.raises(AccuracyError):
        warnings.simplefilter("error")
        theta_parts(1, 1e200j, 0.01j)


# ---------------------------------------------------------------------------
# high-precision oracle: mpmath.jtheta, sharing no code with theta_parts

def _mp_log_theta(mpmath, index, v, tau):
    """log theta_index(v | tau) from mpmath.jtheta, to 30 significant digits.

    jtheta(n, z, q) is the same series with z = pi v and q = e^{i pi tau}.
    The working precision grows as Im tau shrinks: the nome nears 1 and the
    series cancels by up to e^{-pi / (4 Im tau)}.  theta_0 is taken as theta_3
    at v + 1/2 (the two defining series), because jtheta(4, ...) loses every
    digit at large |Im z|: it gives ~1e994 for theta_0(0.31 + 400i | 1000i),
    whose value is ~1.  jtheta(1|2) carry the principal q^{1/4}, which the
    factor e^{i pi tau / 4} / q^{1/4} turns into this convention's for
    |Re tau| > 1.
    """
    with mpmath.workdps(40 + int(0.35 / tau.imag)):
        t = mpmath.mpc(tau.real, tau.imag)
        q = mpmath.exp(1j * mpmath.pi * t)
        z = mpmath.pi * mpmath.mpc(v.real, v.imag)
        if index == 0:
            val = mpmath.jtheta(3, z + mpmath.pi / 2, q)
        else:
            val = mpmath.jtheta(index, z, q)
        if index in (1, 2):
            val *= mpmath.exp(1j * mpmath.pi * t / 4) / q ** mpmath.mpf(0.25)
        return complex(mpmath.log(val))


# Im tau from 1e-3 to 1e3; Re tau != 0 (beyond +-1/2 it takes the shift branch
# of the modular walk); |Im v| up to 5.8 Im tau.  No multiple of Im tau in Im v
# is an integer or half-integer, which keeps every point off the theta zeros
# (m + a) tau + k + b, where a relative error has no meaning.  mpmath's
# complex-nome path itself loses all digits at large |Im z| and Im tau
# (theta_3(0.31 + 400i | -0.8 + 1000i) comes out ~e^2267 at any precision up
# to 1000 digits), so the shifted points stop at Im tau = 40.
@pytest.mark.parametrize("tau", [1e-3j, 0.62 + 0.004j, 0.02j, -0.7 + 0.05j, 1j,
                                 1.7 + 0.4j, -2.4 + 3j, 0.55 + 40j, 1e3j])
def test_theta_parts_matches_mpmath(tau):
    mpmath = pytest.importorskip("mpmath")
    vs = np.array([complex(re, f * tau.imag) for re, f in
                   ((0.31, 0.0), (-0.47, 0.4), (0.12, -1.3), (0.9, 3.7), (-0.2, -5.8))])
    for index in range(4):
        mant, scale = theta_parts(index, vs, tau)
        for v, m, s in zip(vs, mant, scale):
            ref = _mp_log_theta(mpmath, index, v, tau)
            got = np.log(m) + s
            err = abs(complex(got.real - ref.real,
                              math.remainder(got.imag - ref.imag, 2.0 * math.pi)))
            # the log scale is a double, so its own rounding grows with it
            assert err <= 1e-12 + 1e-15 * abs(ref.real), (index, v, tau, err)


# ---------------------------------------------------------------------------
# parts helpers

def test_parts_sum_from_minus_infinity_is_the_term():
    m = np.array([0.3 - 2.0j, -1.5 + 0.0j])
    s = np.array([12.5, -800.0])
    mant, top = parts_sum(np.zeros(2, dtype=complex), np.full(2, -np.inf), m, s)
    assert np.array_equal(mant, m) and np.array_equal(top, s)


def test_parts_sum_lets_a_term_underflow():
    with np.errstate(all="raise"):
        mant, top = parts_sum(2.0 + 1.0j, 0.0, 5.0, -800.0)
    assert mant == 2.0 + 1.0j and top == 0.0


def test_parts_sum_of_a_negated_term():
    # p1 e^{l1} - p2 e^{l2}, passed as the second term -p2
    mant, top = parts_sum(3.0, 0.0, -1.0, np.log(2.0))
    assert top == np.log(2.0)
    assert abs(mant - 0.5) < 1e-15
    mant, top = parts_sum(1j, 1e4, -1j, 1e4)
    assert mant == 0.0 and top == 1e4


def test_parts_value_overflows_quietly():
    with np.errstate(all="raise"):
        out = parts_value(np.array([2.0, 3.0, -1.0]), np.array([800.0, -800.0, 1.0]))
    assert out[0] == np.inf and out[1] == 0.0 and out[2] == -np.e

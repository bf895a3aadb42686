"""Jacobi theta functions at a purely imaginary half-period ratio.

Four families, indexed 0..3, of the classical one-variable theta series in the
(v, tau) convention with z = e^{i pi v}, q = e^{i pi tau}, tau = i y, y > 0:

    theta_0(v|tau) = sum_n (-1)^n q^{n^2} z^{2n}
    theta_1(v|tau) = i sum_n (-1)^n q^{(n-1/2)^2} z^{2n-1}
    theta_2(v|tau) = sum_n q^{(n-1/2)^2} z^{2n-1}
    theta_3(v|tau) = sum_n q^{n^2} z^{2n}

(sums over all integers n; theta_0 is often written theta_4 elsewhere).

The production evaluator `theta` / `theta_parts` combines three exact steps so
the raw series is only ever summed with a small nome and a reduced argument:

1. below Im tau = 1, one imaginary transformation tau -> -1/tau with its
   classical index swap and phase, which leaves Im tau >= 1;
2. quasi-periodic reduction v -> v - m*tau - k with the exact exponential
   prefactor, leaving |Re v| <= 1/2 and |Im v| <= Im tau / 2;
3. the series summed ring by ring (n and -n together) with a per-element peak
   exponent factored out, over a fixed number of rings -- at most 4 -- set by
   an a-priori tail bound.  Ring 1 takes two exponentials; each later ring is
   the one before times a constant and e^{+-2 pi i w}, one more exponential
   per point and its reciprocal, formed only while Im tau <= 12.5 keeps
   |e^{2 pi i w}| below e^{40} (see `_ring_sum`).

Each point is evaluated on its own, so a value does not depend on the length
of the array it was computed in.

Because the prefactors from steps 1-2 routinely overflow double precision in
downstream determinant work, `theta_parts` returns the value in
(mantissa, log_scale) form with value = mantissa * exp(log_scale), mantissa
of order unity.  `theta` exponentiates on the spot.

The modules downstream keep their values in that form.  A product of parts
is the product of the mantissas and the sum of the scales; everything else
goes through two helpers here:

- `parts_sum` adds two parts values at their common (larger) scale;
- `parts_value` exponentiates, letting out-of-range values overflow to inf.

A determinant of a parts matrix is taken by `macdonald.logdet`.

`eta_log` is log eta(i y) of the Dedekind eta function, for the time
coefficients downstream.

`theta_series` is an independent reference implementation (the plain defining
sum, no reduction, no transforms) used as an oracle in the test-suite; it is
only accurate for moderate arguments and deliberately shares no code with the
production path.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = [
    "AccuracyError",
    "eta_log",
    "parts_sum",
    "parts_value",
    "theta",
    "theta_parts",
    "theta_series",
]

# production rings: every ring whose a-priori bound is >= e^{-_LOG_TAIL}
_LOG_TAIL = math.log(1e17)
# arguments with |v|^2 <= _ARG_SAFE min(Im tau, 1), at Im tau <= _ARG_SAFE, keep
# every intermediate of `theta_parts` inside double range
_ARG_SAFE = 1e300
# the signs of +-a in a ring's two exponents, as the rows of one array
_UP_DOWN = np.array([[1.0], [-1.0]])
# oracle: stop when a ring's magnitude is below _ORACLE_STOP x accumulated
# magnitude, twice in a row
_ORACLE_STOP = 1e-17
_ORACLE_MAX_RINGS = 512

# tau -> -1/tau: index swap and eighth-root-of-unity prefactor
_INV_SWAP = {0: 2, 1: 1, 2: 0, 3: 3}
_INV_EPS = {i: np.exp((0.75j if i == 1 else 0.25j) * np.pi) for i in range(4)}


class AccuracyError(ArithmeticError):
    """A series, quadrature, or truncation failed to reach its target."""


def parts_sum(m1, s1, m2, s2):
    """m1 e^{s1} + m2 e^{s2} as (mantissa, log_scale) at the scale max(s1, s2).

    Broadcasts like numpy.  A scale of -inf is an exact zero term; at least
    one of the two scales must be finite.  Terms far below the common scale
    underflow to zero silently.
    """
    top = np.maximum(s1, s2)
    with np.errstate(under="ignore"):
        return m1 * np.exp(s1 - top) + m2 * np.exp(s2 - top), top


def parts_value(mant, scale):
    """mant * e^scale in plain doubles; out-of-range values overflow to inf
    or underflow to 0 without a warning."""
    with np.errstate(over="ignore", under="ignore"):
        return mant * np.exp(scale)


def _check_index(index):
    if index not in (0, 1, 2, 3):
        raise ValueError(f"theta index must be 0, 1, 2 or 3, got {index!r}")


def _check_tau(tau, who="tau"):
    """tau as a complex i y, or a ValueError whose message starts with `who`."""
    tau = complex(tau)
    if tau.real != 0.0 and math.isfinite(tau.real):
        raise ValueError(f"{who} must be purely imaginary (Re tau = 0), got {tau}")
    if not (math.isfinite(tau.real) and sys.float_info.min <= tau.imag < math.inf):
        raise ValueError(f"{who} must be finite with a positive, normal imaginary part, got {tau}")
    if not math.pi * tau.imag < math.inf:   # the series exponents start as pi Im tau
        raise ValueError(f"{who} too large: pi Im tau leaves double range, got {tau}")
    return tau


def _ring_sum(index, w, tau):
    """Sum the defining series at reduced argument w, |Re w|<=1/2, |Im w|<=Im tau/2.

    Returns (ssum, peak) with the series equal to ssum * exp(peak); peak is the
    real exponent of the largest term, factored out so ssum stays of order one
    even when Im tau is huge and the half-integer families' leading terms are
    e^{+pi Im tau / 4}-large.

    The ring count is fixed in advance.  With |Im w| at its limit Im tau / 2,
    ring n of the half-integer families (a = n - 1/2) is at most
    e^{-pi Im tau (n-1)^2} of the peak term, and of the integer families
    (a = n) at most e^{-pi Im tau n(n-1)}.  Every ring whose bound is >= 1e-17
    is summed, R = 1 + floor(sqrt(ln(1e17) / (pi Im tau))) of them: R <= 4
    after the imaginary transformation (Im tau >= 1), R = 1 once
    Im tau > 12.5.

    Ring 1 is two exponentials, e^{i pi tau a^2 +- 2 pi i a w - peak}.  Each
    later ring follows from the one before by addition sequence (Enge, Hart
    and Johansson, J. Integer Sequences 21, 2018): a -> a + 1 multiplies its
    two terms by the constant e^{i pi tau (2a + 1)} and by z = e^{2 pi i w} or
    1 / z, so R rings take three exponentials per point whatever R is.  The
    range guard: z is formed only when R > 1, that is Im tau <= 12.5, where
    |z| <= e^{pi Im tau} < e^{40}; the products stay below the ring they
    came from.  The family's ring signs ride on the constant.

    An exponent of ring 1 overflows only for a term that is exactly 0: past
    Im tau = 12.5 the real part -pi Im tau a^2 -+ 2 pi a Im w - peak stays
    within 3 pi Im tau / 4 for a = 1/2; for a = 1 (peak 0) it leaves double
    range only below -1.7e308, and exp gives the same 0 for the overflowed
    -inf as for the exact value.
    """
    zf = (2j * math.pi) * w
    if index in (1, 2):
        a = 0.5
        # dominant half-integer exponent: a = +-1/2, whichever sign matches Im w
        peak = math.pi * abs(w.imag) - 0.25 * math.pi * tau.imag
        base = (0.25j * math.pi) * tau - peak
        za = 0.5 * zf
    else:
        a = 1.0
        peak = np.zeros(w.shape)  # n = 0 term dominates after reduction
        base = 1j * math.pi * tau
        za = zf
    terms = np.exp(base + za * _UP_DOWN)     # rows: the +a and -a terms of a ring
    rings = 1 + int(math.sqrt(_LOG_TAIL / (math.pi * tau.imag)))
    if rings > 1:
        sign = -1.0 if index in (0, 1) else 1.0   # theta_0, theta_1 alternate
        z = np.exp(zf)
        ratio = np.concatenate((z, 1.0 / z)).reshape(terms.shape)
        total = terms
        for _ in range(rings - 1):
            step = sign * cmath.exp((1j * math.pi * (2.0 * a + 1.0)) * tau)
            a += 1.0
            terms = terms * ratio * step
            total = total + terms
        terms = total
    up, dn = terms
    if index == 0:
        return 1.0 - (up + dn), peak
    if index == 1:
        return (dn - up) * 1j, peak
    if index == 2:
        return up + dn, peak
    return 1.0 + (up + dn), peak


def _flip(k):
    """(-1)^k for integer-valued k, exactly: k/2 is then an integer or a
    half-integer.  Several times cheaper than np.fmod on large arrays."""
    h = 0.5 * k
    return 1.0 - 4.0 * abs(h - np.rint(h))


def _reduced_parts(index, w, tau):
    """theta_index(w | tau) as (mantissa, log_scale) arrays over the flat w:
    the inversion, the quasi-periodic reduction and the ring sum."""
    # Factors collected on the way: `phase` a scalar, `mant`, `scale` and the
    # sign flips `sign` scalars until a step makes them per point.  Every
    # product is out of place: numpy rounds an in-place complex product on a
    # length-1 array differently.
    idx, phase, mant, scale, sign = index, 1.0, 1.0, 0.0, 1.0
    # imaginary transformation tau -> -1/tau, once, below Im tau = 1
    if tau.imag < 1.0:
        # integer shift of the argument first, to keep v^2/tau well-conditioned
        k0 = np.rint(w.real)
        if idx in (1, 2):
            sign = sign * _flip(k0)
        w = w - k0
        pref = (-1j * math.pi / tau) * w * w
        scale = scale + pref.real
        mant = mant * np.exp(1j * pref.imag)
        # tau^{-1/2}: its modulus (up to ~1e154 for a small Im tau) goes to
        # the scale, its phase to the mantissa, which stays of order unity
        log_tau = cmath.log(tau)
        scale = scale - 0.5 * log_tau.real
        phase *= _INV_EPS[idx] * cmath.exp(-0.5j * log_tau.imag)
        idx = _INV_SWAP[idx]
        w = w / tau
        tau = -1.0 / tau

    # quasi-periodic reduction to |Re w| <= 1/2, |Im w| <= Im tau / 2
    m = np.rint(w.imag / tau.imag)
    shifted = m.any()
    if shifted:
        w = w - m * tau
        if idx in (0, 1):
            sign = sign * _flip(m)
    k = np.rint(w.real)
    w = w - k
    if idx in (1, 2):
        sign = sign * _flip(k)
    if shifted:
        pref = (-1j * math.pi * tau) * (m * m) - (2j * math.pi) * m * w
        scale = scale + pref.real
        mant = mant * np.exp(1j * pref.imag)

    ssum, peak = _ring_sum(idx, w, tau)
    return mant * ssum * (phase * sign), scale + peak


def theta_parts(index, v, tau):
    """Evaluate theta_index(v | tau) as (mantissa, log_scale).

    Parameters
    ----------
    index : int
        Family index, 0..3.
    v : complex or array_like of complex
        Argument(s).  Vectorized; tau is a scalar.
    tau : complex
        Half-period ratio i y, y > 0: Re tau = 0.

    Returns
    -------
    mantissa : complex ndarray (or scalar)
        Order-unity complex factor.
    log_scale : float ndarray (or scalar)
        Real exponent; the function value is ``mantissa * exp(log_scale)``.

    Every point is evaluated on its own: a value does not depend on the shape
    or length of the array it was computed in, bit for bit.

    Raises ValueError for a non-finite v or a tau that is not i y with y a
    positive normal double and pi y a double, and AccuracyError when the
    quasi-periodic prefactor leaves double range (|Im v| ~ 1e154 Im tau).

    Notes
    -----
    The split exists because quasi-periodic prefactors grow like
    e^{pi Im(tau) m^2}: determinants and kernel sums downstream consume the
    two parts separately and only ever exponentiate differences of scales.
    """
    _check_index(index)
    tau = _check_tau(tau)
    w = np.asarray(v, dtype=complex)
    shape = w.shape
    w = w.ravel()
    lim = float(abs(w.view(float)).max(initial=0.0))
    if not lim < math.inf:
        raise ValueError("theta argument must be finite")
    # |w|^2 / Im tau does not grow under the transformation and bounds every
    # exponent after it, so below these sizes nothing can overflow.
    if lim * lim <= _ARG_SAFE * min(tau.imag, 1.0) and tau.imag <= _ARG_SAFE:
        mant, scale = _reduced_parts(index, w, tau)
    else:
        # an argument past double range overflows on the way (inf, nan), quietly
        with np.errstate(over="ignore", invalid="ignore"):
            mant, scale = _reduced_parts(index, w, tau)
        if not (np.isfinite(scale).all() and np.isfinite(mant).all()):
            raise AccuracyError("theta argument too large: its quasi-periodic "
                                "prefactor leaves double range")
    if not shape:
        return complex(mant[0]), float(scale[0])
    return mant.reshape(shape), scale.reshape(shape)


def theta(index, v, tau):
    """theta_index(v | tau), exponentiated.  See `theta_parts` for the split form.

    Overflows to inf for arguments whose quasi-periodic prefactor exceeds
    double range; use `theta_parts` there.
    """
    return parts_value(*theta_parts(index, v, tau))


def theta_series(index, v, tau, cap=_ORACLE_MAX_RINGS):
    """Defining series summed term by term -- reference oracle.

    No argument reduction and no modular transforms: this is the textbook sum,
    ring-ordered (n and -n together), stopping at each point once a ring is
    below 1e-17 of the accumulated magnitude twice in a row.  Intended for
    moderate arguments (Im tau >= ~0.05, |Im v| a few units); raises
    AccuracyError when the plain sum cannot converge in `cap` rings.

    tau broadcasts against v, so points at several tau take one call; each
    value equals the one-point call bit for bit.  Every tau is checked as
    the scalar call checks it.
    """
    _check_index(index)
    tau = np.array([_check_tau(u) for u in np.ravel(tau)], dtype=complex).reshape(np.shape(tau))
    w, tau = np.broadcast_arrays(np.asarray(v, dtype=complex), tau)
    scalar = w.ndim == 0
    w, tau = np.atleast_1d(w), np.atleast_1d(tau)
    qf = 1j * np.pi * tau
    zf = 2j * np.pi * w
    if index in (0, 3):
        total = np.ones(w.shape, dtype=complex)
        mag = np.ones(w.shape)
        offset = 0.0
    else:
        total = np.zeros(w.shape, dtype=complex)
        mag = np.zeros(w.shape)
        offset = 0.5
    conv = np.zeros(w.shape, dtype=np.int64)
    for n in range(1, cap + 1):
        a = n - offset
        up = np.exp(qf * (a * a) + zf * a)
        dn = np.exp(qf * (a * a) - zf * a)
        if index in (2, 3):
            ring = up + dn
        elif index == 0:
            ring = (-1.0) ** n * (up + dn)
        else:
            ring = 1j * (-1.0) ** n * (up - dn)
        active = conv < 2
        rmag = np.abs(ring)
        total = np.where(active, total + ring, total)
        mag = np.where(active, mag + rmag, mag)
        conv = np.where(active, np.where(rmag <= _ORACLE_STOP * mag, conv + 1, 0), conv)
        if int(conv.min()) >= 2:
            break
    else:
        raise AccuracyError(f"plain theta series did not converge in {cap} rings")
    if scalar:
        return complex(total[0])
    return total


def eta_log(tau_im):
    """log eta(i y) of the Dedekind eta function at y = tau_im > 0, a real
    number: eta is positive on the imaginary axis.

    eta(i y) = e^{-pi y / 12} prod_{n>=1} (1 - e^{-2 pi n y}).  Below y = 1 the
    modular transformation eta(i / y) = y^{1/2} eta(i y) (DLMF 23.15.5) moves
    the argument to 1 / y first, so the product is always summed as logs at a
    nome e^{-2 pi y} <= e^{-2 pi}, where seven factors reach 1e-17.
    """
    y = _check_tau(1j * tau_im).imag
    shift = 0.0
    if y < 1.0:
        y, shift = 1.0 / y, 0.5 * math.log(y)
    tail = sum(math.log1p(-math.exp(-2.0 * math.pi * n * y)) for n in range(7, 0, -1))
    return -math.pi * y / 12.0 + tail - shift

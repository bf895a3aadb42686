"""Jacobi theta functions on the upper half-plane.

Four families, indexed 0..3, of the classical one-variable theta series in the
(v, tau) convention with z = e^{i pi v}, q = e^{i pi tau}, Im tau > 0:

    theta_0(v|tau) = sum_n (-1)^n q^{n^2} z^{2n}
    theta_1(v|tau) = i sum_n (-1)^n q^{(n-1/2)^2} z^{2n-1}
    theta_2(v|tau) = sum_n q^{(n-1/2)^2} z^{2n-1}
    theta_3(v|tau) = sum_n q^{n^2} z^{2n}

(sums over all integers n; theta_0 is often written theta_4 elsewhere).

The production evaluator `theta` / `theta_parts` combines three exact steps so
the raw series is only ever summed with a small nome and a reduced argument:

1. a fundamental-domain walk in tau (integer shifts tau -> tau - n and
   inversions tau -> -1/tau, each with its classical index swap and phase),
   which leaves Im tau >= sqrt(3)/2 for any input with Im tau > 0;
2. quasi-periodic reduction v -> v - m*tau - k with the exact exponential
   prefactor, leaving |Re v| <= 1/2 and |Im v| <= Im tau / 2;
3. the series summed ring by ring (n and -n together) with a per-element peak
   exponent factored out, over a fixed number of rings -- at most 4 -- set by
   an a-priori tail bound (see `_ring_sum`).

Because the prefactors from steps 1-2 routinely overflow double precision in
downstream determinant work, `theta_parts` returns the value in
(mantissa, log_scale) form with value = mantissa * exp(log_scale), mantissa
of order unity.  `theta` exponentiates on the spot.

The modules downstream keep their values in that form.  A product of parts
is the product of the mantissas and the sum of the scales; everything else
goes through three helpers here:

- `parts_sum` adds two parts values at their common (larger) scale;
- `parts_equilibrate` splits a stack of parts matrices row by row into a
  matrix of order-unity rows and the row scales, for LU and condition
  estimates;
- `parts_value` exponentiates, letting out-of-range values overflow to inf.

`eta_log` is log eta(i y) of the Dedekind eta function, for the time
coefficients downstream.

`theta_series` is an independent reference implementation (the plain defining
sum, no reduction, no transforms) used as an oracle in the test-suite; it is
only accurate for moderate arguments and deliberately shares no code with the
production path.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "AccuracyError",
    "eta_log",
    "parts_equilibrate",
    "parts_sum",
    "parts_value",
    "theta",
    "theta_parts",
    "theta_series",
]

# production rings: every ring whose a-priori bound is >= e^{-_LOG_TAIL}
_LOG_TAIL = math.log(1e17)
# oracle: stop when a ring's magnitude is below _ORACLE_STOP x accumulated
# magnitude, twice in a row
_ORACLE_STOP = 1e-17
_ORACLE_MAX_RINGS = 512

# tau -> -1/tau: index swap and eighth-root-of-unity prefactor
_INV_SWAP = {0: 2, 1: 1, 2: 0, 3: 3}
_INV_EPS = {
    0: np.exp(0.25j * np.pi),
    1: np.exp(0.75j * np.pi),
    2: np.exp(0.25j * np.pi),
    3: np.exp(0.25j * np.pi),
}


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


def parts_equilibrate(mant, scale):
    """Row-equilibrate matrices given as parts, stacked over leading axes.

    Returns (tilde, row) with matrix = tilde * e^{row} row by row: each row
    of tilde is at its own largest scale, so LU and condition estimates see
    order-unity entries; the log-determinant is that of tilde plus row.sum.
    """
    row = scale.max(axis=-1)
    return mant * np.exp(scale - row[..., None]), row


def parts_value(mant, scale):
    """mant * e^scale in plain doubles; out-of-range values overflow to inf
    or underflow to 0 without a warning."""
    with np.errstate(over="ignore", under="ignore"):
        return mant * np.exp(scale)


def _check_index(index):
    if index not in (0, 1, 2, 3):
        raise ValueError(f"theta index must be 0, 1, 2 or 3, got {index!r}")


def _check_tau(tau):
    tau = complex(tau)
    if not (np.isfinite(tau.real) and sys.float_info.min <= tau.imag < np.inf):
        raise ValueError(f"tau must be finite with a positive, normal imaginary part, got {tau}")
    if not np.pi * tau.imag < np.inf:   # the series exponents start as pi Im tau
        raise ValueError(f"tau too large: pi Im tau leaves double range, got {tau}")
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
    after the fundamental-domain walk (Im tau >= sqrt(3)/2), R = 1 once
    Im tau > 12.5.

    An exponent overflows only for a term that is exactly 0: pi Im tau is
    finite (`theta_parts` formed pi tau m^2), and past Im tau = 12.5 the real
    part -pi Im tau a^2 -+ 2 pi a Im w - peak stays within 3 pi Im tau / 4 for
    a = 1/2; for a = 1 (peak 0) it leaves double range only below -1.7e308,
    and exp gives the same 0 for the overflowed -inf as for the exact value.
    """
    qf = 1j * np.pi * tau
    zf = 2j * np.pi * w
    if index in (0, 3):
        peak = np.zeros(w.shape)  # n = 0 term dominates after reduction
        total = np.ones(w.shape, dtype=complex)
        offset = 0.0
    else:
        # dominant half-integer exponent: a = +-1/2, whichever sign matches Im w
        peak = -0.25 * np.pi * tau.imag + np.pi * np.abs(w.imag)
        total = np.zeros(w.shape, dtype=complex)
        offset = 0.5
    rings = 1 + int(math.sqrt(_LOG_TAIL / (math.pi * tau.imag)))
    with np.errstate(over="ignore"):    # an exponent to -inf; see above
        for n in range(1, rings + 1):
            a = n - offset
            up = np.exp(qf * (a * a) + zf * a - peak)
            dn = np.exp(qf * (a * a) - zf * a - peak)
            ring = up - dn if index == 1 else up + dn
            if index == 1:
                ring = (1j if n % 2 == 0 else -1j) * ring
            elif index == 0 and n % 2:
                ring = -ring
            total = total + ring
    return total, peak


def theta_parts(index, v, tau):
    """Evaluate theta_index(v | tau) as (mantissa, log_scale).

    Parameters
    ----------
    index : int
        Family index, 0..3.
    v : complex or array_like of complex
        Argument(s).  Vectorized; tau is a scalar.
    tau : complex
        Half-period ratio, Im tau > 0.

    Returns
    -------
    mantissa : complex ndarray (or scalar)
        Order-unity complex factor.
    log_scale : float ndarray (or scalar)
        Real exponent; the function value is ``mantissa * exp(log_scale)``.

    Raises ValueError for a non-finite v or a tau whose pi Im tau leaves
    double range, and AccuracyError when the quasi-periodic prefactor does
    (|Im v| ~ 1e154 Im tau).

    Notes
    -----
    The split exists because quasi-periodic prefactors grow like
    e^{pi Im(tau) m^2}: determinants and kernel sums downstream consume the
    two parts separately and only ever exponentiate differences of scales.
    """
    _check_index(index)
    tau_c = _check_tau(tau)
    w = np.array(v, dtype=complex, copy=True)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if not np.all(np.isfinite(w)):
        raise ValueError("theta argument must be finite")
    mant = np.ones(w.shape, dtype=complex)
    scale = np.zeros(w.shape)
    idx = index

    # An argument past double range overflows below (inf, nan); the
    # finiteness check at the end of the reduction raises for it.
    with np.errstate(over="ignore", invalid="ignore"):
        # Fundamental-domain walk: shift Re tau into [-1/2, 1/2], invert while
        # |tau| < 1.  For purely imaginary tau this is the familiar single
        # imaginary transformation applied exactly when Im tau < 1.
        for _ in range(64):
            nsh = int(round(tau_c.real))
            if nsh:
                tau_c = complex(tau_c.real - nsh, tau_c.imag)
                if idx in (1, 2):
                    mant *= np.exp(0.25j * np.pi * nsh)
                elif nsh % 2:
                    idx = 3 - idx  # 0 <-> 3 under odd shifts
            if abs(tau_c) >= 1.0:
                break
            # integer shift of the argument first, to keep v^2/tau well-conditioned
            k0 = np.round(w.real)
            if idx in (1, 2):
                mant = np.where(k0 % 2.0 == 0.0, mant, -mant)
            w = w - k0
            pref = (-1j * np.pi / tau_c) * w * w
            scale += pref.real
            mant *= np.exp(1j * pref.imag)
            # tau^{-1/2}: its modulus (up to ~1e154 for a small Im tau) goes to
            # the scale, its phase to the mantissa, which stays of order unity
            log_tau = np.log(tau_c)
            scale -= 0.5 * log_tau.real
            mant *= _INV_EPS[idx] * np.exp(-0.5j * log_tau.imag)
            idx = _INV_SWAP[idx]
            w = w / tau_c
            tau_c = -1.0 / tau_c
        else:  # pragma: no cover - needs adversarial tau to trigger
            raise AccuracyError(f"modular reduction did not terminate for tau = {tau}")

        # quasi-periodic reduction to |Re w| <= 1/2, |Im w| <= Im tau / 2
        m = np.round(w.imag / tau_c.imag)
        w = w - m * tau_c
        k = np.round(w.real)
        w = w - k
        if idx == 1:
            flip = (m + k) % 2.0 != 0.0
        elif idx == 2:
            flip = k % 2.0 != 0.0
        elif idx == 0:
            flip = m % 2.0 != 0.0
        else:
            flip = np.zeros(w.shape, dtype=bool)
        pref = -1j * np.pi * tau_c * (m * m) - 2j * np.pi * m * w
        scale += pref.real
        if not np.all(np.isfinite(scale)):
            raise AccuracyError("theta argument too large: its quasi-periodic "
                                "prefactor leaves double range")
    mant *= np.exp(1j * pref.imag)
    mant = np.where(flip, -mant, mant)

    ssum, peak = _ring_sum(idx, w, tau_c)
    mant = mant * ssum
    scale = scale + peak
    if scalar:
        return complex(mant[0]), float(scale[0])
    return mant, scale


def theta(index, v, tau):
    """theta_index(v | tau), exponentiated.  See `theta_parts` for the split form.

    Overflows to inf for arguments whose quasi-periodic prefactor exceeds
    double range; use `theta_parts` there.
    """
    return parts_value(*theta_parts(index, v, tau))


def theta_series(index, v, tau, cap=_ORACLE_MAX_RINGS):
    """Defining series summed term by term -- reference oracle.

    No argument reduction and no modular transforms: this is the textbook sum,
    ring-ordered (n and -n together), stopping once a ring is below 1e-17 of
    the accumulated magnitude twice in a row.  Intended for moderate
    arguments (Im tau >= ~0.05, |Im v| a few units); raises AccuracyError when
    the plain sum cannot converge in `cap` rings.
    """
    _check_index(index)
    tau = _check_tau(tau)
    w = np.array(v, dtype=complex, copy=True)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
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
        if index == 3:
            ring = up + dn
        elif index == 0:
            ring = (-1.0) ** n * (up + dn)
        elif index == 2:
            ring = up + dn
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

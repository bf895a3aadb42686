"""Biorthogonal one-particle theta systems for the seven families.

For a family (tag, N, r) the N one-particle functions at time t are built from
a single building block per sharp shape:

    block_A(sigma, z | tau) = e^{2 pi i sigma z} theta_2(sigma tau + z | tau)
    block_B(sigma, z | tau) = e^{2 pi i sigma z} theta_1(sigma tau + z | tau)
                            - e^{-2 pi i sigma z} theta_1(sigma tau - z | tau)
    block_C = the theta_2 analogue of block_B (minus sign)
    block_D = the theta_2 analogue with a plus sign

evaluated at sigma = J(j)/size, z = size * xi(x), tau = size^2 * tau_t, where
xi(x) = x/(2 pi r) and tau_t = i t/(2 pi r^2) are the scaled coordinates.

The j-th function at time t*-t and the k-th at time t are biorthogonal on the
alcove: integrating conj(f_j(x, t*-t)) f_k(x, t) dx returns norm(j) delta_jk,
with closed-form norms.  The verification suite checks this through the Gram
matrix of the kernel's balanced factors.

Every use takes the system whole, so both entry points give all N:
`m_fn_parts` the N functions, vectorized over x, in (mantissa, log_scale)
form for determinant work at large time scales (`theta_core.parts_value`
exponentiates them), and `norm_const_log` the logs of the N norms.
"""

from __future__ import annotations

import numpy as np

from .theta_core import AccuracyError, parts_sum, theta_parts

__all__ = ["m_fn_parts", "norm_const_log", "theta_block_parts"]


def theta_block_parts(shape, sigma, z, tau):
    """One building block in (mantissa, log_scale) form, vectorized over z.

    One theta call: for B, C and D the arguments sigma tau + z and
    sigma tau - z are stacked into it.
    """
    z = np.asarray(z, dtype=complex)
    arg = sigma * tau + z
    e = np.atleast_1d(2j * np.pi * sigma * z)
    # np.multiply fixes the operand order: on large arrays numpy's temporary
    # elision turns `m * np.exp(...)` into an in-place product with swapped
    # operands, and the fused complex product is not bitwise commutative, so
    # the mantissas would depend on how many values one call evaluates
    if shape == "A":
        m, s = theta_parts(2, arg, tau)
        return np.multiply(m, np.exp(1j * e.imag)), s + e.real
    idx = 1 if shape == "B" else 2
    sign = 1.0 if shape == "D" else -1.0
    (m1, m2), (s1, s2) = theta_parts(idx, np.stack((arg, sigma * tau - z)), tau)
    return parts_sum(np.multiply(m1, np.exp(1j * e.imag)), s1 + e.real,
                     sign * np.multiply(m2, np.exp(-1j * e.imag)), s2 - e.real)


def m_fn_parts(d, x, t):
    """The N one-particle functions at positions x, time t, in parts form,
    with a leading axis over the functions, from one building-block call
    (they share tau)."""
    tau = d.tau(t, "m_fn_parts", 2)
    z = np.atleast_1d(d.size * (np.asarray(x, dtype=float) / (2.0 * np.pi * d.r)))  # size xi(x)
    sigma = (np.asarray(d.offsets) / d.size).reshape((d.N,) + (1,) * z.ndim)
    return theta_block_parts(d.sharp, sigma, z, tau)


def norm_const_log(d, t_star):
    """logs of the N biorthogonality norms (they are positive reals), from one
    theta call (they share tau)."""
    tau_t, tau = (d.tau(t_star, "norm_const_log", p) for p in (0, 2))
    J = np.asarray(d.offsets)
    m, s = theta_parts(2, d.size * J * tau_t, tau)
    ok = (np.abs(m.imag) <= 1e-12 * np.abs(m)) & (m.real > 0.0)
    if not ok.all():
        raise AccuracyError(f"norm lost positivity: mantissa {m[~ok]} for "
                            f"j={np.flatnonzero(~ok) + 1}")
    # on an interval the norms with J(j) = 0 or size/2 carry a factor 2
    mult = np.where(np.isin(J, (0.0, d.size / 2) if d.walls != "circ" else ()), 2.0, 1.0)
    return np.log(2.0 * np.pi * d.r * mult * m.real) + s

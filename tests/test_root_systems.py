"""Family catalog tests: worked examples, structural invariants, and the
rules derived from the family record against the per-tag tables they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptic_dpp.biortho import norm_const_log
from elliptic_dpp.bridges import r_matrix
from elliptic_dpp.dpp_kernels import trig_kernel
from elliptic_dpp.root_systems import FAMILIES, FamilySpec, derive
from elliptic_dpp.theta_core import theta_parts


def test_worked_example_a3():
    d = derive(("A", 3, 1.0))
    assert d.size == 3
    assert d.offsets == (0.5, 1.5, 2.5)
    assert d.length == pytest.approx(2 * math.pi)
    assert d.walls == "circ"
    assert d.pinned == pytest.approx((0.0, 2 * math.pi / 3, 4 * math.pi / 3))
    assert d.parity == "odd"


def test_worked_example_c2():
    d = derive(("C", 2, 1.0))
    assert d.size == 6
    assert d.offsets == (1.0, 2.0)
    assert d.walls == "aa"
    assert d.pinned == pytest.approx((math.pi / 3, 2 * math.pi / 3))


def test_worked_example_d2():
    d = derive(("D", 2, 1.0))
    assert d.size == 2
    assert d.offsets == (0.0, 1.0)
    assert d.walls == "rr"
    assert d.pinned == pytest.approx((0.0, math.pi))


def test_sharp_map():
    assert derive(("A", 2)).sharp == "A"
    assert derive(("B", 2)).sharp == "B"
    assert derive(("Bv", 2)).sharp == "B"
    assert derive(("C", 2)).sharp == "C"
    assert derive(("Cv", 2)).sharp == "C"
    assert derive(("BC", 2)).sharp == "C"
    assert derive(("D", 2)).sharp == "D"


def test_validation_errors():
    with pytest.raises(ValueError):
        derive(("E", 3))
    with pytest.raises(ValueError):
        derive(("D", 1))  # D needs two particles
    with pytest.raises(ValueError):
        derive(("A", 0))
    with pytest.raises(ValueError):
        FamilySpec("A", 3, -1.0)
    with pytest.raises(ValueError):
        FamilySpec("A", 2.5, 1.0)  # type: ignore[arg-type]
    for r in (0.0, float("nan"), float("inf"), 1e-200, 1e-160, 1e160, 1e200):
        with pytest.raises(ValueError):
            derive(("A", 2, r))  # r, r**2 or 1/r**2 not a positive finite double


@given(
    tag=st.sampled_from(FAMILIES),
    N=st.integers(1, 12),
    r=st.floats(0.1, 10.0),
)
def test_structural_invariants(tag, N, r):
    if tag == "D" and N < 2:
        N = 2
    d = derive((tag, N, r))
    assert isinstance(d, FamilySpec)
    # sizes are positive and scale linearly with N
    assert d.size >= 1
    # offsets strictly increasing, step one
    for a, b in zip(d.offsets, d.offsets[1:]):
        assert b - a == pytest.approx(1.0)
    # pinned configuration strictly increasing inside the alcove
    assert all(x2 > x1 for x1, x2 in zip(d.pinned, d.pinned[1:]))
    assert d.pinned[0] >= 0.0
    if tag == "A":
        assert d.pinned[-1] < d.length
    else:
        assert d.pinned[-1] <= d.length + 1e-12
    # the interval families keep the pinned points in [0, pi r]; endpoint
    # membership is family-dependent
    if tag in ("B", "Cv"):
        assert d.pinned[-1] == pytest.approx(math.pi * r)
    if tag in ("Bv", "C", "BC"):
        assert d.pinned[-1] < math.pi * r
    if tag == "D":
        assert d.pinned[0] == 0.0
        assert d.pinned[-1] == pytest.approx(math.pi * r)


@given(N=st.integers(1, 9))
def test_a_parity_flag(N):
    assert derive(("A", N)).parity == ("even" if N % 2 == 0 else "odd")


@pytest.mark.parametrize("tag", FAMILIES)
def test_derive_accepts_its_own_output(tag):
    d = derive(FamilySpec(tag, 3, 0.7))
    assert derive(d) is d
    assert derive((tag, 3, 0.7)) == d


# ---------------------------------------------------------------------------
# the rules derived from the record, against the per-tag tables they replace
# (written out here, so the oracle shares no code with `root_systems`)

_SIZE = {"A": lambda N: N, "B": lambda N: 2 * N - 1, "Bv": lambda N: 2 * N,
         "C": lambda N: 2 * (N + 1), "Cv": lambda N: 2 * N, "BC": lambda N: 2 * N + 1,
         "D": lambda N: 2 * (N - 1)}
_TRIG = {"B": (lambda N: 2 * N, -1.0), "BC": (lambda N: 2 * N, -1.0),
         "Cv": (lambda N: 2 * N, -1.0), "C": (lambda N: 2 * N + 1, -1.0),
         "Bv": (lambda N: 2 * N + 1, -1.0), "D": (lambda N: 2 * N - 1, 1.0)}
_SHAPE = {"A": "A", "B": "B", "Bv": "B", "C": "C", "Cv": "C", "BC": "C", "D": "D"}
_RADII = (0.05, 1.0 / 3.0, 2.5)


def _offsets_table(tag, N):
    if tag in ("A", "Cv"):
        return tuple(j - 0.5 for j in range(1, N + 1))
    if tag in ("B", "Bv", "D"):
        return tuple(float(j - 1) for j in range(1, N + 1))
    return tuple(float(j) for j in range(1, N + 1))


def _pinned_table(tag, N, r):
    two_pi_r, size = 2.0 * math.pi * r, _SIZE[tag](N)
    if tag == "A":
        return tuple(two_pi_r * (j - 1) / N for j in range(1, N + 1))
    if tag in ("B", "Bv"):
        return tuple(two_pi_r * (j - 0.5) / size for j in range(1, N + 1))
    if tag in ("C", "Cv", "BC"):
        return tuple(two_pi_r * j / size for j in range(1, N + 1))
    return tuple(math.pi * r * (j - 1) / (N - 1) for j in range(1, N + 1))


def _doubled_norms(tag, N):
    return {"B": (1,), "Bv": (1,), "D": (1, N)}.get(tag, ())


def _half_columns(tag, N):
    return {"B": (N,), "Cv": (N,), "D": (1, N)}.get(tag, ())


def _families(tag, radii=_RADII):
    return [(N, r) for N in range(2 if tag == "D" else 1, 13) for r in radii]


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("tag", FAMILIES)
def test_record_matches_the_replaced_tables(tag):
    for N, r in _families(tag):
        d = derive((tag, N, r))
        assert d.size == _SIZE[tag](N)
        assert d.sharp == _SHAPE[tag]
        assert _bits(d.offsets) == _bits(_offsets_table(tag, N))
        assert _bits(d.pinned) == _bits(_pinned_table(tag, N, r))
        assert d.length.hex() == ((2.0 if tag == "A" else 1.0) * math.pi * r).hex()
        assert d.parity == (("even" if N % 2 == 0 else "odd") if tag == "A" else None)


@pytest.mark.parametrize("tag", FAMILIES)
def test_doubled_norms_match_the_replaced_table(tag):
    # m_j = 2 pi r mult_j theta_2(size J(j) tau* | size^2 tau*), mult_j = 2 exactly
    # on the listed j (for odd N on the circle J = size/2 is not doubled)
    t_star = 0.9
    for N, r in _families(tag, (0.7, 1.0, 2.5)):
        size, J = _SIZE[tag](N), np.asarray(_offsets_table(tag, N))
        tau = 1j * t_star / (2.0 * math.pi * r * r)
        m, s = theta_parts(2, size * J * tau, size * size * tau)
        mult = [2.0 if j in _doubled_norms(tag, N) else 1.0 for j in range(1, N + 1)]
        want = np.log(2.0 * math.pi * r * np.asarray(mult) * m.real) + s
        got = norm_const_log((tag, N, r), np.arange(1, N + 1), t_star)
        assert np.max(np.abs(got - want)) < 1e-12, (N, r)


@pytest.mark.parametrize("tag", FAMILIES)
def test_r_matrix_half_columns_match_the_replaced_table(tag):
    # r(t)_jk = p E_j f(arg_jk), with p = 4 pi r / size (2 pi r / size on the
    # circle) halved on the listed columns, E_j = e^{J^2 t / 2 r^2},
    # arg_jk = (size - 2 J(j)) v_k / 2 r and f by sharp shape
    f = {"A": lambda a: np.exp(-1j * a), "B": np.sin, "C": lambda a: np.sin(a) / 1j,
         "D": np.cos}[_SHAPE[tag]]
    t = 0.3
    for N, r in _families(tag, (0.7, 1.0, 2.5)):
        size, J = _SIZE[tag](N), np.asarray(_offsets_table(tag, N))
        v = np.asarray(_pinned_table(tag, N, r))
        half = [k in _half_columns(tag, N) for k in range(1, N + 1)]
        p = (2.0 if tag == "A" else 4.0) * math.pi * r / size * np.where(half, 0.5, 1.0)
        want = p[None, :] * f((size - 2.0 * J)[:, None] * v[None, :] / (2.0 * r))
        got = r_matrix((tag, N, r), t) / np.exp(J * J * t / (2.0 * r * r))[:, None]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), (N, r)


@pytest.mark.parametrize("tag", FAMILIES)
def test_trig_kernel_multiplier_and_sign_match_the_replaced_table(tag):
    # (sin(c u) / sin u + sign sin(c w) / sin w) / 2 pi r with u = (x - y) / 2r,
    # w = (x + y) / 2r; the circle has c = N and no image term
    for N, r in _families(tag):
        c, sign = (N, 0.0) if tag == "A" else (_TRIG[tag][0](N), _TRIG[tag][1])
        x = np.array([0.13, 0.41, 0.77]) * math.pi * r
        y = np.array([0.58, 0.29, 0.91]) * math.pi * r
        u, w = (x - y) / (2.0 * r), (x + y) / (2.0 * r)
        want = (np.sin(c * u) / np.sin(u) + sign * np.sin(c * w) / np.sin(w)) / (2 * math.pi * r)
        got = trig_kernel((tag, N, r), x, y)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11 * c / r), (N, r)

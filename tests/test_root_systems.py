"""Family catalog tests: worked examples, structural invariants, and the
rules derived from the family record against the per-tag tables they replaced."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptic_dpp import root_systems
from elliptic_dpp.biortho import m_fn_parts, norm_const_log
from elliptic_dpp.bridges import (bridge_density, ck_residual, eta_formula_residual,
                                  macdonald_kmlgv_residual, matrix_identity_residual, r_matrix,
                                  transition)
from elliptic_dpp.dpp_kernels import (KernelSpec, bin_intensity, corr_det, intensity, kernel,
                                      kernel_matrix, trig_kernel)
from elliptic_dpp.macdonald import coeff_a_log, denominator_residual, rhs_logc
from elliptic_dpp.root_systems import FAMILIES, FamilySpec
from elliptic_dpp.theta_core import theta_parts


def test_worked_example_a3():
    d = FamilySpec("A", 3, 1.0)
    assert d.size == 3
    assert d.offsets == (0.5, 1.5, 2.5)
    assert d.length == pytest.approx(2 * math.pi)
    assert d.walls == "circ"
    assert d.pinned == pytest.approx((0.0, 2 * math.pi / 3, 4 * math.pi / 3))
    assert d.parity == "odd"


def test_worked_example_c2():
    d = FamilySpec("C", 2, 1.0)
    assert d.size == 6
    assert d.offsets == (1.0, 2.0)
    assert d.walls == "aa"
    assert d.pinned == pytest.approx((math.pi / 3, 2 * math.pi / 3))


def test_worked_example_d2():
    d = FamilySpec("D", 2, 1.0)
    assert d.size == 2
    assert d.offsets == (0.0, 1.0)
    assert d.walls == "rr"
    assert d.pinned == pytest.approx((0.0, math.pi))


def test_sharp_map():
    assert FamilySpec("A", 2).sharp == "A"
    assert FamilySpec("B", 2).sharp == "B"
    assert FamilySpec("Bv", 2).sharp == "B"
    assert FamilySpec("C", 2).sharp == "C"
    assert FamilySpec("Cv", 2).sharp == "C"
    assert FamilySpec("BC", 2).sharp == "C"
    assert FamilySpec("D", 2).sharp == "D"


def test_validation_errors():
    with pytest.raises(ValueError):
        FamilySpec("E", 3)
    with pytest.raises(ValueError):
        FamilySpec("D", 1)  # D needs two particles
    with pytest.raises(ValueError):
        FamilySpec("A", 0)
    with pytest.raises(ValueError):
        FamilySpec("A", 3, -1.0)
    with pytest.raises(ValueError):
        FamilySpec("A", 2.5, 1.0)  # type: ignore[arg-type]
    for r in (0.0, float("nan"), float("inf"), 1e-200, 1e-160, 1e160, 1e200):
        with pytest.raises(ValueError):
            FamilySpec("A", 2, r)  # r, r**2 or 1/r**2 not a positive finite double


@given(
    tag=st.sampled_from(FAMILIES),
    N=st.integers(1, 12),
    r=st.floats(0.1, 10.0),
)
def test_structural_invariants(tag, N, r):
    if tag == "D" and N < 2:
        N = 2
    d = FamilySpec(tag, N, r)
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
    assert FamilySpec("A", N).parity == ("even" if N % 2 == 0 else "odd")


@pytest.mark.parametrize("tag", FAMILIES)
def test_kernel_spec_takes_the_record_or_its_tuple(tag):
    d = FamilySpec(tag, 3, 0.7)
    ks = KernelSpec(d, 0.2, 1.0)
    assert ks.family is d
    assert KernelSpec((tag, 3, 0.7), 0.2, 1.0) == ks


def test_only_the_input_edges_build_a_family_record():
    # every function takes the FamilySpec itself: no module keeps a parser of
    # (tag, N, r) tuples, and a record is built only where outside input
    # enters (KernelSpec, the CLI's flags) and for the N = 64 limit family
    src = Path(root_systems.__file__).parent
    parsers, builds = [], set()

    def visit(node, scope, module):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name for a in node.names]
        else:
            names = [node.id] if isinstance(node, ast.Name) else []
        parsers.extend((module, n) for n in names if n in ("derive", "validate"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "FamilySpec"):
            builds.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, module)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    assert parsers == []
    assert builds == {("macdonald.py", "KernelSpec.__post_init__"), ("cli.py", "_check"),
                      ("verification.py", "limit_specs")}, builds


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
        d = FamilySpec(tag, N, r)
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
        got = norm_const_log(FamilySpec(tag, N, r), t_star)
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
        got = r_matrix(FamilySpec(tag, N, r), t) / np.exp(J * J * t / (2.0 * r * r))[:, None]
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
        got = trig_kernel(FamilySpec(tag, N, r), x, y)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11 * c / r), (N, r)


# ---------------------------------------------------------------------------
# the alcove rule: every public function that takes positions of a family

def _calls(d):
    """name -> call on points p (3 of them) of every function that takes
    positions; a one- or two-point function reads p[0] and p[-1]."""
    ks = KernelSpec(d, 0.4, 1.0)
    return {
        "kernel_matrix": lambda p: kernel_matrix(ks, p, p[::-1]),
        "intensity": lambda p: intensity(ks, p),
        "kernel": lambda p: kernel(ks, p[0], p[-1]),
        "corr_det": lambda p: corr_det(ks, p),
        "bin_intensity": lambda p: bin_intensity(ks, p),
        "transition": lambda p: transition(d, 0.0, p[0], 0.4, p[-1]),
        "ck_residual": lambda p: ck_residual(d, 0.0, 0.4, 1.0, p[0], p[-1]),
        "trig_kernel": lambda p: trig_kernel(d, p[0], p[-1]),
        # the configuration functions: p is a row, or rows, of N points
        "denominator_residual": lambda p: denominator_residual(d, p, 0.4),
        "matrix_identity_residual": lambda p: matrix_identity_residual(d, 0.4, p),
        "macdonald_kmlgv_residual": lambda p: macdonald_kmlgv_residual(d, 0.4, p),
        "bridge_density": lambda p: bridge_density(ks, p),
    }


NAMES = list(_calls(FamilySpec("A", 1, 1.0)))
POINTS = [0.5, 1.2, 2.0]
OFF_THE_ALCOVE = {"past_L": [0.5, 1.2, 4.0], "negative": [-0.3, 1.2, 2.0],
                  "nan": [0.5, 1.2, math.nan]}
WRONG_LENGTH = {"N-1": [0.5, 1.2], "N+1": [0.5, 1.2, 2.0, 2.5],
                "second_row": [POINTS, [0.5, 1.2, 4.0]]}
OFF_CASES = [
    *(pytest.param(n, p, id=f"{n}-{w}") for n in NAMES for w, p in OFF_THE_ALCOVE.items()),
    *(pytest.param(n, p, id=f"{n}-{w}") for n in NAMES[-4:] for w, p in WRONG_LENGTH.items()),
    pytest.param("transition", [0.5, 1.2, 5.0], id="transition-at-5"),   # read -0.281
    pytest.param("corr_det", [0.5, 4.0], id="corr_det-two-points"),      # read 1.436
]


@pytest.mark.parametrize("name, points", OFF_CASES)
def test_functions_refuse_points_off_the_alcove(name, points):
    # C3 lives on [0, pi]: a point past pi, a negative one, a NaN, or a row
    # of N - 1 or N + 1 points is a ValueError naming the function, never a
    # number (bridge_density at [0.5, 1.2, 4.0] read 1.193, matrix_identity_
    # residual ~5e-16 for 2 or 4 points) nor numpy's LinAlgError
    row = " row 1" if np.ndim(points) == 2 else ""
    with pytest.raises(ValueError, match=rf"^{name}\b{row}") as err:
        _calls(FamilySpec("C", 3, 1.0))[name](np.array(points))
    assert type(err.value) is ValueError


@pytest.mark.parametrize("name", NAMES)
def test_the_circle_accepts_points_shifted_by_its_length(name):
    # the circle is periodic: every point moved by L = 2 pi gives the same value
    d = FamilySpec("A", 3, 1.0)
    call = _calls(d)[name]
    a, b = call(np.array(POINTS)), call(np.array(POINTS) + d.length)
    assert np.max(np.abs(np.subtract(a, b))) <= 1e-12 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# the tau rule: every public function that evaluates a theta at a duration

def _timed_calls(d):
    """name -> call at the duration t of every function that asks the family's
    tau rule (A3, the circle, so the eta closed form applies too)."""
    X = np.array([0.5, 1.2, 2.0])
    return {
        "coeff_a_log": lambda t: coeff_a_log(d, t),
        "rhs_logc": lambda t: rhs_logc(d, X, t),
        "denominator_residual": lambda t: denominator_residual(d, X, t),
        "m_fn_parts": lambda t: m_fn_parts(d, X, t),
        "norm_const_log": lambda t: norm_const_log(d, t),
        "transition": lambda t: transition(d, 0.0, X[0], t, X[-1]),
        "r_matrix": lambda t: r_matrix(d, t),
        "eta_formula_residual": lambda t: eta_formula_residual(d, t),
    }


TIMED = list(_timed_calls(FamilySpec("A", 3, 1.0)))
# (radius, duration); at r = 1e154 Im tau = size^p t / (2 pi r^2) is subnormal
# for every power p the functions evaluate (size 3)
BAD_DURATIONS = {"zero": (1.0, 0.0), "negative": (1.0, -0.1), "nan": (1.0, math.nan),
                 "inf": (1.0, math.inf), "subnormal": (1e154, 0.5)}
DURATION_CASES = [
    *(pytest.param(n, *rt, id=f"{n}-{w}") for n in TIMED for w, rt in BAD_DURATIONS.items()),
    # KernelSpec's time pair comes first (test_time_pair_must_be_finite)
    pytest.param("KernelSpec", 1e154, 0.5, id="KernelSpec-subnormal"),
]


@pytest.mark.parametrize("name, r, t", DURATION_CASES)
def test_functions_refuse_a_bad_duration(name, r, t):
    # no tau the theta engine takes: a ValueError naming the function, the
    # radius and the duration, and no numpy warning, never the engine's
    # anonymous "tau must be finite ... got (nan+nanj)" nor a number
    d = FamilySpec("A", 3, r)
    call = _timed_calls(d).get(name, lambda t: KernelSpec(d, t, 2.0 * t))
    with pytest.raises(ValueError, match=rf"^{name}: radius r={re.escape(str(r))}, "
                                         rf"duration {re.escape(str(t))}: tau ") as err:
        call(t)
    assert type(err.value) is ValueError


# power -> tau = size**power i t / (2 pi r**2), as the closed forms (a(t), W,
# the norms) wrote it
_ONE_ROUNDING = {
    0: lambda d, t: 1j * t / (2.0 * math.pi * d.r**2),
    1: lambda d, t: 1j * d.size * t / (2.0 * math.pi * d.r**2),
    2: lambda d, t: d.size**2 * (1j * t / (2.0 * math.pi * d.r**2)),
}


@pytest.mark.parametrize("power", list(_ONE_ROUNDING))
def test_tau_rule_has_one_rounding(power):
    # bit for bit, and purely imaginary, at radii where 2 pi r**2 and
    # (2 pi r) r round apart (0.7, 0.02) and where they agree, and sizes 3
    # to 8: every caller at one power gets the same tau
    for tag, N, r in (("A", 3, 1.0), ("C", 3, 0.7), ("BC", 2, 0.02), ("D", 4, 1.7)):
        d = FamilySpec(tag, N, r)
        for t in (0.4, 0.5, 1e-4, 50.0 / 3.0):
            want = _ONE_ROUNDING[power](d, t)
            got = d.tau(t, "test", power)
            assert (got.real, got.imag) == (0.0, want.imag), (tag, t)

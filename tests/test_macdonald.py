"""Determinant identities and Selberg-type integral checks."""

import ast
import math
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_dpp import macdonald
from elliptic_dpp.macdonald import (
    DegenerateConfigError,
    IllConditionedError,
    KernelSpec,
    coeff_a_log,
    denominator_residual,
    logdet,
    selberg_check,
    weyl_w_parts,
)
from elliptic_dpp.root_systems import FAMILIES, FamilySpec
from elliptic_dpp.theta_core import AccuracyError, parts_value, theta


def _random_config(rng, d, margin=0.03):
    L = d.length
    while True:
        pts = np.sort(rng.uniform(margin * L, (1.0 - margin) * L, size=d.N))
        if d.N == 1 or np.min(np.diff(pts)) > 0.01 * L:
            return pts


# ---------------------------------------------------------------------------
# W factors

def _weyl_w(d, xs, tau):
    """W^R(xi(x); tau) in plain doubles, xi = x / 2 pi r, from the parts form."""
    xi = np.asarray(xs, dtype=float) / (2.0 * np.pi * d.r)
    return complex(parts_value(*weyl_w_parts(d.tag, xi, tau))[0])


def test_weyl_w_single_point_circle_is_one():
    assert _weyl_w(FamilySpec("A", 1, 1.0), [1.234], 0.9j) == 1.0 + 0.0j


def test_weyl_w_zero_cases():
    # wall factor: first coordinate at the origin kills the theta_1 prefactor
    assert _weyl_w(FamilySpec("B", 2, 1.0), np.array([0.0, 1.0]), 0.8j) == 0.0
    # coincident points kill a difference factor
    assert _weyl_w(FamilySpec("A", 3, 1.0), np.array([0.5, 0.5, 1.7]), 0.8j) == 0.0


def test_weyl_w_matches_direct_product():
    # cross-check the batched parts assembly against a naive loop, BC has the
    # densest factor list
    r = 1.0
    tau = 0.55j
    xs = np.array([0.4, 1.1, 2.3])
    xi = xs / (2 * np.pi * r)
    direct = 1.0 + 0.0j
    for ell in range(3):
        direct *= theta(1, xi[ell], tau) * theta(0, 2 * xi[ell], 2 * tau)
    for j in range(3):
        for k in range(j + 1, 3):
            direct *= theta(1, xi[k] - xi[j], tau) * theta(1, xi[k] + xi[j], tau)
    got = _weyl_w(FamilySpec("BC", 3, r), xs, tau)
    assert abs(got - direct) < 1e-12 * abs(direct)


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.floats(0.05, 6.0), min_size=2, max_size=5, unique=True),
    jk=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_weyl_w_circle_antisymmetry(xs, jk):
    # swapping two coordinates flips an odd number of theta_1 signs
    xs = sorted(xs)
    n = len(xs)
    j, k = jk[0] % n, jk[1] % n
    if j == k:
        return
    swapped = list(xs)
    swapped[j], swapped[k] = swapped[k], swapped[j]
    tau = 0.8j
    a = _weyl_w(FamilySpec("A", n, 1.0), np.array(xs), tau)
    b = _weyl_w(FamilySpec("A", n, 1.0), np.array(swapped), tau)
    assert abs(a + b) <= 1e-12 * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# a(t) coefficients

def test_coeff_a_prefactors():
    # at large t the Euler products -> 1, so log a(t) minus the explicit nome
    # power leaves just the prefactor (4, 2, 1 for D, B, C)
    t, N, r = 60.0, 2, 1.0
    for tag, pref, qexp in (("D", 4.0, -N * (N - 1) / 4),
                            ("B", 2.0, -N * (N - 1) / 4),
                            ("C", 1.0, -N * N / 4)):
        d = FamilySpec(tag, N, r)
        log_q = -d.size * t / (2.0 * r**2)
        left = coeff_a_log(FamilySpec(tag, N, r), t) - qexp * log_q
        assert abs(left - np.log(pref)) < 1e-6, tag


def test_coeff_a_c_family_exponent():
    # C family: a(t) = q^{-N^2/4} q0^{-N(N-1)}, q = exp(-size*t/2r^2)
    N, r, t = 3, 1.0, 2.0
    d = FamilySpec("C", N, r)
    log_q = -d.size * t / (2.0 * r**2)
    from elliptic_dpp.theta_core import eta_log

    # q0 = eta / q^{1/12}
    log_q0 = eta_log(d.size * t / (2 * np.pi * r**2)) - log_q / 12
    expect = -(N**2) / 4 * log_q - N * (N - 1) * log_q0
    assert abs(coeff_a_log(FamilySpec("C", N, r), t) - expect) < 1e-12


def test_coeff_a_domain_and_overflow():
    with pytest.raises(ValueError):
        coeff_a_log(FamilySpec("B", 2, 1.0), 0.0)
    with pytest.raises(ValueError):
        coeff_a_log(FamilySpec("B", 2, 1.0), -1.0)
    # q^{-N(3N-1)/8} with tiny t: past double range, finite in log form
    lg = coeff_a_log(FamilySpec("A", 5, 1.0), 1e-3)
    assert np.isfinite(lg) and lg > np.log(np.finfo(float).max)


@pytest.mark.parametrize("tag", FAMILIES)
def test_coeff_a_finite_at_small_times(tag):
    # the Euler products underflow plain doubles at Im tau ~ 1e-4 and need
    # ~1 / Im tau factors; in log form a(t) stays finite down to Im tau = 1e-6,
    # without a warning
    d = FamilySpec(tag, 4, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for im_tau in (1e-2, 1e-4, 1e-6):
            assert np.isfinite(coeff_a_log(d, im_tau * 2 * np.pi / d.size))


# ---------------------------------------------------------------------------
# the determinant gate

def test_logdet_of_a_parts_stack():
    # a (3, 4, 4) parts stack gives the plain matrices' slogdet
    rng = np.random.default_rng(5)
    mant = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    scale = rng.uniform(-5.0, 5.0, (3, 4, 4))
    plain = mant * np.exp(scale)
    sign0, logabs0 = np.linalg.slogdet(plain)
    logabs, sign = logdet("stack", mant, scale)
    assert logabs.shape == sign.shape == (3,)
    assert np.allclose(sign, sign0, rtol=0.0, atol=1e-12)
    assert np.allclose(logabs, logabs0, rtol=0.0, atol=1e-12)
    # and so does a plain matrix passed with scale 0
    logabs, sign = logdet("plain", plain[1])
    assert abs(sign - sign0[1]) < 1e-12 and abs(logabs - logabs0[1]) < 1e-12


def test_logdet_names_the_first_matrix_past_the_limit():
    # row scaling alone is divided out; nearly parallel rows are not
    stack = np.array([np.diag([1.0, 1e-8]), [[1.0, 1.0], [1.0, 1.0 + 1e-8]], np.eye(2)])
    with pytest.raises(IllConditionedError,
                       match=r"^stack #2 of 3 condition ~ 4\.000e\+08 exceeds 1\.0e\+07$"):
        logdet("stack", stack)


def _function(path, name):
    tree = ast.parse(path.read_text())
    return next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == name)


def test_only_logdet_takes_determinants_or_condition_estimates():
    # every np.linalg.slogdet and np.linalg.cond in the package sits inside
    # macdonald.logdet, so one gate judges every determinant; the one
    # np.linalg.det is dpp_kernels.corr_det's (its docstring says why)
    src = Path(macdonald.__file__).parent
    gate = _function(src / "macdonald.py", "logdet")
    sites = {"slogdet": gate, "cond": gate, "det": _function(src / "dpp_kernels.py", "corr_det")}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in sites
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((path.name, node.attr, node.lineno))
    allowed = [(name, attr, line) for name, attr, line in found
               if name == ("dpp_kernels.py" if attr == "det" else "macdonald.py")
               and sites[attr].lineno <= line <= sites[attr].end_lineno]
    assert len(allowed) == 3 and found == allowed, found


# ---------------------------------------------------------------------------
# determinant identity

@pytest.mark.parametrize("tag", FAMILIES)
def test_denominator_residual_random_configs(tag):
    rng = np.random.default_rng(zlib.crc32(tag.encode()))   # not salted per process
    worst = 0.0
    count = 0
    for N in range(2 if tag == "D" else 1, 6):
        d = FamilySpec(tag, N, 1.0)
        for t_over_r2 in (0.5, 1.0, 2.0):
            for _ in range(2):
                pts = _random_config(rng, d)
                res = denominator_residual(d, pts, t_over_r2)
                worst = max(worst, res)
                count += 1
    assert count >= 20
    assert worst < 1e-10, f"{tag}: worst residual {worst:.3e}"


# four points clustered near the wall at 0 (drawn under seed 193 by the
# random-configuration test above)
_WALL_CLUSTER = (0.12391704005569107, 0.18185699624161694, 0.2650944506955315,
                 0.45132967557077497)


@pytest.mark.xfail(strict=True, reason="near the wall the determinant identity "
                   "loses digits: residual B 3.69e-10, Cv 2.35e-10, BC 3.58e-10 "
                   "against 1e-10 (ROADMAP item 1, wall cluster)")
@pytest.mark.parametrize("tag", ["B", "Cv", "BC"])
def test_denominator_residual_wall_cluster(tag):
    assert denominator_residual(FamilySpec(tag, 4, 1.0), _WALL_CLUSTER, 2.0) < 1e-10


def test_denominator_residual_scalar_c1():
    # N=1 C family: det is the single entry, closed form i^{-1} a(t) theta_1(2 xi)
    for t in (0.3, 1.0, 2.5):
        res = denominator_residual(FamilySpec("C", 1, 1.0), [1.1], t)
        assert res < 1e-12


def test_denominator_residual_degenerate():
    with pytest.raises(DegenerateConfigError):
        denominator_residual(FamilySpec("A", 3, 1.0), [0.5, 0.5, 1.7], 1.0)


def test_denominator_residual_small_time_uses_log_form():
    # t/r^2 = 0.05 would overflow a direct evaluation; the log route is fine
    res = denominator_residual(FamilySpec("B", 4, 1.0), [0.5, 1.0, 1.8, 2.6], 0.05)
    assert res < 1e-9


# ---------------------------------------------------------------------------
# Selberg checks

@pytest.mark.parametrize("tag", [t for t in FAMILIES if t != "D"])
def test_selberg_n1_all_families(tag):
    r = selberg_check(KernelSpec((tag, 1, 1.0), t=0.5, t_star=1.0))
    assert r.rel_err < 1e-8, f"{tag}: {r.rel_err:.3e}"


def test_selberg_b2_grid():
    r = selberg_check(KernelSpec(("B", 2, 1.0), t=0.5, t_star=1.0))
    assert r.rel_err < 1e-8


def test_selberg_a2_grid_unequal_times():
    r = selberg_check(KernelSpec(("A", 2, 1.0), t=1.0 / 3.0, t_star=1.0))
    assert r.rel_err < 1e-8


def test_selberg_d2_grid():
    r = selberg_check(KernelSpec(("D", 2, 1.0), t=0.4, t_star=1.0))
    assert r.rel_err < 1e-8


@pytest.mark.parametrize("tag", FAMILIES)
def test_selberg_all_families_to_n4(tag):
    # one midpoint rule for every N: N + 10 (interval) or N + 20 (circle)
    # nodes per dimension at (0.4, 1), N + 5 or N + 9 at (2, 5)
    for t, t_star in ((0.4, 1.0), (2.0, 5.0)):
        for N in range(1 if tag != "D" else 2, 5):
            r = selberg_check(KernelSpec((tag, N, 1.0), t=t, t_star=t_star))
            assert r.rhs == math.factorial(N) and r.rel_err < 1e-8, \
                f"{tag}{N} at {t}: {r.rel_err:.3e}"


def test_selberg_block_sum_matches_one_density_call(monkeypatch):
    # the rows are summed in blocks of a fixed size: a block size that splits
    # the rows differently gives the same integral to round-off
    d = FamilySpec("C", 3, 1.0)
    n = macdonald.midpoint_nodes(d, 0.4, 1.0, 3, 2**20)
    nodes = (np.arange(n) + 0.5) * (d.length / n)
    X = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    ks = KernelSpec(d, 0.4, 1.0)
    one = float(macdonald._density(ks, X).sum()) * (d.length / n) ** 3
    blocked = selberg_check(ks).lhs
    monkeypatch.setattr(macdonald, "_SELBERG_BLOCK", 1000)
    assert abs(selberg_check(ks).lhs - one) <= 1e-14 * one
    assert abs(blocked - one) <= 1e-14 * one


def test_selberg_nodes_follow_the_density_width():
    # n = N + ceil(1.5 L / sigma), sigma = sqrt(t (t* - t) / t*)
    d = FamilySpec("A", 3, 1.0)
    assert macdonald.midpoint_nodes(FamilySpec("C", 3, 1.0), 0.4, 1.0, 3, 2**20) == 13
    assert macdonald.midpoint_nodes(d, 0.4, 1.0, 3, 2**20) == 23
    assert macdonald.midpoint_nodes(d, 0.01, 1.0, 3, 2**20) == 3 + math.ceil(
        1.5 * 2 * np.pi / math.sqrt(0.01 * 0.99))
    # past the row limit: every N = 4 at (0.01, 1), N = 3 at (3e-4, 1)
    for spec, t in ((("A", 4, 1.0), 0.01), (("D", 4, 1.0), 0.01), (("C", 3, 1.0), 3e-4)):
        with pytest.raises(AccuracyError, match=r"midpoint rule needs \d+\^\d = \d+ points"):
            selberg_check(KernelSpec(spec, t, 1.0))


def test_selberg_validation():
    with pytest.raises(ValueError):
        selberg_check(KernelSpec(("A", 2, 1.0), 1.5, 1.0))  # t >= t_star
    for kw in ({"method": "grid"}, {"budget": 512}, {"seed": 0}):
        with pytest.raises(TypeError):
            selberg_check(KernelSpec(("A", 2, 1.0), 0.5, 1.0), **kw)

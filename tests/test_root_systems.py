"""Family catalog tests: worked examples and structural invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from elliptic_dpp.root_systems import FAMILIES, FamilySpec, DerivedFamily, derive


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
    assert isinstance(d, DerivedFamily)
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

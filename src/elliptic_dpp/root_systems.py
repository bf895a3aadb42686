"""The seven affine families and their derived combinatorial data.

Each family tag names one of the seven reduced/non-reduced affine types the
library supports: "A", "B", "Bv", "C", "Cv", "BC", "D" ("v" marks the dual of
the plain letter).  A `FamilySpec` fixes (tag, N, r): N particles on a circle
of radius r (tag "A") or on the interval [0, pi r] (all other tags).

A `FamilySpec` also carries everything the rest of the library consumes,
computed from one table row per tag when it is made:

- sharp: which of the four building-block shapes (A/B/C/D) the family's
  one-particle functions use;
- size: the effective modular degree (the period of the underlying lattice),
  a N + b, e.g. N for "A", 2N for "Bv"/"Cv", 2(N+1) for "C";
- offsets: the N spectral labels J(j) = j - delta, half-integers or integers;
- length: the alcove length (2 pi r for "A", pi r otherwise);
- walls: boundary behaviour of the matching bridge process -- "circ" (periodic),
  "ar" (absorbing at 0, reflecting at pi r), "aa" (absorbing both ends),
  "rr" (reflecting both ends);
- pinned: the equidistant starting configuration v_j = 2 pi r (j - eps) / size
  on the alcove; on an interval a walker with j - eps in {0, size/2} sits on
  a wall;
- parity: "even"/"odd" with N on the circle, else None.

The other per-family rules are read off these data where they are used (the
doubled norms, the half-weight columns of r(t), the trigonometric limits); the
list of types follows Rosengren and Schlosser, Compositio Math. 142 (2006).

`derive` turns a (tag, N[, r]) tuple into a `FamilySpec` and returns a
`FamilySpec` unchanged, so every function that takes a family calls `derive`
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

__all__ = ["FAMILIES", "FamilySpec", "derive", "validate"]

FAMILIES = ("A", "B", "Bv", "C", "Cv", "BC", "D")

# tag -> (sharp, walls, a, b, delta, eps): size = a N + b, J(j) = j - delta,
# v_j = 2 pi r (j - eps) / size
_ROWS = {
    "A": ("A", "circ", 1, 0, 0.5, 1.0),
    "B": ("B", "ar", 2, -1, 1.0, 0.5),
    "Bv": ("B", "aa", 2, 0, 1.0, 0.5),
    "C": ("C", "aa", 2, 2, 0.0, 0.0),
    "Cv": ("C", "ar", 2, 0, 0.5, 0.0),
    "BC": ("C", "ar", 2, 1, 0.0, 0.0),
    "D": ("D", "rr", 2, -2, 1.0, 1.0),
}


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    N: int
    r: float = 1.0
    sharp: str = field(init=False)
    size: int = field(init=False)
    offsets: tuple = field(init=False, repr=False)
    length: float = field(init=False)
    walls: str = field(init=False)
    pinned: tuple = field(init=False, repr=False)
    parity: str | None = field(init=False)

    def __post_init__(self):
        validate(self.tag, self.N, self.r)
        sharp, walls, a, b, delta, eps = _ROWS[self.tag]
        N, r, size = self.N, self.r, a * self.N + b
        two_pi_r = 2.0 * math.pi * r
        circle = walls == "circ"
        for name, value in dict(
                sharp=sharp, size=size, walls=walls,
                offsets=tuple(j - delta for j in range(1, N + 1)),
                length=two_pi_r if circle else math.pi * r,
                pinned=tuple(two_pi_r * (j - eps) / size for j in range(1, N + 1)),
                parity=("even" if N % 2 == 0 else "odd") if circle else None).items():
            object.__setattr__(self, name, value)


def validate(tag, N, r=1.0):
    """Reject malformed family parameters with a specific message."""
    if tag not in FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}; expected one of {FAMILIES}")
    if not isinstance(N, int) or isinstance(N, bool):
        raise ValueError(f"N must be an integer, got {N!r}")
    min_n = 2 if tag == "D" else 1
    if N < min_n:
        raise ValueError(f"family {tag} needs N >= {min_n}, got {N}")
    # time enters as t / r**2 and the alcove scales with r: both r**2 and
    # 1/r**2 must be positive finite doubles
    if not (isinstance(r, (int, float)) and r > 0 and 0.0 < r * r < math.inf
            and 1.0 / (r * r) < math.inf):
        raise ValueError("radius r must be a positive real with r**2 and 1/r**2 "
                         f"finite and positive, got {r!r}")


def derive(spec):
    """A (tag, N[, r]) tuple as a FamilySpec; a FamilySpec is returned as it is."""
    return spec if isinstance(spec, FamilySpec) else FamilySpec(*spec)

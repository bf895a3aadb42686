"""The seven affine families and their derived combinatorial data.

Each family tag names one of the seven reduced/non-reduced affine types the
library supports: "A", "B", "Bv", "C", "Cv", "BC", "D" ("v" marks the dual of
the plain letter).  A `FamilySpec` fixes (tag, N, r): N particles on a circle
of radius r (tag "A") or on the interval [0, pi r] (all other tags).

`derive` expands a spec into everything the rest of the library consumes:

- sharp: which of the four building-block shapes (A/B/C/D) the family's
  one-particle functions use;
- size: the effective modular degree (the period of the underlying lattice),
  e.g. N for "A", 2N for "Bv"/"Cv", 2(N+1) for "C";
- offsets: the N spectral labels J(1..N), half-integers or integers;
- length: the alcove length (2 pi r for "A", pi r otherwise);
- walls: boundary behaviour of the matching bridge process -- "circ" (periodic),
  "ar" (absorbing at 0, reflecting at pi r), "aa" (absorbing both ends),
  "rr" (reflecting both ends);
- pinned: the equidistant starting configuration on the alcove.

`derive` accepts its own output and returns a `DerivedFamily` unchanged, so
every function that takes a family calls `derive` on it, whether it came as
a (tag, N[, r]) tuple, a `FamilySpec` or a `DerivedFamily`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

__all__ = ["FAMILIES", "FamilySpec", "DerivedFamily", "derive", "validate"]

FAMILIES = ("A", "B", "Bv", "C", "Cv", "BC", "D")

# tag -> (sharp shape, size formula, offset of J(j) from j, walls)
_SHARP = {"A": "A", "B": "B", "Bv": "B", "C": "C", "Cv": "C", "BC": "C", "D": "D"}
_WALLS = {"A": "circ", "B": "ar", "Bv": "aa", "C": "aa", "Cv": "ar", "BC": "ar", "D": "rr"}


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    N: int
    r: float = 1.0

    def __post_init__(self):
        validate(self.tag, self.N, self.r)


@dataclass(frozen=True)
class DerivedFamily:
    spec: FamilySpec
    sharp: str
    size: int
    offsets: tuple = field(repr=False)
    length: float
    walls: str
    pinned: tuple = field(repr=False)
    parity: str | None = None  # "even"/"odd" for tag "A", else None


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


def _size(tag, N):
    return {
        "A": N,
        "B": 2 * N - 1,
        "Bv": 2 * N,
        "C": 2 * (N + 1),
        "Cv": 2 * N,
        "BC": 2 * N + 1,
        "D": 2 * (N - 1),
    }[tag]


def _offsets(tag, N):
    if tag in ("A", "Cv"):
        return tuple(j - 0.5 for j in range(1, N + 1))
    if tag in ("B", "Bv", "D"):
        return tuple(float(j - 1) for j in range(1, N + 1))
    # C, BC
    return tuple(float(j) for j in range(1, N + 1))


def _pinned(tag, N, r, size):
    two_pi_r = 2.0 * math.pi * r
    if tag == "A":
        return tuple(two_pi_r * (j - 1) / N for j in range(1, N + 1))
    if tag in ("B", "Bv"):
        return tuple(two_pi_r * (j - 0.5) / size for j in range(1, N + 1))
    if tag in ("C", "Cv", "BC"):
        return tuple(two_pi_r * j / size for j in range(1, N + 1))
    # D: evenly spread over the closed interval, endpoints included
    return tuple(math.pi * r * (j - 1) / (N - 1) for j in range(1, N + 1))


def derive(spec):
    """Expand a FamilySpec (or (tag, N[, r]) tuple) into its derived data.

    A DerivedFamily is returned as it is.
    """
    if isinstance(spec, DerivedFamily):
        return spec
    if not isinstance(spec, FamilySpec):
        spec = FamilySpec(*spec)
    tag, N, r = spec.tag, spec.N, spec.r
    size = _size(tag, N)
    return DerivedFamily(
        spec=spec,
        sharp=_SHARP[tag],
        size=size,
        offsets=_offsets(tag, N),
        length=(2.0 * math.pi * r) if tag == "A" else math.pi * r,
        walls=_WALLS[tag],
        pinned=_pinned(tag, N, r, size),
        parity=("even" if N % 2 == 0 else "odd") if tag == "A" else None,
    )

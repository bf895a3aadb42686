"""The seven affine families and their derived combinatorial data.

Each family tag names one of the seven reduced/non-reduced affine types the
library supports: "A", "B", "Bv", "C", "Cv", "BC", "D" ("v" marks the dual of
the plain letter).  A `FamilySpec` fixes (tag, N, r): N particles on a circle
of radius r (tag "A") or on the interval [0, pi r] (all other tags), the
alcove.  It alone decides which points are in it (finite, and in [0, pi r] on
the interval) and which durations t (those whose tau = size^p i t / (2 pi r^2)
the theta engine takes): every public function that takes positions reads
them through `positions` or `configurations` (rows of N), and every one that
evaluates a theta at a duration asks `tau`; the ValueError names it.

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

Every function that takes a family takes this record.  A (tag, N, r) tuple is
read in two places only, where outside input enters: `KernelSpec` (which
builds the record from one) and the CLI's flags.  A bad tag, N or r is a
ValueError when the record is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .theta_core import _check_tau

__all__ = ["FAMILIES", "FamilySpec"]

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
        tag, N, r = self.tag, self.N, self.r
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
        sharp, walls, a, b, delta, eps = _ROWS[tag]
        size = a * N + b
        two_pi_r = 2.0 * math.pi * r
        circle = walls == "circ"
        for name, value in dict(
                sharp=sharp, size=size, walls=walls,
                offsets=tuple(j - delta for j in range(1, N + 1)),
                length=two_pi_r if circle else math.pi * r,
                pinned=tuple(two_pi_r * (j - eps) / size for j in range(1, N + 1)),
                parity=("even" if N % 2 == 0 else "odd") if circle else None).items():
            object.__setattr__(self, name, value)

    def positions(self, xs, caller):
        """xs as a float array of alcove points; else ValueError naming `caller`."""
        return self._alcove(np.asarray(xs, dtype=float), caller, rows=False)

    def configurations(self, xs, caller):
        """(N,) or (B, N) rows of N alcove points as (B, N); else ValueError
        naming `caller` and the first bad row."""
        return self._alcove(np.atleast_2d(np.asarray(xs, dtype=float)), caller, rows=True)

    def tau(self, t, caller, power=0):
        """tau = size**power i t / (2 pi r**2) at the duration t; a ValueError naming
        `caller`, r and t, and no numpy warning, where `theta_core._check_tau`
        refuses it.  Power 1 scales t, power 2 the quotient."""
        pre, post = (self.size, 1) if power == 1 else (1, self.size**power)
        tau = 1j * pre * float(t) / (2.0 * math.pi * self.r**2) * post  # floats: no warning
        _check_tau(tau, f"{caller}: radius r={self.r}, duration {t}: tau")
        return tau

    def _alcove(self, X, caller, rows):
        """X if its points are in the alcove and, if `rows`, N to a row."""
        ok = np.isfinite(X) if self.walls == "circ" else (X >= 0.0) & (X <= self.length)
        if ok.all() and not (rows and X.shape[1:] != (self.N,)):
            return X
        where = "" if self.walls == "circ" else f" in [0, {self.length!r}]"
        if not rows:
            raise ValueError(f"{caller} needs finite points{where}, got {float(X[~ok][0])}")
        i = int(np.argmin(ok.reshape(len(X), -1).all(axis=1)))
        raise ValueError(f"{caller} row {i} must be N = {self.N} finite points{where}, "
                         f"got {X[i].tolist()}")


"""The eight distinguished line spreads of PG(7,2) through the tetrad.

For each ijk in {1,2}^3 the fixed-point-free map A_ijk1 = zeta_a^i
zeta_b^j zeta_c^k zeta_d generates a Z_3 subgroup whose point orbits

    L(p) = {p, A p, A^2 p}

form a spread of 85 lines partitioning the 255 points and containing all
four tetrad lines.  Dropping any zeta_h to the identity (a zero digit in
sigma) produces fixed points, so no such degenerate choice yields a
spread; the number of *distinct* spread lines through a point is 8/4/2/1
according to its line weight 4/3/2/1.

The eight index triples split into two families by the parity of the
number of 2-digits; the two solids spanned by a weight-4 point's four
same-family lines are the point's generator-solid pair on the quadric
(see quadricgeom).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf3
from .gf2 import Mask, perm_table, span
from .tetrad import Frame, Group81

#: the two spread families as index triples (i, j, k); the fourth digit
#: of the generating sigma is always 1
FAMILY_EVEN = tuple(d[:3] for d in gf3.FAMILY_EVEN)
FAMILY_ODD = tuple(d[:3] for d in gf3.FAMILY_ODD)
ALL_IJK = FAMILY_EVEN + FAMILY_ODD


@dataclass(frozen=True)
class Spread:
    ijk: tuple
    generator: tuple  # LinMap
    lines: tuple  # 85 frozensets, sorted by min point
    line_of: dict  # point -> its line

    def __repr__(self):
        return f"Spread({''.join(map(str, self.ijk))}, {len(self.lines)} lines)"


def _line(t: bytes, p: Mask) -> frozenset:
    """The spread line {p, A p, A^2 p}, for A given by its table t."""
    return frozenset((p, t[p], t[t[p]]))


def build_spread(g81: Group81, ijk) -> Spread:
    ijk = tuple(ijk)
    if len(ijk) != 3 or any(d not in (1, 2) for d in ijk):
        raise ValueError(f"spread index must be in {{1,2}}^3, got {ijk}")
    gen = g81.maps[ijk + (1,)]
    t = perm_table(gen)
    line_of = {}
    for p in range(1, 256):
        if p not in line_of:
            ln = _line(t, p)
            for q in ln:
                line_of[q] = ln
    lines = tuple(sorted({ln for ln in line_of.values()}, key=min))
    return Spread(ijk, gen, lines, line_of)


def all_spreads(g81: Group81) -> dict:
    return {ijk: build_spread(g81, ijk) for ijk in ALL_IJK}


def line_through(g81: Group81, ijk, p: Mask) -> frozenset:
    return _line(perm_table(g81.maps[tuple(ijk) + (1,)]), p)


def distinct_line_count(g81: Group81, p: Mask) -> int:
    """Number of distinct spread lines through p over all eight spreads."""
    return len({line_through(g81, ijk, p) for ijk in ALL_IJK})


def solid_pair(frame: Frame, g81: Group81, p: Mask) -> tuple:
    """The two solids spanned by the four same-family spread lines
    through a weight-4 point; (even-family span, odd-family span)."""
    if frame.line_weight(p) != 4:
        raise ValueError("generator-solid pair needs a line-weight-4 point")
    flats = []
    for family in (FAMILY_EVEN, FAMILY_ODD):
        pts = set()
        for ijk in family:
            pts |= line_through(g81, ijk, p)
        flats.append(span(pts))
    return tuple(flats)


def orbit4_line_test(frame: Frame, g81: Group81, p: Mask, direction) -> bool:
    """Whether {p, A_sigma p, A_sigma^2 p} is a line inside the
    line-weight-4 orbit, for p in that orbit.  True exactly when the
    direction has standard weight 4 (i.e. +-direction is one of the eight
    spread directions)."""
    if frame.line_weight(p) != 4:
        raise ValueError("test point must have line weight 4")
    t = perm_table(g81.maps[tuple(direction)])
    q = t[p]
    r = t[q]
    return len({p, q, r}) == 3 and p ^ q ^ r == 0


def parallel_classes(frame: Frame, g81: Group81) -> dict:
    """For each spread index triple, the 27 parallel lines of its
    direction that lie inside the line-weight-4 orbit."""
    omega4 = frame.orbit(4)
    out = {}
    for ijk in ALL_IJK:
        t = perm_table(g81.maps[tuple(ijk) + (1,)])
        lines = {_line(t, p) for p in omega4}
        out[ijk] = tuple(sorted(lines, key=min))
    return out

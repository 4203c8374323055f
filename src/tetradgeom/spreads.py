"""The eight distinguished line spreads of PG(7,2) through the tetrad.

For each ijk in {1,2}^3 the fixed-point-free map A_ijk1 = zeta_a^i
zeta_b^j zeta_c^k zeta_d generates a Z_3 subgroup whose point orbits

    L(p) = {p, A p, A^2 p}

form a spread of 85 lines partitioning the 255 points and containing all
four tetrad lines.  Dropping any zeta_h to the identity (a zero digit in
sigma) produces fixed points, so no such degenerate choice yields a
spread; the number of *distinct* spread lines through a point is 8/4/2/1
according to its line weight 4/3/2/1.

A spread is keyed by its generating direction sigma = ijk1, one of the
eight weight-4 vectors `gf3.DIRECTIONS`.  They split into two families
by the parity of the number of 2-digits; the two solids spanned by a
weight-4 point's four same-family lines are the point's generator-solid
pair on the quadric (see `quadric`), read off the generators alone.
"""

from __future__ import annotations

from collections import namedtuple

from . import gf3
from .gf2 import Mask, orbits, span
from .tetrad import Frame


class Spread(namedtuple("Spread", "direction generator lines line_of")):
    """The spread generated by A_sigma for `direction` sigma = ijk1, one of
    `gf3.DIRECTIONS`: its map `generator`, its 85 `lines` as frozensets
    sorted by min point, and `line_of`, point -> its line."""

    __slots__ = ()

    def __repr__(self):
        return f"Spread({gf3.trit_str(self.direction)}, {len(self.lines)} lines)"


def build_spread(g81: tuple, direction) -> Spread:
    if direction not in gf3.DIRECTIONS:
        raise ValueError(f"not a spread direction ijk1: {direction!r}")
    gen = g81[direction]
    lines = tuple(orbits(range(1, 256), [gen.__getitem__]))
    line_of = {p: ln for ln in lines for p in ln}
    return Spread(direction, gen, lines, line_of)


def all_spreads(g81: tuple) -> dict:
    """The eight spreads, keyed by direction in `gf3.DIRECTIONS` order."""
    return {d: build_spread(g81, d) for d in gf3.DIRECTIONS}


def distinct_line_count(spreads: dict, p: Mask) -> int:
    """Number of distinct spread lines through p over all eight spreads."""
    return len({sp.line_of[p] for sp in spreads.values()})


def solid_pair(frame: Frame, g81: tuple, p: Mask) -> tuple:
    """The two solids spanned by the four same-family spread lines
    through a weight-4 point; (even-family span, odd-family span).  The
    line through p of direction d's spread is p's orbit {p, A_d p,
    A_d^2 p}, as `build_spread` draws it, so no spread is built."""
    if frame.line_weight(p) != 4:
        raise ValueError("generator-solid pair needs a line-weight-4 point")
    flats = []
    for family in (gf3.FAMILY_EVEN, gf3.FAMILY_ODD):
        pts = set()
        for d in family:
            a = g81[d]
            pts |= {p, a[p], a[a[p]]}
        flats.append(span(pts))
    return tuple(flats)


def orbit4_line_test(frame: Frame, g81: tuple, p: Mask, direction) -> bool:
    """Whether {p, A_sigma p, A_sigma^2 p} is a line inside the
    line-weight-4 orbit, for p in that orbit.  True exactly when the
    direction has standard weight 4 (i.e. +-direction is one of the eight
    spread directions)."""
    if frame.line_weight(p) != 4:
        raise ValueError("test point must have line weight 4")
    a = g81[direction]
    q = a[p]
    r = a[q]
    return len({p, q, r}) == 3 and p ^ q ^ r == 0

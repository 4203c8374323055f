"""Vectors of V(4,3) and the projective space PG(3,3).

A vector is an int v in range(81), the base-3 number whose digits are its
coordinates (xi_1..xi_4) with respect to the standard basis:

    v = 27 xi_1 + 9 xi_2 + 3 xi_3 + xi_4,

so int order is lexicographic digit order.  This module is the only one
that knows the encoding: everything else adds, negates and scales through
the functions below, reads digits only through `digits`, and prints a
vector only through `trit_str`.  The canonical representative of a
projective point scales the first nonzero digit to 1.  The alternative
basis consists of the four all-nonzero direction vectors

    1221, 2121, 2211, 1111   (in that order),

whose change-of-basis matrix M is symmetric and involutory over F_3, so a
single function converts coordinates in either direction.  Weights 2 and 3
are the same in both bases.  The eight weight-1 vectors (the coordinate
axes) have alternative weight 4, and of the sixteen weight-4 vectors the
even family (the alternative basis itself, up to sign) has alternative
weight 1 while the odd family has alternative weight 4 again — so
"alternative weight 1" singles out the even family, but weight 4 does not
round-trip to weight 1 in general.

PG(3,3) has 40 points, 130 lines and 40 planes.  Planes are classified by
how many vertices <eps_r> of the fundamental tetrahedron they contain
(kind 0..3, census 8/16/12/4); lines by the weight pattern of their four
points (kinds 1..7, census 6/24/16/12/16/48/8).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import combinations, product

Trit = int  # 27 xi_1 + 9 xi_2 + 3 xi_3 + xi_4

ZERO: Trit = 0
BASIS = (27, 9, 3, 1)

#: all 81 vectors, in int order (base-3 value with xi_1 most significant)
ALL81 = range(81)

# ── lookup tables ────────────────────────────────────────────────────────
# The 81 x 81 addition table is assembled from the 9 x 9 table of digit
# pairs (xi_1 xi_2 and xi_3 xi_4 are each a number 0..8), which keeps the
# import cheap.

_ADD9 = tuple(
    tuple(3 * ((a // 3 + b // 3) % 3) + (a + b) % 3 for b in range(9))
    for a in range(9)
)
_ADD = tuple(
    tuple(9 * hi + lo for hi in _ADD9[a // 9] for lo in _ADD9[a % 9])
    for a in ALL81
)
_NEG = tuple(row.index(ZERO) for row in _ADD)
_SCALE = ((ZERO,) * 81, tuple(ALL81), _NEG)  # _SCALE[c][v] = c * v
_DIGITS = tuple(product(range(3), repeat=4))  # in int order
_WT = tuple(4 - d.count(0) for d in _DIGITS)
_TRIT_STRS = tuple("".join(map(str, d)) for d in _DIGITS)


def t_add(a: Trit, b: Trit) -> Trit:
    return _ADD[a][b]


def t_neg(a: Trit) -> Trit:
    return _NEG[a]


def t_scale(c: int, a: Trit) -> Trit:
    return _SCALE[c % 3][a]


def digits(a: Trit) -> tuple:
    """The coordinates (xi_1, xi_2, xi_3, xi_4) of a vector."""
    return _DIGITS[a]


def trit_str(a: Trit) -> str:
    return _TRIT_STRS[a]


def trit_from_str(s: str) -> Trit:
    if len(s) != 4 or any(ch not in "012" for ch in s):
        raise ValueError(f"need 4 digits from 0..2, got {s!r}")
    return int(s, 3)


def canon(v: Trit) -> Trit:
    """Projective representative: first nonzero digit scaled to 1."""
    if v == ZERO:
        raise ValueError("zero vector has no projective representative")
    return min(v, _NEG[v])  # of v and -v, the one whose first digit is 1


# ── the two bases ────────────────────────────────────────────────────────

#: columns of the change-of-basis matrix: the alternative basis vectors in
#: standard coordinates.  M is symmetric and M^2 = I over F_3.
ALT_BASIS = tuple(map(trit_from_str, ("1221", "2121", "2211", "1111")))


def mat3_table(m) -> tuple:
    """The images of all 81 vectors, in int order, under the 4x4 matrix
    over F_3 with columns m (vectors): each column m_i triples the list,
    adding xi_i * m_i to every image."""
    images = [ZERO]
    for col in m:
        multiples = (ZERO, col, _NEG[col])
        images = [_ADD[x][c] for x in images for c in multiples]
    return tuple(images)


_CHANGE = mat3_table(ALT_BASIS)


def change_basis(v: Trit) -> Trit:
    """Coordinates of v in the other basis (involutory, same matrix both
    ways since M = M^-1)."""
    return _CHANGE[v]


def wt_std(v: Trit) -> int:
    return _WT[v]


def wt_alt(v: Trit) -> int:
    return _WT[_CHANGE[v]]


def hd_std(a: Trit, b: Trit) -> int:
    return _WT[_ADD[a][_NEG[b]]]


def hd_alt(a: Trit, b: Trit) -> int:
    return _WT[_CHANGE[_ADD[a][_NEG[b]]]]


#: the sixteen weight-4 vectors form eight sign pairs, the spread
#: directions.  Representatives here are normalized to last digit 1 (so
#: their first three digits are the spread index triples) and split into
#: two families by the parity of the number of 2-digits, a sign-invariant
#: property.  Within one family any three directions span a vertex-free
#: plane; mixing families does not.
FAMILY_EVEN = tuple(map(trit_from_str, ("1111", "1221", "2121", "2211")))
FAMILY_ODD = tuple(map(trit_from_str, ("2221", "2111", "1211", "1121")))
DIRECTIONS = FAMILY_EVEN + FAMILY_ODD


def direction_family(v: Trit) -> int:
    """0 for the even family, 1 for the odd, judged on the canonical
    representative (negation preserves the parity of the 2-count)."""
    if wt_std(v) != 4:
        raise ValueError(f"{trit_str(v)} is not a weight-4 direction")
    return _DIGITS[canon(v)].count(2) % 2


# ── subspace machinery ───────────────────────────────────────────────────


def coset_shifts(outer, inner, base: Trit = ZERO) -> tuple:
    """The shifts base + j * step (j = 0, 1, 2) of the three cosets of an
    index-3 subspace `inner` inside base + `outer`, where step is the
    smallest vector of `outer` outside `inner`."""
    step = min(v for v in outer if v not in inner)
    return tuple(t_add(base, t_scale(j, step)) for j in range(3))


def subspace_vectors(gens) -> frozenset:
    """All F_3-combinations of the generators, including zero: each
    generator g triples the list, adding 0, g and -g to every vector."""
    acc = [ZERO]
    for g in gens:
        acc = [_ADD[v][m] for v in acc for m in (ZERO, g, _NEG[g])]
    return frozenset(acc)


class Line(namedtuple("Line", "points vectors kind")):
    """A line of PG(3,3): 4 projective points, 9 vectors including zero,
    and its kind (`line_kind`), computed once when the line is built."""

    __slots__ = ()

    def __repr__(self):
        return f"Line({'/'.join(trit_str(p) for p in self.points)})"


class Plane(namedtuple("Plane", "functional points vectors")):
    """A plane of PG(3,3), the kernel of the canonical functional.  Its
    13 2-subspaces are built by `plane_subspaces` on the first read of
    `subspaces` and kept in the plane's instance dict (the one record
    without `__slots__`); they are not a field, so equality and hash see
    only the functional, points and vectors."""

    @cached_property
    def subspaces(self) -> tuple:
        return plane_subspaces(self)

    def __repr__(self):
        return f"Plane({trit_str(self.functional)})"


def point_strs(space) -> list:
    """The points of a line or plane as sorted digit strings, the one
    spelling of a subspace in query output and check witnesses."""
    return sorted(trit_str(p) for p in space.points)


def line_through(a: Trit, b: Trit) -> Line:
    vecs = subspace_vectors((a, b))
    if len(vecs) != 9:
        raise ValueError("points do not span a line")
    pts = tuple(sorted({canon(v) for v in vecs if v != ZERO}))
    line = Line(pts, vecs, None)
    return line._replace(kind=line_kind(line))


@lru_cache(maxsize=1)
def all_points() -> tuple:
    return tuple(sorted({canon(v) for v in ALL81 if v != ZERO}))


@lru_cache(maxsize=1)
def all_lines() -> tuple:
    """The 130 lines, in the order of their point tuples: a line is built
    at its first uncovered pair, which is its two least points."""
    covered = set()  # the point pairs on a line built so far
    lines = []
    for a, b in combinations(all_points(), 2):
        if (a, b) not in covered:
            ln = line_through(a, b)
            covered.update(combinations(ln.points, 2))
            lines.append(ln)
    return tuple(lines)


@lru_cache(maxsize=1)
def all_planes() -> tuple:
    planes = []
    for c in all_points():
        # the functional's values at all 81 vectors, in int order: each
        # digit c_i triples the list, adding c_i * xi_i to every value
        values = [0]
        for ci in _DIGITS[c]:
            values = [(x + ci * xi) % 3 for x in values for xi in range(3)]
        vecs = frozenset(v for v, x in enumerate(values) if not x)
        pts = tuple(sorted({canon(v) for v in vecs if v != ZERO}))
        planes.append(Plane(c, pts, vecs))
    return tuple(sorted(planes, key=lambda p: p.functional))


def plane_from_functional(c: Trit) -> Plane:
    c = canon(c)
    for pl in all_planes():
        if pl.functional == c:
            return pl
    raise ValueError(f"no plane with functional {trit_str(c)}")


# ── classification ───────────────────────────────────────────────────────

#: line kinds keyed by point-weight pattern (count of points of weight
#: 1, 2, 3, 4); the class sizes are 6/24/16/12/16/48/8
LINE_KIND_TABLE = {
    (2, 2, 0, 0): 1,
    (1, 1, 2, 0): 2,
    (0, 3, 1, 0): 3,
    (0, 2, 0, 2): 4,
    (1, 0, 1, 2): 5,
    (0, 1, 2, 1): 6,
    (0, 0, 4, 0): 7,
}


def weight_pattern(line: Line) -> tuple:
    counts = [0, 0, 0, 0]
    for p in line.points:
        counts[wt_std(p) - 1] += 1
    return tuple(counts)


def line_kind(line: Line) -> int:
    pattern = weight_pattern(line)
    kind = LINE_KIND_TABLE.get(pattern)
    if kind is None:
        # every weight pattern of a PG(3,3) line is in the table; reaching
        # this means a convention drifted somewhere upstream
        raise ValueError(f"weight pattern {pattern} not in line-kind table")
    return kind


def plane_kind(plane: Plane) -> int:
    """Number of tetrahedron vertices on the plane (0..3)."""
    return sum(1 for e in BASIS if e in plane.vectors)


def plane_subspaces(plane: Plane) -> tuple:
    """The 13 2-subspaces of a plane, as Line objects."""
    subs = tuple(ln for ln in all_lines() if ln.vectors <= plane.vectors)
    if len(subs) != 13:
        raise ValueError(f"expected 13 subspaces, found {len(subs)}")
    return subs

"""Boolean polynomials on V(8,2) in algebraic normal form.

A polynomial is a multilinear polynomial in x_1..x_8 over GF(2), stored
as a plain int, a gf2 table over monomials: bit m (0 <= m < 256) is the
coefficient of the monomial prod_{i in m} x_i, where the variable x_i
corresponds to bit i-1, the same convention as for vectors in gf2.  Bit 0
is the constant term, and the sum of two polynomials is their XOR.

`mobius`, the subset-sum butterfly, is the one conversion between a
coefficient table and the truth table, in either direction: over GF(2) it
is an involution.  Every other function here takes a coefficient table.

Convention for flat "equations": the equation polynomial of a flat F is
its *indicator*, the Moebius transform of the truth table that is 1
exactly on F and at the zero vector.  Its degree is codim(F), which the
`invariant-polynomials` certificate checks for the three flat sums.  This
is the convention under which the orbit-value table of the degree 2/4/6
invariants holds; summing the complementary-degree indicators would flip
rows of that table.

The closed-form sextic: with a pair meaning a coordinate pair {i, 9-i}
wholly inside S, the monomial x_S is in q2 + q4 + q6 exactly when
(|S|, pairs in S) is one of (1,0), (2,0), (2,1), (3,0), (3,1), (4,1),
(4,2), (5,2) or (6,3).  `PARTS` groups these rows into the seven named
parts of `symmetric_parts`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations
from operator import xor

from .gf2 import COORDS, FULL, mask, span, support, table


def mobius(table: int) -> int:
    """Subset-sum transform of a 256-bit table over GF(2).  Involutory:
    applied to ANF coefficients it yields the truth table and vice versa."""
    for i, coord in enumerate(COORDS):
        table ^= (table << (1 << i)) & coord
    return table


def degree(p: int) -> int:
    """Algebraic degree; the zero polynomial has degree -1."""
    if p == 0:
        return -1
    return max(m.bit_count() for m in support(p))


def homogeneous_part(p: int, d: int) -> int:
    return p & table(lambda m: m.bit_count() == d)


def monomials(p: int) -> tuple:
    """Canonical serialization: sorted tuple of sorted variable-index
    tuples, ordered by (degree, lexicographic)."""
    mons = [
        tuple(i + 1 for i in range(8) if m >> i & 1)
        for m in support(p)
    ]
    return tuple(sorted(mons, key=lambda t: (len(t), t)))


def projective_zeros(p: int) -> frozenset:
    """Nonzero vectors where the polynomial vanishes."""
    tt = mobius(p)
    return frozenset(x for x in range(1, 256) if not tt >> x & 1)


# ── flat indicators and the orbit invariants ─────────────────────────────


def flat_indicator(flat: frozenset) -> int:
    """Indicator polynomial of a flat, given as its points: value 1
    exactly on the flat and at the zero vector."""
    return mobius(mask(flat) | 1)


class InvariantPolys(namedtuple("InvariantPolys", "q2 q4 q6 q_lw4")):
    """The three flat-sum invariants and their sum, each a coefficient
    table.

    q2 sums the indicators of the four 5-flats spanned by line triples,
    q4 the six 3-flats spanned by line pairs, q6 the four lines
    themselves.  q_lw4 = q2 + q4 + q6 vanishes exactly on the 81 points
    of line weight 4.
    """

    __slots__ = ()

    def value_row(self, points) -> tuple:
        """(q2, q4, q6) values, constant on an orbit passed as points."""
        t2, t4, t6 = mobius(self.q2), mobius(self.q4), mobius(self.q6)
        rows = {(t2 >> p & 1, t4 >> p & 1, t6 >> p & 1) for p in points}
        if len(rows) != 1:
            raise ValueError(f"values not constant on orbit: {sorted(rows)}")
        return rows.pop()


def build_invariants(frame) -> InvariantPolys:
    def flat_sum(k: int) -> int:
        """Sum of the indicators of the flats spanned by k of the lines."""
        flats = (span(frozenset().union(*ls)) for ls in combinations(frame.lines, k))
        return reduce(xor, map(flat_indicator, flats))

    q2, q4, q6 = flat_sum(3), flat_sum(2), flat_sum(1)
    return InvariantPolys(q2, q4, q6, q2 ^ q4 ^ q6)


# ── explicit symmetric-sum expansion of the sextic ───────────────────────


#: each part of the sextic: its degree and the numbers of pairs {i, 9-i}
#: that one of its monomials may hold
PARTS = {
    "deg1": (1, {0}),
    "deg2": (2, {0, 1}),
    "deg3": (3, {0, 1}),
    "pair4": (4, {2}),
    "cross4": (4, {1}),
    "pair5": (5, {2}),
    "pair6": (6, {3}),
}


def _pairs(m: int) -> int:
    """The pairs {i, 9-i} inside monomial m: the k < 4 with bits k and
    7-k both set.  Read off the bits, not the frame or the quadric, so
    that this route stays independent of the flat indicators."""
    return sum(m >> k & m >> 7 - k & 1 for k in range(4))


def symmetric_parts() -> dict:
    """The building blocks of the closed-form sextic, keyed by name: each
    part is the sum of the monomials of its `PARTS` row.

    deg1/deg2/deg3 are the full elementary symmetric sums of degrees
    1..3.  pair4 sums products of two pairs, cross4 couples one pair with
    a non-pair couple outside it, pair5 adds a free variable to two pairs,
    and pair6 is the sum of the four degree-6 monomials complementary to
    the pairs.
    """
    return {
        name: table(lambda m: m.bit_count() == d and _pairs(m) in pairs)
        for name, (d, pairs) in PARTS.items()
    }


# ── complete 6-fold polarization ─────────────────────────────────────────


def polarize6(p: int) -> frozenset:
    """The alternating 6-form of a sextic, read off on basis 6-subsets.

    For each of the 28 complements S of an index pair {j,k}, evaluates the
    6-fold finite difference sum_{T subseteq S} p(sum_{i in T} e_i), the
    parity of the truth table AND the table of the subsets of S; the pair
    {j,k} enters the result exactly when that sum is 1.  Returns the set of
    pairs as a frozenset of sorted 2-tuples.  Degree <= 5 input gives the
    empty set; degree > 6 input is rejected since the finite-difference
    sum no longer computes an alternating form.
    """
    if degree(p) > 6:
        raise ValueError("polarize6 requires degree <= 6")
    tt = mobius(p)
    return frozenset(
        (j, k)
        for j, k in combinations(range(1, 9), 2)
        if (tt & (FULL ^ COORDS[j - 1]) & (FULL ^ COORDS[k - 1])).bit_count() & 1
    )

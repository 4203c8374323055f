"""Boolean polynomials on V(8,2) in algebraic normal form.

An Anf8 is a multilinear polynomial in x_1..x_8 over GF(2), stored as a
256-bit integer: bit m (0 <= m < 256) is the coefficient of the monomial
prod_{i in m} x_i, where the variable x_i corresponds to bit i-1, the same
convention as for vectors in gf2.  Bit 0 is the constant term.

ANF <-> truth table conversion is the in-place subset-sum (Moebius)
butterfly, which over GF(2) is an involution; both directions are kept so
each can serve as an oracle for the other.

Convention for flat "equations": the equation polynomial of a flat F is
its *indicator*, the Moebius transform of the truth table that is 1
exactly on F and at the zero vector.  Its degree is codim(F), which the
`invariant-polynomials` certificate checks for the three flat sums.  This
is the convention under which the orbit-value table of the degree 2/4/6
invariants holds; summing the complementary-degree indicators would flip
rows of that table.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .gf2 import COORDS, FULL, mask, span, support

#: partner coordinate under the pairing i <-> 9-i
PARTNER = {i: 9 - i for i in range(1, 9)}


def mobius(table: int) -> int:
    """Subset-sum transform of a 256-bit table over GF(2).  Involutory:
    applied to ANF coefficients it yields the truth table and vice versa."""
    for i, coord in enumerate(COORDS):
        table ^= (table << (1 << i)) & coord
    return table


class Anf8:
    __slots__ = ("coeffs", "_tt")

    def __init__(self, coeffs: int):
        self.coeffs = coeffs & FULL
        self._tt = None

    # construction -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Anf8":
        return cls(0)

    @classmethod
    def from_monomials(cls, monomials) -> "Anf8":
        c = 0
        for mon in monomials:
            m = 0
            for i in mon:
                m |= 1 << (i - 1)
            c ^= 1 << m
        return cls(c)

    @classmethod
    def from_truth_table(cls, table: int) -> "Anf8":
        return cls(mobius(table))

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Anf8") -> "Anf8":
        return Anf8(self.coeffs ^ other.coeffs)

    def __eq__(self, other):
        return isinstance(other, Anf8) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # queries ------------------------------------------------------------

    def degree(self) -> int:
        """Algebraic degree; the zero polynomial has degree -1."""
        if self.coeffs == 0:
            return -1
        return max(m.bit_count() for m in support(self.coeffs))

    def homogeneous_part(self, d: int) -> "Anf8":
        c = 0
        for m in support(self.coeffs):
            if m.bit_count() == d:
                c |= 1 << m
        return Anf8(c)

    def monomials(self) -> tuple:
        """Canonical serialization: sorted tuple of sorted variable-index
        tuples, ordered by (degree, lexicographic)."""
        mons = [
            tuple(i + 1 for i in range(8) if m >> i & 1)
            for m in support(self.coeffs)
        ]
        return tuple(sorted(mons, key=lambda t: (len(t), t)))

    def truth_table(self) -> int:
        if self._tt is None:
            self._tt = mobius(self.coeffs)
        return self._tt

    def evaluate(self, x: int) -> int:
        return self.truth_table() >> x & 1

    def projective_zeros(self) -> frozenset:
        """Nonzero vectors where the polynomial vanishes."""
        tt = self.truth_table()
        return frozenset(x for x in range(1, 256) if not tt >> x & 1)

    def __repr__(self):
        mons = self.monomials()
        if not mons:
            return "Anf8<0>"
        body = " + ".join(
            "1" if not m else "x" + "x".join(map(str, m)) for m in mons[:6]
        )
        tail = f" + ...({len(mons)} terms)" if len(mons) > 6 else ""
        return f"Anf8<{body}{tail}>"


# ── flat indicators and the orbit invariants ─────────────────────────────


def flat_indicator(flat: frozenset) -> Anf8:
    """Indicator polynomial of a flat, given as its points: value 1
    exactly on the flat and at the zero vector."""
    return Anf8.from_truth_table(mask(flat) | 1)


class InvariantPolys(namedtuple("InvariantPolys", "q2 q4 q6 q_lw4")):
    """The three flat-sum invariants and their sum, each an Anf8.

    q2 sums the indicators of the four 5-flats spanned by line triples,
    q4 the six 3-flats spanned by line pairs, q6 the four lines
    themselves.  q_lw4 = q2 + q4 + q6 vanishes exactly on the 81 points
    of line weight 4.
    """

    __slots__ = ()

    def value_row(self, points) -> tuple:
        """(q2, q4, q6) values, constant on an orbit passed as points."""
        rows = {
            (self.q2.evaluate(p), self.q4.evaluate(p), self.q6.evaluate(p))
            for p in points
        }
        if len(rows) != 1:
            raise ValueError(f"values not constant on orbit: {sorted(rows)}")
        return rows.pop()


def build_invariants(frame) -> InvariantPolys:
    def flat_sum(k: int) -> Anf8:
        """Sum of the indicators of the flats spanned by k of the lines."""
        flats = (span(frozenset().union(*ls)) for ls in combinations(frame.lines, k))
        return sum(map(flat_indicator, flats), Anf8.zero())

    q2, q4, q6 = flat_sum(3), flat_sum(2), flat_sum(1)
    return InvariantPolys(q2, q4, q6, q2 + q4 + q6)


# ── explicit symmetric-sum expansion of the sextic ───────────────────────


def symmetric_parts() -> dict:
    """The building blocks of the closed-form sextic, keyed by name.

    deg1/deg2/deg3 are the full elementary symmetric sums of degrees
    1..3.  pair4 sums products of two complete coordinate pairs, cross4
    couples one complete pair with one non-pair couple outside it, pair5
    adds a free variable to two complete pairs, and pair6 is the sum of
    the four degree-6 monomials complementary to the coordinate pairs.
    """
    deg1 = Anf8.from_monomials((i,) for i in range(1, 9))
    deg2 = Anf8.from_monomials(combinations(range(1, 9), 2))
    deg3 = Anf8.from_monomials(combinations(range(1, 9), 3))

    pair4 = Anf8.from_monomials(
        (k, PARTNER[k], l, PARTNER[l]) for k, l in combinations(range(1, 5), 2)
    )

    cross4_mons = []
    for m in range(1, 5):
        used = {m, PARTNER[m]}
        for k, l in combinations(sorted(set(range(1, 9)) - used), 2):
            if l != PARTNER[k]:
                cross4_mons.append((m, PARTNER[m], k, l))
    cross4 = Anf8.from_monomials(cross4_mons)

    pair5_mons = []
    for k, l in combinations(range(1, 5), 2):
        used = {k, PARTNER[k], l, PARTNER[l]}
        for m in sorted(set(range(1, 9)) - used):
            pair5_mons.append((k, PARTNER[k], l, PARTNER[l], m))
    pair5 = Anf8.from_monomials(pair5_mons)

    pair6 = Anf8.from_monomials(
        (k, PARTNER[k], l, PARTNER[l], m, PARTNER[m])
        for k, l, m in combinations(range(1, 5), 3)
    )

    return {
        "deg1": deg1,
        "deg2": deg2,
        "deg3": deg3,
        "pair4": pair4,
        "cross4": cross4,
        "pair5": pair5,
        "pair6": pair6,
    }


def explicit_lw4_sextic() -> Anf8:
    """Closed-form version of q_lw4, built from symmetric sums alone.
    Used as an independent cross-check of the flat-indicator route."""
    return sum(symmetric_parts().values(), Anf8.zero())


# ── complete 6-fold polarization ─────────────────────────────────────────


def polarize6(p: Anf8) -> frozenset:
    """The alternating 6-form of a sextic, read off on basis 6-subsets.

    For each of the 28 complements S of an index pair {j,k}, evaluates the
    6-fold finite difference sum_{T subseteq S} p(sum_{i in T} e_i), the
    parity of the truth table AND the table of the subsets of S; the pair
    {j,k} enters the result exactly when that sum is 1.  Returns the set of
    pairs as a frozenset of sorted 2-tuples.  Degree <= 5 input gives the
    empty set; degree > 6 input is rejected since the finite-difference
    sum no longer computes an alternating form.
    """
    if p.degree() > 6:
        raise ValueError("polarize6 requires degree <= 6")
    tt = p.truth_table()
    return frozenset(
        (j, k)
        for j, k in combinations(range(1, 9), 2)
        if (tt & (FULL ^ COORDS[j - 1]) & (FULL ^ COORDS[k - 1])).bit_count() & 1
    )

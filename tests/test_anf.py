"""Algebraic normal forms, flat indicators and the invariant polynomials."""

from functools import reduce
from itertools import combinations
from operator import xor
from random import Random

import pytest

from tetradgeom import anf
from tetradgeom.gf2 import E, UNIT, quadric_value, rank, span


def annihilator_forms(flat) -> tuple:
    """Reference: a basis of the linear forms (as masks, bit i-1 <-> x_i)
    vanishing on the flat, under the plain dot product, picked greedily:
    a vanishing form joins when it is outside the span of those before."""
    basis = []
    for c in range(1, 256):
        if all((c & v).bit_count() % 2 == 0 for v in flat) and c not in span(basis):
            basis.append(c)
    return tuple(basis)


def product(a: int, b: int) -> int:
    """Reference: multiply out monomial by monomial; since x_i^2 = x_i the
    product of two monomials is the union of their variables."""
    mine = [m for m in range(256) if a >> m & 1]
    r = 0
    for n in range(256):
        if b >> n & 1:
            for m in mine:
                r ^= 1 << (m | n)
    return r


def product_indicator(flat) -> int:
    """Reference: the indicator as the product of (1 + phi) over a basis of
    the linear forms phi vanishing on the flat."""
    p = 1
    for c in annihilator_forms(flat):
        phi = sum(1 << e for e in E if c & e)
        p = product(p, 1 ^ phi)
    return p


def from_monomials(monomials) -> int:
    """Reference: the coefficient table of a sum of monomials, each a tuple
    of 1-based variable indices."""
    c = 0
    for mon in monomials:
        c ^= 1 << sum(1 << i - 1 for i in mon)
    return c


def value(p: int, x: int) -> int:
    """The polynomial with coefficient table p evaluated at the vector x."""
    return anf.mobius(p) >> x & 1


def test_mobius_is_involutory():
    rng = Random(101)
    for _ in range(20):
        t = rng.getrandbits(256)
        assert anf.mobius(anf.mobius(t)) == t


def test_basic_constructors_and_evaluate():
    assert anf.degree(0) == -1 and anf.degree(1) == 0
    assert value(1, 0) == 1 and value(1, 0xAB) == 1
    x1 = from_monomials([(1,)])
    assert value(x1, 0x01) == 1 and value(x1, 0xFE) == 0
    p = from_monomials([(1, 8)])
    assert anf.degree(p) == 2
    assert value(p, 0x81) == 1 and value(p, 0x80) == 0
    assert anf.degree(p ^ p) == -1  # characteristic 2
    lin = from_monomials([(1,), (8,)])
    assert value(lin, 0x01) == 1 and value(lin, 0x81) == 0


def test_monomial_and_from_monomials():
    m = from_monomials([(2, 7)])
    assert anf.monomials(m) == ((2, 7),)
    q = from_monomials([(1, 8), (2, 7), (3, 6), (4, 5)])
    assert anf.degree(q) == 2 and len(anf.monomials(q)) == 4
    assert anf.monomials(q ^ from_monomials([(3,), (1, 2, 3)])) == (
        (3,), (1, 8), (2, 7), (3, 6), (4, 5), (1, 2, 3),
    )


def test_truth_table_round_trip():
    rng = Random(5)
    for _ in range(10):
        t = rng.getrandbits(256)
        p = anf.mobius(t)
        assert anf.mobius(p) == t
        assert all(value(p, v) == (t >> v & 1) for v in range(0, 256, 17))


def test_reference_product_is_the_pointwise_product():
    parts = list(anf.symmetric_parts().values())
    for a in parts:
        for b in parts:
            assert anf.mobius(product(a, b)) == anf.mobius(a) & anf.mobius(b)


def test_flat_indicator():
    line = span([0x01, 0x80])
    ind = anf.flat_indicator(line)
    assert anf.degree(ind) == 6  # codimension of the subspace
    for v in range(256):
        inside = v == 0 or v in line
        assert value(ind, v) == (1 if inside else 0)
    solid = span([0x01, 0x02, 0x04, 0x08])
    assert anf.degree(anf.flat_indicator(solid)) == 4


def test_reference_annihilator_forms():
    for flat in (span([0x01, 0x80]), span([0x01, 0x02, 0x04, 0x08])):
        forms = annihilator_forms(flat)
        assert len(forms) == 8 - rank(flat)
        for c in forms:
            assert all((c & v).bit_count() % 2 == 0 for v in flat)


def test_flat_indicator_matches_the_product_on_coordinate_flats():
    # the 255 flats spanned by a nonempty set of basis vectors
    for s in range(1, 256):
        flat = span([e for e in E if s & e])
        ind = anf.flat_indicator(flat)
        assert ind == product_indicator(flat)
        assert anf.degree(ind) == 8 - rank(flat)


def test_flat_indicator_matches_the_product_on_line_unions(frame):
    # the 15 flats spanned by a nonempty set of the frame's lines
    flats = [
        span(frozenset().union(*lines))
        for k in range(1, 5)
        for lines in combinations(frame.lines, k)
    ]
    assert len(flats) == 15
    for flat in flats:
        ind = anf.flat_indicator(flat)
        assert ind == product_indicator(flat)
        assert anf.degree(ind) == 8 - rank(flat)


def test_symmetric_parts_term_counts():
    parts = anf.symmetric_parts()
    counts = {name: len(anf.monomials(p)) for name, p in parts.items()}
    assert counts == {
        "deg1": 8,
        "deg2": 28,
        "deg3": 56,
        "pair4": 6,
        "cross4": 48,
        "pair5": 24,
        "pair6": 4,
    }
    # deg1, deg2 and deg3 are every subset of their size
    for name, d in (("deg1", 1), ("deg2", 2), ("deg3", 3)):
        assert anf.monomials(parts[name]) == tuple(combinations(range(1, 9), d))

    def partnered(m) -> set:
        return {i for i in m if 9 - i in m}

    # every pair4 monomial consists of two partner pairs
    for m in anf.monomials(parts["pair4"]):
        assert len(m) == 4 and partnered(m) == set(m)
    # every cross4 monomial contains exactly one partner pair
    for m in anf.monomials(parts["cross4"]):
        assert len(m) == 4 and len(partnered(m)) == 2  # one pair = two members
    # every pair5 monomial holds two partner pairs and one lone index
    for m in anf.monomials(parts["pair5"]):
        assert len(m) == 5 and len(partnered(m)) == 4
    # the four degree-6 monomials omit exactly one partner pair each
    omitted = []
    for m in anf.monomials(parts["pair6"]):
        rest = set(range(1, 9)) - set(m)
        assert len(m) == 6 and {9 - i for i in rest} == rest
        omitted.append(tuple(sorted(rest)))
    assert sorted(omitted) == [(1, 8), (2, 7), (3, 6), (4, 5)]


def test_invariants_value_table(frame):
    inv = anf.build_invariants(frame)
    table = {r: inv.value_row(frame.orbit(r)) for r in (1, 2, 3, 4)}
    assert table == {
        1: (1, 1, 1),
        2: (0, 1, 0),
        3: (1, 0, 0),
        4: (0, 0, 0),
    }
    assert inv.q_lw4 == inv.q2 ^ inv.q4 ^ inv.q6
    assert anf.projective_zeros(inv.q_lw4) == frame.orbit(4)


def test_value_row_rejects_non_constant(frame):
    inv = anf.build_invariants(frame)
    with pytest.raises(ValueError):
        inv.value_row(frame.orbit(1) | frame.orbit(2))


def test_q2_is_the_quadratic_form(frame):
    inv = anf.build_invariants(frame)
    tt = 0
    for v in range(256):
        tt |= quadric_value(v) << v
    assert inv.q2 == anf.mobius(tt)


def test_sextic_identity(frame):
    # the flat-indicator build equals the explicit symmetric-sum expansion
    inv = anf.build_invariants(frame)
    parts = anf.symmetric_parts()
    total = 0
    for p in parts.values():
        total ^= p
    assert total == inv.q_lw4


def test_polarize6():
    parts = anf.symmetric_parts()
    wedge = frozenset({(1, 8), (2, 7), (3, 6), (4, 5)})
    assert anf.polarize6(parts["pair6"]) == wedge
    assert anf.polarize6(reduce(xor, parts.values())) == wedge
    for name in ("deg1", "deg2", "deg3", "pair4", "cross4", "pair5"):
        assert anf.polarize6(parts[name]) == frozenset()
    with pytest.raises(ValueError):
        anf.polarize6(from_monomials([(1, 2, 3, 4, 5, 6, 7)]))


def polarize6_by_subsets(p) -> frozenset:
    """Reference: each 6-fold finite difference summed over the subsets T
    of S = complement of {j, k}, walked one at a time."""
    tt = anf.mobius(p)
    pairs = set()
    for j, k in combinations(range(1, 9), 2):
        s = 0xFF ^ 1 << j - 1 ^ 1 << k - 1
        acc, t = tt & 1, s
        while t:
            acc ^= tt >> t & 1
            t = t - 1 & s
        if acc:
            pairs.add((j, k))
    return frozenset(pairs)


def test_polarize6_is_the_subset_walk(frame):
    # the eight polynomials the certificate polarizes, and each degree-6
    # monomial, whose form is the one pair outside it
    inv = anf.build_invariants(frame)
    polarized = [inv.q6, inv.q_lw4]
    polarized += [p for p in anf.symmetric_parts().values() if anf.degree(p) <= 5]
    assert len(polarized) == 8
    for p in polarized:
        assert anf.polarize6(p) == polarize6_by_subsets(p)
    for mon in combinations(range(1, 9), 6):
        p = from_monomials([mon])
        pair = tuple(sorted(set(range(1, 9)) - set(mon)))
        assert anf.polarize6(p) == polarize6_by_subsets(p) == {pair}


def test_unit_evaluations():
    # on the all-ones vector the parts count their monomials mod 2
    parts = anf.symmetric_parts()
    for name, p in parts.items():
        assert value(p, UNIT) == len(anf.monomials(p)) % 2

"""GF(2) linear algebra: masks, the symplectic form, maps and flats."""

from itertools import combinations
from random import Random

import pytest

from tetradgeom.gf2 import (
    E,
    IDENTITY,
    PAIR_MASKS,
    UNIT,
    Flat,
    apply,
    compose,
    inverse,
    linmap,
    linmap_power,
    lines_inside,
    mulclose,
    perm_table,
    perp,
    point_str,
    quadric_value,
    reduced_basis,
    span,
    symplectic_product,
)


def test_point_str():
    assert point_str(0x81) == "18"
    assert point_str(0x55) == "1357"
    assert UNIT == 0xFF and point_str(UNIT) == "12345678"
    assert PAIR_MASKS == (0x81, 0x42, 0x24, 0x18)


def test_symplectic_gram_matrix():
    # coordinate i pairs with coordinate 9-i and with nothing else
    for i in range(1, 9):
        for j in range(1, 9):
            assert symplectic_product(E[i - 1], E[j - 1]) == (1 if i + j == 9 else 0)


def test_symplectic_frozen_values():
    assert symplectic_product(0x55, 0xAA) == 0
    assert symplectic_product(0x01, 0x80) == 1
    assert symplectic_product(0x81, 0x81) == 0
    assert symplectic_product(UNIT, UNIT) == 0


def test_symplectic_is_alternating_and_bilinear():
    rng = Random(7)
    for x in range(256):
        assert symplectic_product(x, x) == 0
    for _ in range(300):
        x, y, z = (rng.randrange(256) for _ in range(3))
        assert symplectic_product(x, y) == symplectic_product(y, x)
        assert (
            symplectic_product(x ^ y, z)
            == symplectic_product(x, z) ^ symplectic_product(y, z)
        )


def test_quadric_value_polarizes_to_form():
    rng = Random(11)
    assert quadric_value(UNIT) == 0
    assert quadric_value(0x01) == 1
    for _ in range(500):
        x, y = rng.randrange(256), rng.randrange(256)
        pol = quadric_value(x ^ y) ^ quadric_value(x) ^ quadric_value(y)
        assert pol == symplectic_product(x, y)


def test_linmap_and_apply():
    z = linmap({1: E[7], 8: E[0] ^ E[7]})  # e1 -> e8, e8 -> e1+e8
    assert apply(z, 0x01) == 0x80
    assert apply(z, 0x80) == 0x81
    assert apply(z, 0x02) == 0x02  # untouched coordinate
    assert apply(z, 0x81) == 0x01
    assert linmap_power(z, 3) == IDENTITY
    assert apply(IDENTITY, 0xA7) == 0xA7


def test_compose_order():
    # compose(m, n) applies n first
    m = linmap({1: E[1]})  # e1 -> e2 (not invertible, fine for apply)
    n = linmap({1: E[2], 3: E[0]})
    assert apply(compose(m, n), 0x01) == apply(m, apply(n, 0x01))
    assert apply(compose(n, m), 0x01) == apply(n, apply(m, 0x01))


def test_inverse_and_invertibility():
    rng = Random(13)
    z = linmap({1: E[7], 8: E[0] ^ E[7]})
    zi = inverse(z)
    assert compose(z, zi) == IDENTITY
    assert compose(zi, z) == IDENTITY
    with pytest.raises(ValueError):
        inverse(linmap({1: E[1], 2: E[1]}))
    # random invertible maps round-trip
    found = 0
    while found < 20:
        m = bytes(rng.randrange(256) for _ in range(8))
        try:
            mi = inverse(m)
        except ValueError:  # singular
            continue
        assert compose(m, mi) == IDENTITY
        found += 1


def test_perm_table_matches_apply():
    z = linmap({1: E[7], 8: E[0] ^ E[7]})
    t = perm_table(z)
    assert len(t) == 256
    assert all(t[v] == apply(z, v) for v in range(256))


def test_mulclose_single_rotation():
    z = linmap({1: E[7], 8: E[0] ^ E[7]})
    els = mulclose([z])
    assert els == {IDENTITY, z, linmap_power(z, 2)}


def test_mulclose_cap():
    # two generators of a big group blow past a small cap
    swap = linmap({1: E[1], 2: E[0]})
    cyc = linmap({i: E[i % 8] for i in range(1, 9)})
    with pytest.raises(ValueError):
        mulclose([swap, cyc], maxsize=100)


def test_reduced_basis_and_span():
    b = reduced_basis([0x81, 0x80, 0x01])
    assert len(b) == 2
    fl = span([0x01, 0x80])
    assert fl.rank == 2
    assert fl.points() == {0x01, 0x80, 0x81}
    assert 0x81 in fl.points() and 0x02 not in fl.points()
    assert span([]).rank == 0 and span([]).points() == set()


def test_flat_equality_and_hash():
    a = span([0x01, 0x80])
    b = span([0x81, 0x01])
    assert a == b and hash(a) == hash(b)
    assert a != span([0x01, 0x02])


def test_perp_dimensions():
    pp = perp([0x01])
    # perp of e1 under the reversal pairing: everything missing e8
    assert pp.rank == 7
    assert all(symplectic_product(0x01, q) == 0 for q in pp.points())
    assert perp([UNIT]).rank == 7
    assert perp([0x01, 0x80]).rank == 6


def test_lines_inside():
    triangle = {0x01, 0x80, 0x81}
    assert lines_inside(triangle) == {frozenset(triangle)}
    fl = span([0x01, 0x02]).points()
    assert len(lines_inside(fl)) == 1
    plane = span([0x01, 0x02, 0x04]).points()
    assert len(lines_inside(plane)) == 7  # Fano plane
    assert lines_inside({0x01, 0x02, 0x04}) == set()

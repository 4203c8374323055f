"""GF(2) linear algebra: masks, the symplectic form, maps and flats."""

from functools import reduce
from itertools import combinations, product
from operator import xor
from random import Random

import pytest
from conftest import symplectic_product

from tetradgeom.gf2 import (
    COORDS,
    E,
    FORMS,
    FULL,
    IDENTITY,
    PAIR_MASKS,
    UNIT,
    columns,
    compose,
    dimension,
    inverse,
    linmap,
    linmap_power,
    lines_inside,
    low_bit,
    mask,
    mulclose,
    perp,
    point_str,
    quadric_value,
    rank,
    span,
    support,
    table,
)
from tetradgeom.tetrad import (
    build_frame,
    build_group81,
    line_maps,
    line_shuffles,
    stabilizer_generators,
)


def test_point_str():
    assert point_str(0x81) == "18"
    assert point_str(0x55) == "1357"
    assert UNIT == 0xFF and point_str(UNIT) == "12345678"
    assert PAIR_MASKS == (0x81, 0x42, 0x24, 0x18)
    # the spelling table is the digit formula
    for x in range(256):
        digits = tuple(i + 1 for i in range(8) if x >> i & 1)
        assert point_str(x) == ("".join(str(i) for i in digits) or "0")


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


def test_coords_are_the_coordinate_tables():
    assert FULL == sum(1 << x for x in range(256))
    for k, coord in enumerate(COORDS):
        assert coord == sum(1 << x for x in range(256) if x >> k & 1)


def test_table_is_the_pointwise_sum():
    assert table(quadric_value) == sum(quadric_value(x) << x for x in range(256))
    for z in range(256):
        assert table(symplectic_product, z) == sum(
            symplectic_product(x, z) << x for x in range(256)
        )


def test_mask_and_low_bit_at_both_ends():
    assert mask({1}) == 2 and low_bit(mask({1})) == 1
    assert mask({255}) == 1 << 255 and low_bit(mask({255})) == 255
    assert mask({1, 255}) == 2 | 1 << 255 and low_bit(mask({1, 255})) == 1
    assert mask(()) == 0


def test_linmap_and_apply():
    z = linmap({1: E[7], 8: E[0] ^ E[7]})  # e1 -> e8, e8 -> e1+e8
    assert z[0x01] == 0x80
    assert z[0x80] == 0x81
    assert z[0x02] == 0x02  # untouched coordinate
    assert z[0x81] == 0x01
    assert linmap_power(z, 3) == IDENTITY
    assert IDENTITY[0xA7] == 0xA7


def test_compose_order():
    # compose(m, n) applies n first
    m = linmap({1: E[1]})  # e1 -> e2 (not invertible, fine for composing)
    n = linmap({1: E[2], 3: E[0]})
    assert compose(m, n)[0x01] == m[n[0x01]]
    assert compose(n, m)[0x01] == n[m[0x01]]


def random_columns(rng) -> dict:
    """Eight random basis images, as `linmap` takes them."""
    return {i: rng.randrange(256) for i in range(1, 9)}


def test_inverse_and_invertibility(frame):
    rng = Random(13)
    maps = list(stabilizer_generators(frame).values())
    # and 20 random invertible maps
    while len(maps) < 30:
        m = linmap(random_columns(rng))
        if len(set(m)) == 256:
            maps.append(m)
    for m in maps:
        mi = inverse(m)
        assert compose(m, mi) == IDENTITY == compose(mi, m)
        assert all(mi[m[v]] == v for v in range(256))
    for singular in (linmap({1: E[1], 2: E[1]}), linmap({8: 0}), bytes(256)):
        with pytest.raises(ValueError, match="map is singular"):
            inverse(singular)


def by_bits(images: dict, v: int) -> int:
    """The image of v under the map with the given basis images, by a bit
    loop over v's coordinates."""
    r = 0
    for i, e in enumerate(E):
        if v & e:
            r ^= images.get(i + 1, e)
    return r


def test_linmap_matches_a_bit_loop_reference(frame):
    rng = Random(5)
    cases = [
        {},  # the identity
        {1: E[7], 8: E[0] ^ E[7]},
        *(dict(enumerate(columns(g), 1))
          for g in stabilizer_generators(frame).values()),
        {1: E[1], 2: E[1]},  # singular
        dict.fromkeys(range(1, 9), 0),  # the zero map
        *(random_columns(rng) for _ in range(20)),
    ]
    for images in cases:
        m = linmap(images)
        assert type(m) is bytes and len(m) == 256
        assert all(m[v] == by_bits(images, v) for v in range(256))
    assert linmap({}) == IDENTITY == bytes(range(256))
    assert linmap(dict.fromkeys(range(1, 9), 0)) == bytes(256)


def test_columns_round_trip():
    rng = Random(7)
    for images in [{}, dict.fromkeys(range(1, 9), 0),
                   *(random_columns(rng) for _ in range(20))]:
        cols = columns(linmap(images))
        assert cols == bytes(images.get(i + 1, e) for i, e in enumerate(E))
        assert linmap(dict(enumerate(cols, 1))) == linmap(images)
    assert columns(IDENTITY) == bytes(E)


def test_every_built_map_is_256_bytes(frame):
    maps = [
        *frame.rotations,
        *build_frame(perturb=True).rotations,
        *stabilizer_generators(frame).values(),
        *build_group81(frame),
        *(g for factor in line_maps() for g in factor),
        *line_shuffles(),
    ]
    assert len(maps) == 4 + 4 + 10 + 81 + 24 + 24
    assert all(type(m) is bytes and len(m) == 256 for m in maps)


def test_mulclose_single_rotation():
    z = linmap({1: E[7], 8: E[0] ^ E[7]})
    els = mulclose([z])
    assert els == {IDENTITY, z, linmap_power(z, 2)}


def test_span_is_the_point_set():
    fl = span([0x81, 0x80, 0x01])  # a dependent generating set
    assert fl == {0x01, 0x80, 0x81} and rank(fl) == 2
    assert 0x81 in fl and 0x02 not in fl
    assert span([0x01, 0x00]) == {0x01}  # zero adds nothing
    assert span([]) == frozenset() and rank(span([])) == 0
    assert span(E) == frozenset(range(1, 256)) and rank(span(E)) == 8


def test_dimension_is_the_rank_of_the_span():
    assert dimension([]) == dimension([0]) == 0
    assert dimension([0x81, 0x80, 0x01]) == 2  # dependent
    assert dimension(E) == dimension(range(256)) == 8
    # every set of up to three vectors from a spread of small ones, and
    # the points of each flat spanned by those
    vectors = [0, 1, 3, 5, 6, 0x18, 0x81, 0x99, 0xFF]
    for k in range(4):
        for chosen in combinations(vectors, k):
            fl = span(chosen)
            assert dimension(chosen) == dimension(sorted(fl)) == rank(fl)


def test_flat_equality_and_hash():
    a = span([0x01, 0x80])
    b = span([0x81, 0x01])
    assert a == b and hash(a) == hash(b)
    assert a != span([0x01, 0x02])
    assert {a: "line"}[frozenset({0x01, 0x80, 0x81})] == "line"


def test_perp_dimensions():
    pp = perp([0x01])
    # perp of e1 under the reversal pairing: everything missing e8
    assert pp == {x for x in range(1, 256) if not x & 0x80} and rank(pp) == 7
    assert rank(perp([UNIT])) == 7
    assert rank(perp([0x01, 0x80])) == 6
    assert perp([]) == frozenset(range(1, 256))


def _line_union_flats(lines):
    """The 15 flats spanned by a nonempty set of the given lines, by
    definition: every sum of one vector from each line or zero."""
    for k in range(1, 5):
        for chosen in combinations(lines, k):
            sums = {reduce(xor, vs, 0) for vs in product(*(ln | {0} for ln in chosen))}
            yield list(frozenset().union(*chosen)), frozenset(sums - {0})


def test_span_and_perp_on_coordinate_and_line_union_flats(frame):
    coordinate = [
        ([e for e in E if s & e], frozenset(x for x in range(1, 256) if not x & ~s))
        for s in range(1, 256)
    ]
    points = [([p], frozenset({p})) for p in range(1, 256)]
    flats = coordinate + points + list(_line_union_flats(frame.lines))
    assert len(flats) == 255 + 255 + 15
    for gens, flat in flats:
        assert span(gens) == flat
        brute = frozenset(
            x for x in range(1, 256)
            if all(symplectic_product(x, v) == 0 for v in flat)
        )
        assert perp(flat) == brute
        assert perp(perp(flat)) == flat
        assert rank(flat) + rank(perp(flat)) == 8


def test_forms_are_the_tables_of_the_symplectic_form():
    assert len(FORMS) == 256
    for z, form in enumerate(FORMS):
        assert form >> 256 == 0
        for x in range(256):
            assert form >> x & 1 == symplectic_product(x, z)


def test_support_reads_a_table_back():
    assert list(support(0)) == []
    assert list(support(FULL)) == list(range(256))
    for points in ({1}, {0, 255}, {3, 17, 200}, set(range(1, 256, 7))):
        assert list(support(mask(points))) == sorted(points)


def test_lines_inside():
    triangle = {0x01, 0x80, 0x81}
    assert lines_inside(triangle) == {frozenset(triangle)}
    fl = span([0x01, 0x02])
    assert len(lines_inside(fl)) == 1
    plane = span([0x01, 0x02, 0x04])
    assert len(lines_inside(plane)) == 7  # Fano plane
    assert lines_inside({0x01, 0x02, 0x04}) == set()

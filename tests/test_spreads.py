"""Tests for the eight spreads, generator solids, and the spread lines
inside the weight-4 orbit."""

import pytest

from tetradgeom import gf3, spreads
from tetradgeom.gf2 import rank, span
from tetradgeom.gf3 import ALL81, wt_std
from tetradgeom.gf3 import trit_from_str as T

#: the eight spread lines through the all-ones point, by direction ijk1
LINES_THROUGH_UNIT = {
    T("1111"): {0xFF, 0x55, 0xAA},
    T("1221"): {0xFF, 0x33, 0xCC},
    T("2121"): {0xFF, 0x0F, 0xF0},
    T("2211"): {0xFF, 0x69, 0x96},
    T("2221"): {0xFF, 0x4D, 0xB2},
    T("2111"): {0xFF, 0x2B, 0xD4},
    T("1211"): {0xFF, 0x17, 0xE8},
    T("1121"): {0xFF, 0x71, 0x8E},
}

#: the plane common to the two generator solids of the all-ones point:
#: the point itself plus the six sums of two tetrad-line pair masks
UNIT_SOLID_MEET = {0xFF, 0xC3, 0xA5, 0x99, 0x3C, 0x5A, 0x66}


def test_families():
    assert len(gf3.DIRECTIONS) == 8
    assert len(gf3.FAMILY_EVEN) == 4
    assert len(gf3.FAMILY_ODD) == 4
    assert set(gf3.FAMILY_EVEN) & set(gf3.FAMILY_ODD) == set()
    # family = parity of the number of 2-digits
    for d in gf3.FAMILY_EVEN:
        assert gf3.digits(d).count(2) % 2 == 0
    for d in gf3.FAMILY_ODD:
        assert gf3.digits(d).count(2) % 2 == 1


def line_through(spread, p):
    """The line of `spread` that contains the point p."""
    [ln] = [ln for ln in spread if p in ln]
    return ln


def test_build_spread_partitions_points(ctx):
    lines = spreads.build_spread(ctx.g81, T("1111"))
    assert len(lines) == 85
    covered = set()
    for ln in lines:
        assert len(ln) == 3
        p, q, r = sorted(ln)
        assert p ^ q ^ r == 0  # closed under XOR => a projective line
        covered |= ln
    assert covered == set(range(1, 256))


def test_build_spread_is_a_tuple_of_frozensets_by_least_point(ctx):
    for d in gf3.DIRECTIONS:
        lines = spreads.build_spread(ctx.g81, d)
        assert type(lines) is tuple and len(lines) == 85
        assert all(type(ln) is frozenset for ln in lines)
        assert [min(ln) for ln in lines] == sorted(min(ln) for ln in lines)


def test_each_spread_is_the_point_orbits_of_its_generator(ctx):
    # the lines are {p, A p, A^2 p} for A = g81[sigma], over all 255 points
    for d, lines in ctx.spreads.items():
        a = ctx.g81[d]
        orbits = {frozenset((p, a[p], a[a[p]])) for p in range(1, 256)}
        assert set(lines) == orbits, gf3.trit_str(d)


def test_every_spread_contains_the_tetrad(ctx):
    tetrad_lines = {frozenset(ln) for ln in ctx.frame.lines}
    for d, lines in ctx.spreads.items():
        assert tetrad_lines <= set(lines), gf3.trit_str(d)


def test_build_spread_rejects_bad_index(ctx):
    # a zero digit, a negated direction, a last digit 0, not a vector
    for bad in (T("0111"), T("2222"), T("1110"), 81):
        with pytest.raises(ValueError):
            spreads.build_spread(ctx.g81, bad)


def test_all_spreads_keys(ctx):
    assert set(ctx.spreads) == set(gf3.DIRECTIONS)
    assert all(len(lines) == 85 for lines in ctx.spreads.values())


def test_lines_through_unit_point(ctx):
    for d, expected in LINES_THROUGH_UNIT.items():
        assert line_through(ctx.spreads[d], 0xFF) == expected


def test_distinct_line_counts_by_orbit(ctx):
    # weight-4 points lie on 8 distinct spread lines, weight-3 on 4,
    # weight-2 on 2, tetrad points on 1 (all eight spreads share the
    # tetrad lines)
    expected = {1: 1, 2: 2, 3: 4, 4: 8}
    through = spreads.line_counts(ctx.spreads)
    for r, want in expected.items():
        counts = {through[p] for p in ctx.frame.orbit(r)}
        assert counts == {want}, r


def test_line_counts_count_the_distinct_lines_through_each_point(ctx):
    lines = {ln for spread in ctx.spreads.values() for ln in spread}
    through = spreads.line_counts(ctx.spreads)
    for p in range(1, 256):
        assert through[p] == sum(p in ln for ln in lines), p


def test_solid_pair_of_unit_point(ctx):
    pi, pistar = spreads.solid_pair(ctx.frame, ctx.g81, 0xFF)
    for flat in (pi, pistar):
        assert rank(flat) == 4
        assert len(flat) == 15
        weights = sorted(ctx.frame.line_weight(p) for p in flat)
        assert weights == [2] * 6 + [4] * 9
    meet = pi & pistar
    assert meet == UNIT_SOLID_MEET
    # the common plane: the point itself plus six weight-2 points
    assert sorted(ctx.frame.line_weight(p) for p in meet) == [2] * 6 + [4]


def test_solid_pair_spans_even_and_odd_families(ctx):
    pi, pistar = spreads.solid_pair(ctx.frame, ctx.g81, 0xFF)
    even_pts = set().union(
        *(line_through(ctx.spreads[d], 0xFF) for d in gf3.FAMILY_EVEN)
    )
    odd_pts = set().union(
        *(line_through(ctx.spreads[d], 0xFF) for d in gf3.FAMILY_ODD)
    )
    assert even_pts <= pi
    assert odd_pts <= pistar


def test_solid_pair_spans_the_spreads_same_family_lines(ctx):
    # the orbit route of solid_pair and the spreads' lines agree at every
    # weight-4 point
    for p in ctx.frame.orbit(4):
        want = tuple(
            span({q for d in family for q in line_through(ctx.spreads[d], p)})
            for family in (gf3.FAMILY_EVEN, gf3.FAMILY_ODD)
        )
        assert spreads.solid_pair(ctx.frame, ctx.g81, p) == want, p


def test_solid_pair_rejects_low_weight_point(ctx):
    for p in (0x01, 0xC3):  # line weights 1 and 2
        with pytest.raises(ValueError):
            spreads.solid_pair(ctx.frame, ctx.g81, p)


def test_orbit4_line_test_matches_direction_weight(ctx):
    # {p, Ap, A^2 p} stays a line inside the weight-4 orbit exactly for
    # the sixteen weight-4 directions (the eight spread directions and
    # their inverses)
    p = 0x55
    for direction in ALL81:
        got = spreads.orbit4_line_test(ctx.frame, ctx.g81, p, direction)
        assert got == (wt_std(direction) == 4), direction


def test_orbit4_line_test_rejects_point_off_orbit(ctx):
    with pytest.raises(ValueError):
        spreads.orbit4_line_test(ctx.frame, ctx.g81, 0x01, T("1111"))


def test_parallel_classes(ctx):
    # each spread's lines inside the weight-4 orbit partition it into 27
    omega4 = ctx.frame.orbit(4)
    for d, lines in ctx.spreads.items():
        inside = [ln for ln in lines if ln <= omega4]
        assert len(inside) == 27, gf3.trit_str(d)
        assert sum(len(ln) for ln in inside) == 81
        assert frozenset().union(*inside) == omega4

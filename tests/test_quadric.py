"""Tests for the 135-point quadric, its 270 solids, and the 9-caps."""

from collections import Counter
from itertools import combinations

import pytest
from conftest import symplectic_product

from tetradgeom import gf2, gf3, quadric, spreads
from tetradgeom.gf2 import quadric_value
from tetradgeom.gf3 import trit_from_str as T

#: the cap labelled by the first all-weight-3 direction plane
FIRST_CAP = (0x37, 0x4F, 0x79, 0x9E, 0xAB, 0xD5, 0xEC, 0xF2, 0xFF)


def test_quadric_is_the_even_orbits(frame):
    Q = quadric.build_quadric()
    assert len(Q) == 135
    assert Q == frame.orbit(2) | frame.orbit(4)
    # spot membership: unit point and a two-pair sum are on, e1 is off
    assert 0xFF in Q and 0xC3 in Q and 0x01 not in Q
    assert all(quadric_value(p) == 0 for p in Q)


def test_unique_form_certificate(frame):
    cert = quadric.unique_form_certificate(frame)
    assert cert["candidates"] == 256
    assert cert["survivors"] == [0xFF]
    assert cert["adopted_linear_part"] == 0xFF


def levelwise_solids(qpoints) -> tuple:
    """Reference: extend points -> lines -> planes -> solids by every
    orthogonal quadric point, deduplicating the point sets at each level."""
    qlist = sorted(qpoints)
    qset = frozenset(qlist)
    perp_sing = {
        p: frozenset(
            q for q in qlist if q != p and symplectic_product(p, q) == 0
        )
        for p in qlist
    }
    level = {frozenset((p,)): (p,) for p in qlist}
    for _ in range(3):
        nxt = {}
        for pts, basis in level.items():
            cand = perp_sing[basis[0]]
            for b in basis[1:]:
                cand = cand & perp_sing[b]
            for q in cand:
                if q in pts:
                    continue
                npts = frozenset(pts | {q} | {s ^ q for s in pts})
                if npts not in nxt and npts <= qset:
                    nxt[npts] = basis + (q,)
        level = nxt
    return tuple(sorted(level, key=sorted))


def test_singular_solids_match_levelwise_reference(ctx):
    assert ctx.solids == levelwise_solids(ctx.quadric_points)


def test_singular_solids_are_distinct(ctx):
    assert len(set(ctx.solids)) == len(ctx.solids) == 270


def test_the_solid_search_spans_each_solid_once(ctx, monkeypatch):
    # the search carries only its rows; each solid is spanned once, from
    # its four rows, and no span is built at an inner node
    calls = []

    def counted(rows, span=gf2.span):
        calls.append(len(rows))
        return span(rows)

    monkeypatch.setattr(quadric, "span", counted)
    assert quadric.singular_solids(ctx.quadric_points) == ctx.solids
    assert calls == [4] * 270


def test_every_singular_line_lies_in_six_solids(ctx):
    # a totally singular line is a pair of orthogonal quadric points; the
    # solids through it are the 6 lines of the Q+(3,2) in its perp
    through = Counter(
        pair for s in ctx.solids for pair in combinations(sorted(s), 2)
    )
    orthogonal = {
        (p, q)
        for p, q in combinations(sorted(ctx.quadric_points), 2)
        if symplectic_product(p, q) == 0
    }
    assert len(orthogonal) == 135 * 70 // 2
    assert set(through) == orthogonal
    assert set(through.values()) == {6}


def masks_of(solids) -> list:
    return [sum(1 << p for p in s) for s in solids]


def test_singular_solids_structure(ctx):
    solids = ctx.solids
    assert len(solids) == 270
    Q = ctx.quadric_points
    for s in solids:
        assert len(s) == 15
        assert s <= Q
        pts = sorted(s)
        # XOR-closed (a 4-dimensional subspace) and totally singular
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                assert p ^ q in s
                assert symplectic_product(p, q) == 0


def test_two_systems_of_solids(ctx):
    tags = ctx.system_tags
    assert len(tags) == 270
    assert tags.count(0) == 135
    assert tags.count(1) == 135
    # the tagging is the parity relation on all 36315 pairs
    assert quadric.SAME_SYSTEM_MEETS == (15, 3, 0)
    masks = masks_of(ctx.solids)
    for (a, ta), (b, tb) in combinations(zip(masks, tags), 2):
        same = (a & b).bit_count() in quadric.SAME_SYSTEM_MEETS
        assert same == (ta == tb)


def test_intersection_sizes_split_by_system(ctx):
    tags = ctx.system_tags
    sizes = Counter(
        ((a & b).bit_count(), ta == tb)
        for (a, ta), (b, tb) in combinations(zip(masks_of(ctx.solids), tags), 2)
    )
    # distinct solids meet in a plane, line, point or nothing: dimensions
    # 2 and 0 across the systems, 1 and -1 within one
    assert {n for n, _ in sizes} == {0, 1, 3, 7}
    for (n, same), count in sizes.items():
        assert same == (n in (0, 3)), (n, same, count)
    assert sum(sizes.values()) == 270 * 269 // 2


def test_generator_solid_pair_lies_on_quadric(ctx):
    pi, pistar = spreads.solid_pair(ctx.frame, ctx.g81, 0xFF)
    solid_sets = set(ctx.solids)
    assert pi in solid_sets
    assert pistar in solid_sets
    # the two members of the pair sit in opposite systems
    assert not quadric.same_system(pi, pistar)
    assert len(pi & pistar) == 7


def test_weight3_lines(frame):
    w3 = quadric.weight3_lines()
    assert len(w3) == 8
    for ln in w3:
        assert ln.kind == 7
        assert all(
            gf3.wt_std(v) == 3 for v in ln.vectors if v != gf3.ZERO
        )
    first = w3[0]
    assert set(first.points) == {
        T("0111"),
        T("1012"),
        T("1120"),
        T("1201"),
    }


def test_nine_cap(frame):
    cap = quadric.nine_cap(frame, quadric.weight3_lines()[0])
    assert cap == FIRST_CAP
    assert 0xFF in cap
    Q = quadric.build_quadric()
    for i, p in enumerate(cap):
        assert p in Q
        for q in cap[i + 1 :]:
            # pairwise non-orthogonal, so no quadric line joins them
            assert symplectic_product(p, q) == 1
            assert (p ^ q) not in Q


def test_nine_cap_rejects_mixed_weight_subspace(frame):
    bad = gf3.line_through(T("1000"), T("0100"))
    with pytest.raises(ValueError):
        quadric.nine_cap(frame, bad)


def test_cap_translates_partition_weight4_orbit(frame):
    for ln in quadric.weight3_lines():
        caps = [set(gf2.support(c)) for c in quadric.cap_translates(frame, ln)]
        assert len(caps) == 9
        assert all(len(c) == 9 for c in caps)
        union = set().union(*caps)
        assert union == frame.orbit(4)
        assert sum(len(c) for c in caps) == 81  # pairwise disjoint
        for c in caps:
            pts = sorted(c)
            for i, p in enumerate(pts):
                for q in pts[i + 1 :]:
                    assert symplectic_product(p, q) == 1
    # the subspace's own cap is among its translates
    first = quadric.weight3_lines()[0]
    assert gf2.mask(FIRST_CAP) in quadric.cap_translates(frame, first)


def test_cap_translates_are_the_81_shifts(frame):
    # each translate built once is the table of the definition's 9-set:
    # the distinct cosets over all 81 shifts, ordered by least point
    for ln in quadric.weight3_lines():
        shifted = {frame.coset_points(ln.vectors, s) for s in gf3.ALL81}
        assert quadric.cap_translates(frame, ln) == tuple(
            gf2.mask(c) for c in sorted(shifted, key=min)
        )

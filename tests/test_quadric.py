"""Tests for the 135-point quadric, its 270 solids, and the 9-caps."""

import random

import pytest

from tetradgeom import gf3, quadric, spreads
from tetradgeom.gf2 import quadric_value, symplectic_product
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
    # the tagging is consistent with the parity relation on a seeded
    # sample of pairs; the full 270 x 270 sweep runs in the certificates
    solids = ctx.solids
    rng = random.Random(20260819)
    for _ in range(4000):
        a, b = rng.randrange(270), rng.randrange(270)
        same = quadric.same_system(solids[a], solids[b])
        assert same == (tags[a] == tags[b]), (a, b)


def test_intersection_sizes_split_by_system(ctx):
    solids = ctx.solids
    rng = random.Random(1331)
    for _ in range(2000):
        a, b = rng.sample(range(270), 2)
        n = len(solids[a] & solids[b])
        assert n in (0, 1, 3, 7, 15)
        if quadric.same_system(solids[a], solids[b]):
            assert n in (0, 3, 15)
        else:
            assert n in (1, 7)


def test_generator_solid_pair_lies_on_quadric(ctx):
    pi, pistar = spreads.solid_pair(ctx.frame, ctx.spreads, 0xFF)
    solid_sets = set(ctx.solids)
    assert pi.points() in solid_sets
    assert pistar.points() in solid_sets
    # the two members of the pair sit in opposite systems
    assert not quadric.same_system(pi.points(), pistar.points())
    assert len(pi.points() & pistar.points()) == 7


def test_weight3_lines(frame):
    w3 = quadric.weight3_lines()
    assert len(w3) == 8
    for ln in w3:
        assert gf3.line_kind(ln) == 7
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
        caps = quadric.cap_translates(frame, ln)
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
    assert frozenset(FIRST_CAP) in quadric.cap_translates(frame, first)

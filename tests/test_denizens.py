"""Tests for denizens: classification, sections, fans, and enneads."""

import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from conftest import symplectic_product

from tetradgeom import denizens, gf2, gf3
from tetradgeom.certificates import Context, check_c2
from tetradgeom.gf2 import mask, perp, rank, span
from tetradgeom.gf3 import trit_from_str as T

#: the canonical Segre denizen decomposes into the labelled subspace
#: <1221, 2121> and its two cosets along 2211
SLAB_SUBSPACE = (T("1221"), T("2121"))
SLAB_STEP = T("2211")
FIRST_SLAB = {0xFF, 0x33, 0xCC, 0xF0, 0x0F, 0xCF, 0xF3, 0x3F, 0xFC}

#: a regulus / opposite-regulus pair: the weight-2 lines of the two C2
#: triplets living in the 3-flat spanned by the third and fourth tetrad
#: lines
REGULUS = (
    frozenset({0x0C, 0x30, 0x3C}),
    frozenset({0x1C, 0x28, 0x34}),
    frozenset({0x14, 0x2C, 0x38}),
)
OPPOSITE_REGULUS = (
    frozenset({0x14, 0x28, 0x3C}),
    frozenset({0x0C, 0x34, 0x38}),
    frozenset({0x1C, 0x2C, 0x30}),
)


def points_of(table) -> frozenset:
    """The points whose bits are set in a 256-bit point table."""
    return frozenset(p for p in range(256) if table >> p & 1)


def fan_directions(den) -> list:
    """The kind-3 subspaces of a Segre denizen's plane, in the plane's
    order: one per fan triplet, whose fans are its cosets."""
    return [w for w in den.plane.subspaces if w.kind == 3]


def weight3_pair(sub) -> int:
    """The projective point of weight 3 of a kind-3 subspace, the
    canonical one of its +-lambda pair."""
    return min(p for p in sub.points if gf3.wt_std(p) == 3)


def coset_points(frame, vectors, shift) -> frozenset:
    """The reference a coset's table is read against: the point U_(v +
    shift) of each of its vectors v, one at a time."""
    return frozenset(frame.point_from_trits(gf3.t_add(v, shift)) for v in vectors)


def test_triplet_census(ctx):
    trips = ctx.triplets
    assert len(trips) == 40
    census = Counter(d.kind for t in trips for d in t)
    assert census == {"segre": 24, "C1": 48, "C2": 36, "C3": 12}
    omega4 = ctx.frame.orbit(4)
    for t in trips:
        # the three kinds agree and the cosets partition the orbit
        assert len({d.kind for d in t}) == 1
        pts = [points_of(d.points) for d in t]
        assert all(len(p) == 27 and p <= omega4 for p in pts)
        assert frozenset().union(*pts) == omega4
        # shift 0 is the subspace itself, so it holds the unit point
        assert 0xFF in pts[0]
        assert 0xFF not in pts[1] and 0xFF not in pts[2]


def test_denizens_and_fans_are_held_as_tables(frame):
    # 120 denizens and 288 fans held as ints: as frozensets of points they
    # take over 500 KiB
    for pl in gf3.all_planes():
        pl.subspaces  # the gf3 caches, built outside the bound
    tracemalloc.start()
    try:
        ctx = Context(frame)
        ctx.triplets, ctx.segres, ctx.fan_triplets
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 160 * 2**10


def test_denizen_by_id(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    assert den.kind == "segre"
    assert den.shift_index == 0
    assert den.plane.functional == T("1111")
    assert den.ident == "1111:0"
    # scaled functionals name the same plane
    same = denizens.denizen_by_id(frame, "2222:0")
    assert same.points == den.points


def test_denizen_by_id_rejects_malformed(frame):
    for bad in (
        "111:0", "1111:5", "1111", "1x11:0", "0000:0", "11111:0", "1111:",
        # int() reads each of these shifts as 0 or 1
        "1111:+1", "1111: 1", "1111:0_0", "1111:-0", "1111:0 ", "1111:00",
        "1111:\u0661",
    ):
        with pytest.raises(ValueError):
            denizens.denizen_by_id(frame, bad)


def test_classify_canonical_segre(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    cert = denizens.structural_certificate(den)
    assert den.kind == "segre"
    assert cert == {
        "lines": 27,
        "per_point": [3],
        "span_rank": 8,
        "structural_kind": "segre",
    }


def test_classification_routes_agree_everywhere(ctx):
    # the plane-kind route and the purely structural route always match
    for t in ctx.triplets:
        for d in t:
            cert = denizens.structural_certificate(d)
            assert cert["structural_kind"] == d.kind, d.ident


def test_segre_slab_decomposition(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    sub = gf3.line_through(*SLAB_SUBSPACE)
    slabs = []
    for j in range(3):
        s = gf3.t_scale(j, SLAB_STEP)
        slabs.append(
            frozenset(frame.point_from_trits(gf3.t_add(v, s)) for v in sub.vectors)
        )
    assert slabs[0] == FIRST_SLAB
    assert frozenset().union(*slabs) == points_of(den.points)
    assert sum(len(s) for s in slabs) == 27


def test_c2_line_of_canonical_c2(frame):
    den = denizens.denizen_by_id(frame, "0011:0")
    assert den.kind == "C2"
    assert denizens.c2_line(frame, den) == {0x0C, 0x30, 0x3C}
    cert = denizens.structural_certificate(den)
    assert cert == {
        "lines": 36,
        "per_point": [4],
        "span_rank": 6,
        "structural_kind": "C2",
    }


def test_c2_line_rejects_other_kinds(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    with pytest.raises(ValueError):
        denizens.c2_line(frame, den)


def test_c3_spans_perp_of_weight1_point(frame):
    den = denizens.denizen_by_id(frame, "0001:0")
    assert den.kind == "C3"
    cert = denizens.structural_certificate(den)
    assert cert == {
        "lines": 0,
        "per_point": [0],
        "span_rank": 7,
        "structural_kind": "C3",
    }
    f = perp(points_of(den.points))
    assert rank(f) == 1
    (pt,) = f
    assert frame.line_weight(pt) == 1


def test_c1_observed_profile(frame):
    den = denizens.denizen_by_id(frame, "1220:0")
    assert den.kind == "C1"
    cert = denizens.structural_certificate(den)
    assert cert == {
        "lines": 18,
        "per_point": [2],
        "span_rank": 8,
        "structural_kind": "C1",
    }


def test_c2_census(ctx):
    assert check_c2(ctx) == {
        "distinct_lines": 36,
        "pairs": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    }


def test_regulus_pair_in_third_fourth_flat(ctx):
    frame = ctx.frame
    c2_triplets = [t for t in ctx.triplets if t[0].kind == "C2"]
    flat = span(frame.lines[2] | frame.lines[3])
    found = []
    for t in c2_triplets:
        lns = frozenset(denizens.c2_line(frame, d) for d in t)
        if span(set().union(*lns)) == flat:
            found.append(lns)
    assert sorted(found, key=sorted) == sorted(
        [frozenset(REGULUS), frozenset(OPPOSITE_REGULUS)], key=sorted
    )
    grid = flat & frame.orbit(2)
    assert len(grid) == 9
    for ruling in (REGULUS, OPPOSITE_REGULUS):
        assert frozenset().union(*ruling) == grid
        for a, b in combinations(ruling, 2):
            assert not a & b
    for a in REGULUS:
        for b in OPPOSITE_REGULUS:
            assert len(a & b) == 1


def test_sections_census(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    secs = denizens.sections_of(frame, den)
    assert len(secs) == 13
    assert Counter(s["tag"] for s in secs) == {
        "S2(2)": 3,
        "3-generator": 6,
        "fan": 4,
    }
    # the three cosets of each grid direction, built once for the six
    # transversal checks
    grids = denizens.grid_cosets(frame, den)
    assert [w.kind for w, _ in grids] == [4, 4, 4]
    for w, cosets in grids:
        steps = gf3.coset_shifts(den.plane.vectors, w.vectors, den.shift)
        assert list(cosets) == [coset_points(frame, w.vectors, s) for s in steps]
    for sub, s in zip(den.plane.subspaces, secs):
        assert len(s["points"]) == 9
        assert s["points"] == coset_points(frame, sub.vectors, den.shift)
        if s["tag"] == "S2(2)":
            assert len(s["rulings"]) == 2
            assert all(len(r) == 3 for r in s["rulings"])
        elif s["tag"] == "3-generator":
            assert len(s["generators"]) == 3
            assert s["transversal_grids"] == 3


def test_classify_section_rejects_bad_input(frame):
    c2 = denizens.denizen_by_id(frame, "0011:0")
    grids = denizens.grid_cosets(frame, c2)
    with pytest.raises(ValueError):
        denizens.classify_section(frame, c2, c2.plane.subspaces[0], grids)
    segre = denizens.denizen_by_id(frame, "1111:0")
    grids = denizens.grid_cosets(frame, segre)
    outside = gf3.line_through(T("1000"), T("0100"))
    with pytest.raises(ValueError):
        denizens.classify_section(frame, segre, outside, grids)


def test_six_concurrent_lines_are_not_a_grid():
    # every pair meets in the point 1, so no line has a ruling partner
    lines = [frozenset({1, 1 << k, 1 | 1 << k}) for k in range(1, 7)]
    with pytest.raises(ValueError, match="does not split into rulings"):
        denizens._ruling_split(lines)


def test_fan_triplets_of_canonical_segre(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    fts = denizens.fan_triplets(frame, den)
    subs = fan_directions(den)
    assert [weight3_pair(w) for w in subs] == [
        T("0111"),
        T("1011"),
        T("1101"),
        T("1110"),
    ]
    # the centre lines are exactly the four tetrad lines; the zero digit
    # of the weight-3 pair names the line
    for ft, line in zip(fts, frame.lines, strict=True):
        assert len(ft) == 3
        assert frozenset().union(*map(points_of, ft)) == points_of(den.points)
        centres = {denizens.fan_decompose(frame, f)[1] for f in ft}
        assert centres == line


def test_fan_triplets_follow_the_kind3_subspaces_by_weight3_pair(ctx):
    # the plane's order of its kind-3 subspaces ascends by canonical
    # weight-3 pair; the perturbed report's fan centre is read in it
    frame = ctx.frame
    assert len(ctx.segres) == 24
    for den, fts in zip(ctx.segres, ctx.fan_triplets, strict=True):
        subs = fan_directions(den)
        pairs = [weight3_pair(w) for w in subs]
        assert len(set(pairs)) == 4 and pairs == sorted(pairs), den.ident
        for ft, w in zip(fts, subs, strict=True):
            for fan in ft:
                least = frame.trits_from_point(min(points_of(fan)))
                assert points_of(fan) == coset_points(
                    frame, w.vectors, least
                ), den.ident


def test_fan_decomposition_troikas(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    fts = denizens.fan_triplets(frame, den)
    ft = next(
        ft for ft, w in zip(fts, fan_directions(den)) if weight3_pair(w) == T("0111")
    )
    fan = next(f for f in ft if 0xFF in points_of(f))
    troikas, centre = denizens.fan_decompose(frame, fan)
    assert len(troikas) == 3
    assert frozenset({0xFF, 0xD5, 0xAB}) in troikas
    assert centre == 0x81
    for t in troikas:
        a, b, c = sorted(t)
        assert a ^ b ^ c == centre


def test_fan_xor_is_its_troika_centre(ctx):
    # three troikas XOR to the centre each, so the nine points XOR to it
    for den, fts in zip(ctx.segres, ctx.fan_triplets):
        fans = [fan for ft in fts for fan in ft]
        assert len(fans) == 12
        for fan in fans:
            _, centre = denizens.fan_decompose(ctx.frame, fan)
            assert reduce(xor, points_of(fan)) == centre, den.ident


def test_recovered_centre_is_the_troika_centre(ctx):
    # recover_tetrad's route to a centre, the XOR of the nine points,
    # against fan_decompose's, through the troikas, on every distinct fan
    fans = {fan for fts in ctx.fan_triplets for ft in fts for fan in ft}
    assert len(fans) == 144
    for fan in fans:
        _, centre = denizens.fan_decompose(ctx.frame, fan)
        assert denizens.recover_tetrad(((fan,),)) == {frozenset({centre})}


def test_fans_per_point(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    fts = denizens.fan_triplets(frame, den)
    counts = Counter(p for ft in fts for fan in ft for p in points_of(fan))
    assert set(counts) == points_of(den.points)
    assert set(counts.values()) == {4}
    # the bit planes of gf2.bit_counts over the 12 fan tables spell out the
    # same count at every point
    planes = gf2.bit_counts(fan for ft in fts for fan in ft)
    assert all(
        sum((c >> p & 1) << k for k, c in enumerate(planes)) == counts[p]
        for p in range(256)
    )


def test_recover_tetrad(frame):
    for ident in ("1111:0", "1111:1", "1221:2"):
        den = denizens.denizen_by_id(frame, ident)
        assert den.kind == "segre"
        fts = denizens.fan_triplets(frame, den)
        assert denizens.recover_tetrad(fts) == set(frame.lines)


def test_fan_decompose_rejects_non_fans(frame):
    den = denizens.denizen_by_id(frame, "1111:0")
    fts = denizens.fan_triplets(frame, den)
    fan = fts[0][0]
    eight = fan & fan - 1  # without its least point
    with pytest.raises(ValueError):  # only eight points
        denizens.fan_decompose(frame, eight)
    with pytest.raises(ValueError):  # a point off the weight-4 orbit
        denizens.fan_decompose(frame, eight | 1 << 0x01)
    # a grid section contains generator pairs, so it is not a fan
    grid = next(
        s["points"]
        for s in denizens.sections_of(frame, den)
        if s["tag"] == "S2(2)"
    )
    with pytest.raises(ValueError):
        denizens.fan_decompose(frame, mask(grid))


def test_perp_of_every_denizen_and_its_span_is_the_pointwise_filter(ctx):
    # the reference: every x with B(x, p) = 0 for each given p
    def filtered_perp(points):
        return frozenset(
            x for x in range(1, 256)
            if not any(symplectic_product(x, p) for p in points)
        )

    for t in ctx.triplets:
        for d in t:
            pts = points_of(d.points)
            assert perp(pts) == filtered_perp(pts), d.ident
            flat = span(pts)
            assert perp(flat) == filtered_perp(flat), d.ident


def test_denizen_masks_are_their_points(ctx):
    # every denizen's and every fan's table, read bit by bit, against its
    # coset's points taken one vector at a time
    frame = ctx.frame
    for t in ctx.triplets:
        for d in t:
            assert points_of(d.points) == coset_points(
                frame, d.plane.vectors, d.shift
            ), d.ident
    for den, fts in zip(ctx.segres, ctx.fan_triplets):
        for ft, sub in zip(fts, fan_directions(den), strict=True):
            steps = gf3.coset_shifts(den.plane.vectors, sub.vectors, den.shift)
            assert [points_of(f) for f in ft] == [
                coset_points(frame, sub.vectors, s) for s in steps
            ], den.ident


def test_ennead(ctx):
    t1, t2 = ctx.triplets[0], ctx.triplets[1]
    cells = [points_of(c) for c in denizens.ennead(t1, t2)]
    assert len(cells) == 9
    assert all(len(c) == 9 for c in cells)
    assert frozenset().union(*cells) == ctx.frame.orbit(4)
    assert sum(len(c) for c in cells) == 81  # pairwise disjoint


def test_every_ennead_cell_is_the_coset_of_its_least_point(ctx):
    # the definition, pair by pair: each cell is the meet of the two
    # planes shifted to its least point, and the nine cells partition the
    # orbit
    frame = ctx.frame
    omega4 = frame.orbit(4)
    pairs = 0
    for t1, t2 in combinations(ctx.triplets, 2):
        meet = t1[0].plane.vectors & t2[0].plane.vectors
        cells = [points_of(c) for c in denizens.ennead(t1, t2)]
        for cell in cells:
            assert cell == coset_points(
                frame, meet, frame.trits_from_point(min(cell))
            )
        assert len(cells) == 9
        assert sum(map(len, cells)) == 81
        assert frozenset().union(*cells) == omega4
        pairs += 1
    assert pairs == 780


def test_ennead_rejects_equal_planes(ctx):
    t1 = ctx.triplets[0]
    with pytest.raises(ValueError):
        denizens.ennead(t1, t1)

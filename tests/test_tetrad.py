"""The frame: four lines, rotations, labelling, groups."""

import os
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from conftest import records

from tetradgeom import gf3, tetrad
from tetradgeom.gf2 import (
    E,
    IDENTITY,
    PAIR_MASKS,
    columns,
    compose,
    inverse,
    linmap,
    linmap_power,
    mask,
    mulclose,
    quadric_value,
)
from tetradgeom.gf3 import mat3_table
from tetradgeom.gf3 import trit_from_str as T
from tetradgeom.tetrad import (
    build_frame,
    build_group81,
    build_stabilizer,
    images,
    induced_matrix,
    line_maps,
    line_shuffles,
    pair_index,
    point_orbits,
    stabilizer_generators,
)



LINES = (
    frozenset({0x01, 0x80, 0x81}),
    frozenset({0x02, 0x40, 0x42}),
    frozenset({0x04, 0x20, 0x24}),
    frozenset({0x08, 0x10, 0x18}),
)


def test_lines_are_the_coordinate_pairs(frame):
    assert frame.lines == LINES
    assert frame.label_str(0xFF) == "U_0000"


def test_point_sequences(frame):
    # u_h(0) is the weight-2 point; the rotation steps the index
    assert frame.points[0] == (0x81, 0x01, 0x80)
    assert frame.points[1] == (0x42, 0x40, 0x02)
    assert frame.points[2] == (0x24, 0x04, 0x20)
    assert frame.points[3] == (0x18, 0x10, 0x08)
    for h in range(4):
        z = frame.rotations[h]
        assert linmap_power(z, 3) == IDENTITY
        u0, u1, u2 = frame.points[h]
        assert z[u0] == u1
        assert z[u1] == u2
        assert z[u2] == u0


def test_rotations_fix_other_lines(frame):
    for h in range(4):
        for k in range(4):
            if k == h:
                continue
            for p in frame.lines[k]:
                assert frame.rotations[h][p] == p


def test_labels_bijective(frame):
    assert len(frame.label_table()) == 255
    # the 255 non-empty index tuples label 255 distinct nonzero points
    tuples = [t for t in product((None, 0, 1, 2), repeat=4) if t != (None,) * 4]
    labels = {frame.label(t) for t in tuples}
    assert len(labels) == 255 and 0 not in labels
    for p in range(1, 256):
        assert frame.label(frame.label_table()[p]) == p


def test_frozen_labels(frame):
    assert frame.label((0, 0, 0, 0)) == 0xFF
    assert frame.label((1, 1, 1, 1)) == 0x55
    assert frame.label((2, 2, 2, 2)) == 0xAA
    assert frame.label((None, None, None, 0)) == 0x18
    assert frame.label((1, None, None, None)) == 0x01
    assert frame.label_table()[0x81] == (0, None, None, None)


def test_label_str(frame):
    assert frame.label_str(0xFF) == "U_0000"
    assert frame.label_str(0x55) == "U_1111"
    assert frame.label_str(0x01) == "U_1..."
    assert frame.label_str(0x18) == "U_...0"


def test_tables_built_at_import_are_their_definitions():
    # every entry, against the spelling each table was first built by; the
    # point_str and line-weight tables are checked so by test_point_str and
    # test_line_weight_and_orbits
    def digits(v):
        return (v // 27, v // 9 % 3, v // 3 % 3, v % 3)

    for a in gf3.ALL81:
        for b in gf3.ALL81:
            s = [(x + y) % 3 for x, y in zip(digits(a), digits(b))]
            assert gf3.t_add(a, b) == 27 * s[0] + 9 * s[1] + 3 * s[2] + s[3]
    points, pairs = tetrad._TETRAD, tetrad._PAIRS
    for v in range(256):
        assert tetrad._POINT[v] == (points.index(v) if v in points else 12)
        pair = divmod(v, 13)
        assert tetrad._PAIR[v] == (pairs.index(pair) if pair in pairs else 255)
        # a valid code's line is the line of its pair's first point
        line = 1 << pairs[v][0] // 3 if v < len(pairs) else 0
        assert tetrad._LINE_BITS[v] == line


def test_line_weight_and_orbits(frame):
    assert frame.line_weight(0x01) == 1
    assert frame.line_weight(0x03) == 2
    assert frame.line_weight(0x07) == 3
    assert frame.line_weight(0xFF) == 4
    sizes = [len(frame.orbit(r)) for r in (1, 2, 3, 4)]
    assert sizes == [12, 54, 108, 81]
    assert set().union(*(frame.orbit(r) for r in (1, 2, 3, 4))) == set(
        range(1, 256)
    )
    # the table the frame reads is the definition at every vector
    for v in range(256):
        weight = sum(1 for pm in PAIR_MASKS if v & pm)
        assert frame.line_weight(v) == weight
        assert (v in frame.orbit(weight)) == (v != 0)


def test_coset_mask_is_the_mask_of_the_coset_points(frame):
    spaces = [s.vectors for s in (*gf3.all_lines(), *gf3.all_planes())]
    assert len(spaces) == 170
    for vectors in spaces:
        for shift in gf3.ALL81:
            assert frame.coset_mask(vectors, shift) == mask(
                frame.coset_points(vectors, shift)
            )
    assert frame.coset_mask(gf3.ALL81) == mask(frame.orbit(4))


def test_trit_point_round_trip(frame):
    for sigma in gf3.ALL81:
        p = frame.point_from_trits(sigma)
        assert frame.line_weight(p) == 4
        assert p == frame.label(gf3.digits(sigma))
        assert frame.trits_from_point(p) == sigma
    with pytest.raises(ValueError):
        frame.trits_from_point(0x01)  # not in the weight-4 orbit


def test_group81_shift_action(frame):
    g81 = build_group81(frame)
    assert len(g81) == 81 and len(set(g81)) == 81
    assert g81[gf3.ZERO] == IDENTITY
    # A_sigma shifts every label by sigma
    for sigma in gf3.ALL81:
        m = g81[sigma]
        for tau in gf3.ALL81[::7]:
            assert m[frame.point_from_trits(tau)] == frame.point_from_trits(
                gf3.t_add(tau, sigma)
            )
    # the group is elementary abelian of exponent 3
    for sigma in gf3.ALL81[::5]:
        m = g81[sigma]
        assert linmap_power(m, 3) == IDENTITY
        assert compose(m, g81[gf3.t_neg(sigma)]) == IDENTITY


def test_stabilizer_order_and_normality(frame):
    listing = build_stabilizer()
    assert len(listing) == 31104 * 8
    st = set(records(listing))
    assert len(st) == 31104  # 6^4 * 24
    g81 = build_group81(frame)
    for m in g81:
        assert columns(m) in st
    # conjugation by each generator permutes the 81 diagonal maps linearly
    for g in stabilizer_generators(frame).values():
        phi = mat3_table(induced_matrix(g, g81))
        ginv = inverse(g)
        for sigma in gf3.ALL81[::11]:
            conj = compose(compose(g, g81[sigma]), ginv)
            assert conj == g81[phi[sigma]]


def test_induced_matrix_rejects_a_map_off_the_normalizer(frame):
    g81 = build_group81(frame)
    transvection = linmap({1: E[0] ^ E[1]})  # e1 -> e1 + e2
    with pytest.raises(ValueError, match="does not normalize"):
        induced_matrix(transvection, g81)


def test_listing_is_the_generated_stabilizer(frame):
    maps = records(build_stabilizer())
    assert len(maps) == 31104 and len(set(maps)) == 31104  # 24 * 6^4
    # the breadth-first closure of all ten generators, an independent route
    closure = mulclose(stabilizer_generators(frame).values())
    assert set(maps) == {columns(m) for m in closure}
    assert pair_index(b"".join(map(columns, closure)))[0] == b"\x0f" * len(closure)


def test_listing_is_the_product_of_its_factors():
    per_line = line_maps()
    assert [len(maps) for maps in per_line] == [6, 6, 6, 6]
    shuffles = line_shuffles()
    assert len(set(shuffles)) == 24
    fixing = [
        compose(compose(a, b), compose(c, d)) for a, b, c, d in product(*per_line)
    ]
    products = {columns(compose(s, m)) for s in shuffles for m in fixing}
    listing = records(build_stabilizer())
    assert len(listing) == len(products) == 31104
    assert products == set(listing)


def test_the_pair_index_tells_the_real_listing_apart():
    # every record fixes the tetrad, and as many distinct indices as records
    listing = build_stabilizer()
    lines, keys = pair_index(listing)
    assert lines == b"\x0f" * 31104
    assert max(keys) < 24**4
    assert len(set(keys)) == len(set(records(listing))) == 31104


def test_listing_is_the_same_in_every_process():
    # a factor is a frozenset of bytes, iterated in an order that follows
    # each process's string hash seed
    code = (
        "import hashlib; from tetradgeom.tetrad import build_stabilizer; "
        "print(hashlib.sha256(build_stabilizer()).hexdigest())"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1


def fixes(*maps) -> list:
    """Whether each map fixes the tetrad, read off its packed line-hit byte."""
    return [hit == 0b1111 for hit in pair_index(b"".join(map(columns, maps)))[0]]


def test_fixes_tetrad(frame):
    assert fixes(IDENTITY) == [True]
    assert all(fixes(*stabilizer_generators(frame).values()))
    # e1 <-> e2 moves half of L_a onto L_b
    assert fixes(linmap({1: E[1], 2: E[0]})) == [False]
    # the perturbed rotation sends e1 to e2 + e8, off every tetrad line
    bad = stabilizer_generators(build_frame(perturb=True))["zeta_a"]
    assert fixes(bad) == [False]
    # a failing map is told apart in place, between two that fix
    assert fixes(IDENTITY, bad, IDENTITY) == [True, False, True]


def plain_images(listing, v) -> bytes:
    """The images of v under each record, applied column by column."""
    out = bytearray()
    for record in records(listing):
        image = 0
        for i in range(8):
            if v >> i & 1:
                image ^= record[i]
        out.append(image)
    return bytes(out)


def test_images_match_a_plain_loop_on_the_generators_and_g81(frame):
    maps = [*stabilizer_generators(frame).values(), *build_group81(frame)]
    listing = b"".join(map(columns, maps))
    image = images(listing)
    for v in range(256):
        assert image(v) == plain_images(listing, v) == bytes(m[v] for m in maps)


def test_images_match_a_plain_loop_on_the_full_listing(frame):
    listing = build_stabilizer()
    image = images(listing)
    # the three points of L_a, and u = U_0000, on the quadric
    u = frame.point_from_trits(0)
    assert quadric_value(u) == 0
    for v in (*frame.points[0], u):
        assert len(image(v)) == 31104
        assert image(v) == plain_images(listing, v)


def test_induced_matrix_examples(frame):
    g81 = build_group81(frame)
    gens = stabilizer_generators(frame)
    # a rotation lies in the abelian group: conjugation is trivial
    phi = mat3_table(induced_matrix(gens["zeta_a"], g81))
    assert phi[T("1000")] == T("1000")
    assert phi[T("0121")] == T("0121")
    # swapping the two marked points of L_a inverts zeta_a only
    phi = mat3_table(induced_matrix(gens["swap_a"], g81))
    assert phi[T("1000")] == T("2000")
    assert phi[T("0100")] == T("0100")
    # the 4-cycle of lines: conjugating each rotation gives the square of
    # the next one (the a/b and c/d patterns are mirrored)
    phi = mat3_table(induced_matrix(gens["cycle_abcd"], g81))
    assert phi[T("1000")] == T("0200")
    assert phi[T("0100")] == T("0020")
    assert phi[T("0010")] == T("0002")
    assert phi[T("0001")] == T("2000")


def test_induced_matrix_rejects_non_normalizing_and_singular_maps(frame):
    # the perturbed rotation does not normalize its frame's diagonal group
    bad_frame = build_frame(perturb=True)
    bad = stabilizer_generators(bad_frame)["zeta_a"]
    with pytest.raises(ValueError, match="does not normalize"):
        induced_matrix(bad, build_group81(bad_frame))
    with pytest.raises(ValueError, match="singular"):
        induced_matrix(linmap({1: 0}), build_group81(frame))


def test_point_orbits_of_rotations(frame):
    orbs = point_orbits(frame.rotations)
    sizes = Counter(len(o) for o in orbs)
    assert sizes == Counter({3: 4, 9: 6, 27: 4, 81: 1})
    assert frozenset(frame.lines[0]) in orbs


def test_perturbed_frame_is_detectably_broken():
    bad = build_frame(perturb=True)
    closed = all(
        (lambda a, b, c: a ^ b == c)(*sorted(ln)) for ln in bad.lines
    )
    bijective = len(bad.label_table()) == 255
    assert not (closed and bijective)

"""V(4,3) arithmetic, the two bases, and the PG(3,3) taxonomy."""

from collections import Counter

import pytest

from tetradgeom import gf3

T = gf3.trit_from_str

#: the tetrahedron vertices eps_1..eps_4, spelled out
VERTICES = tuple(map(T, ("1000", "0100", "0010", "0001")))


def weight_pattern(ln) -> tuple:
    """The number of points of weight 1, 2, 3, 4 on a line, each weight
    counted off the point's digits."""
    weights = [sum(d != 0 for d in gf3.digits(p)) for p in ln.points]
    return tuple(weights.count(w) for w in (1, 2, 3, 4))


def vertex_count(pl) -> int:
    return sum(e in pl.vectors for e in VERTICES)


def test_trit_arithmetic():
    a, b = T("1201"), T("2210")
    assert gf3.t_add(a, b) == T("0111")
    assert gf3.t_add(a, gf3.t_neg(b)) == T("2021")
    assert gf3.t_neg(a) == T("2102")
    assert gf3.t_scale(2, a) == T("2102")
    assert gf3.t_add(a, gf3.t_neg(a)) == gf3.ZERO
    assert len(gf3.ALL81) == 81


def test_trit_strings():
    assert gf3.trit_str(gf3.trit_from_str("1221")) == "1221"
    assert gf3.trit_from_str("1221") == 27 * 1 + 9 * 2 + 3 * 2 + 1
    assert gf3.digits(gf3.trit_from_str("1221")) == (1, 2, 2, 1)
    with pytest.raises(ValueError):
        gf3.trit_from_str("123")
    with pytest.raises(ValueError):
        gf3.trit_from_str("1234")


def test_trit_string_round_trip_and_order():
    for v in gf3.ALL81:
        assert gf3.trit_from_str(gf3.trit_str(v)) == v
        # the spelling table is the digit formula
        assert gf3.trit_str(v) == "".join(map(str, gf3.digits(v)))
    # int order is the lexicographic order of the digit strings
    assert sorted(gf3.ALL81, key=gf3.trit_str) == list(gf3.ALL81)


def test_canon():
    assert gf3.canon(T("2121")) == T("1212")
    assert gf3.canon(T("0201")) == T("0102")
    assert gf3.canon(T("1000")) == T("1000")
    with pytest.raises(ValueError):
        gf3.canon(gf3.ZERO)


def test_change_basis_frozen_values():
    # basis vectors map to coordinate vectors and back
    assert gf3.change_basis(T("1000")) == T("1221")
    assert gf3.change_basis(T("0001")) == T("1111")
    assert gf3.change_basis(T("1221")) == T("1000")
    assert gf3.change_basis(T("1111")) == T("0001")
    assert gf3.change_basis(gf3.ZERO) == gf3.ZERO


def test_mat3_table_is_the_digit_loop():
    # the reference: sum xi_i * m_i over the digits of v, one at a time
    def apply(m, v):
        r = gf3.ZERO
        for col, x in zip(m, gf3.digits(v)):
            r = gf3.t_add(r, gf3.t_scale(x, col))
        return r

    mats = [
        gf3.BASIS,
        gf3.ALT_BASIS,
        tuple(map(T, ("0200", "0020", "0002", "2000"))),
        tuple(map(T, ("1021", "2110", "0001", "1200"))),
    ]
    for m in mats:
        assert gf3.mat3_table(m) == tuple(apply(m, v) for v in gf3.ALL81)
    assert gf3.mat3_table(gf3.BASIS) == tuple(gf3.ALL81)


def test_change_basis_involutory_and_linear():
    for v in gf3.ALL81:
        assert gf3.change_basis(gf3.change_basis(v)) == v
    for v in gf3.ALL81[:12]:
        for w in gf3.ALL81[::9]:
            assert gf3.change_basis(gf3.t_add(v, w)) == gf3.t_add(
                gf3.change_basis(v), gf3.change_basis(w)
            )


def test_weight_pair_census():
    census = Counter(
        (gf3.wt_std(v), gf3.wt_alt(v)) for v in gf3.ALL81
    )
    assert census == Counter(
        {(0, 0): 1, (1, 4): 8, (2, 2): 24, (3, 3): 32, (4, 1): 8, (4, 4): 8}
    )


def test_hamming_distances():
    a, b = T("1111"), T("1112")
    assert gf3.hd_std(a, b) == 1
    assert gf3.hd_std(a, a) == 0
    assert gf3.hd_alt(a, b) == gf3.wt_alt(gf3.t_add(a, gf3.t_neg(b)))
    # the troika spacing: 0000, 0111, 0222 are pairwise hd 3 in both bases
    t = [T("0000"), T("0111"), T("0222")]
    for i in range(3):
        for j in range(i + 1, 3):
            assert gf3.hd_std(t[i], t[j]) == 3
            assert gf3.hd_alt(t[i], t[j]) == 3


def test_direction_families():
    assert len(gf3.DIRECTIONS) == 8
    assert set(gf3.FAMILY_EVEN) | set(gf3.FAMILY_ODD) == set(gf3.DIRECTIONS)
    for d in gf3.DIRECTIONS:
        assert gf3.digits(d)[3] == 1  # normalized to last digit 1
        assert gf3.wt_std(d) == 4
    for d in gf3.FAMILY_EVEN:
        assert gf3.direction_family(d) == 0
        assert gf3.direction_family(gf3.t_neg(d)) == 0
        assert gf3.wt_alt(d) == 1  # the even family is the alt basis
    for d in gf3.FAMILY_ODD:
        assert gf3.direction_family(d) == 1
        assert gf3.direction_family(gf3.t_neg(d)) == 1
        assert gf3.wt_alt(d) == 4
    with pytest.raises(ValueError):
        gf3.direction_family(T("1101"))


def test_pg33_counts():
    assert len(gf3.all_points()) == 40
    assert len(gf3.all_lines()) == 130
    assert len(gf3.all_planes()) == 40


def test_line_through():
    ln = gf3.line_through(T("1000"), T("0100"))
    assert len(ln.points) == 4
    assert len(ln.vectors) == 9
    assert T("1100") in ln.vectors and T("1200") in ln.vectors


def test_plane_kind_census():
    census = Counter(pl.kind for pl in gf3.all_planes())
    assert census == Counter({0: 8, 1: 16, 2: 12, 3: 4})
    # each plane keeps its vertex count, set when the plane is built
    for pl in gf3.all_planes():
        assert pl.kind == vertex_count(pl)
    # the two worked examples: sum-zero plane has no vertex, a coordinate
    # plane has three
    assert gf3.plane_from_functional(T("1111")).kind == 0
    assert gf3.plane_from_functional(T("0001")).kind == 3


def test_line_kind_census():
    census = Counter(ln.kind for ln in gf3.all_lines())
    assert census == Counter({1: 6, 2: 24, 3: 16, 4: 12, 5: 16, 6: 48, 7: 8})
    # each line keeps the kind of its weight pattern, set when it is built
    for ln in gf3.all_lines():
        assert ln.kind == gf3.LINE_KIND_TABLE[weight_pattern(ln)]


def test_a_weight_pattern_outside_the_table_is_refused(monkeypatch):
    table = dict(gf3.LINE_KIND_TABLE)
    del table[(2, 2, 0, 0)]
    monkeypatch.setattr(gf3, "LINE_KIND_TABLE", table)
    with pytest.raises(ValueError, match=r"\(2, 2, 0, 0\) not in line-kind"):
        gf3.line_through(T("1000"), T("0100"))


def test_planes_are_the_kernels_of_their_functionals():
    # the definition: v is on the plane of c when sum c_i xi_i = 0 mod 3
    planes = gf3.all_planes()
    assert [pl.functional for pl in planes] == list(gf3.all_points())
    for pl in planes:
        c = gf3.digits(pl.functional)
        assert pl.vectors == frozenset(
            v for v in gf3.ALL81
            if sum(x * y for x, y in zip(c, gf3.digits(v))) % 3 == 0
        )
        assert pl.points == tuple(
            sorted({gf3.canon(v) for v in pl.vectors if v != gf3.ZERO})
        )


def test_line_kind_worked_examples():
    # an axis pair: two weight-1 points, two weight-2 -> kind 1
    ln = gf3.line_through(T("1000"), T("0100"))
    assert weight_pattern(ln) == (2, 2, 0, 0)
    assert ln.kind == 1
    # the all-weight-3 lines are kind 7
    ln7 = gf3.line_through(T("0111"), T("1012"))
    assert weight_pattern(ln7) == (0, 0, 4, 0)
    assert ln7.kind == 7


def test_plane_subspaces():
    for pl in gf3.all_planes()[:8]:
        subs = gf3.plane_subspaces(pl)
        assert len(subs) == 13
        for sub in subs:
            assert sub.vectors <= pl.vectors
            assert len(sub.points) == 4


def test_plane_subspaces_are_built_on_first_read_and_kept():
    pl = gf3.plane_from_functional(T("1111"))
    fresh = gf3.Plane(*pl)
    assert "subspaces" not in vars(fresh)
    before = hash(fresh)
    assert fresh == pl and before == hash(pl)
    subs = fresh.subspaces
    assert fresh.subspaces is subs
    assert subs == gf3.plane_subspaces(pl)
    # the kept table is not a field: equality and hash do not move
    assert hash(fresh) == before
    assert fresh == pl and hash(fresh) == hash(pl)
    assert fresh != gf3.plane_from_functional(T("0001"))


def test_plane_from_functional_is_the_listed_plane():
    for c in (T("1111"), T("0001"), T("1220")):
        pl = gf3.plane_from_functional(c)
        assert any(other is pl for other in gf3.all_planes())
        pl.subspaces  # reading the table keeps the plane the listed one
        assert gf3.plane_from_functional(c) is pl


def test_segre_plane_line_split():
    pl = gf3.plane_from_functional(T("1111"))
    kinds = Counter(s.kind for s in gf3.plane_subspaces(pl))
    assert kinds == Counter({4: 3, 6: 6, 3: 4})


def test_plane_from_functional():
    pl = gf3.plane_from_functional(T("1111"))
    assert pl.functional == T("1111")
    assert len(pl.points) == 13 and len(pl.vectors) == 27
    # the functional annihilates the plane
    for v in pl.vectors:
        digits = zip(gf3.digits(pl.functional), gf3.digits(v))
        assert sum(c * x for c, x in digits) % 3 == 0
    # scaling the functional names the same plane
    assert gf3.plane_from_functional(T("2222")) is pl
    with pytest.raises(ValueError):
        gf3.plane_from_functional(gf3.ZERO)


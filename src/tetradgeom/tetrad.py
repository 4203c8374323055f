"""The canonical tetrad: four mutually skew lines spanning PG(7,2).

The frame consists of the four lines L_a..L_d on the coordinate-pair
2-spaces V_a = <e1,e8>, V_b = <e2,e7>, V_c = <e3,e6>, V_d = <e4,e5>,
together with the order-3 rotations

    zeta_a: e1 -> e8 -> e1+e8        zeta_b: e7 -> e2 -> e2+e7
    zeta_c: e3 -> e6 -> e3+e6        zeta_d: e5 -> e4 -> e4+e5

each cycling its own line and fixing the other six coordinates.  (The
asymmetry between a/c and b/d is deliberate and load-bearing: it makes the
labelling below interact correctly with the symplectic pairing.)

Points are labelled U_t for t in {empty,0,1,2}^4: the component on V_h is
absent for the empty index and u_h(i) otherwise, where u_h(0) is the
weight-2 point of L_h and u_h(i+1) = zeta_h(u_h(i)).  In particular
U_0000 = u, the all-ones point.  The number of non-empty indices is the
point's line weight; line weight partitions the 255 points into the four
orbits of sizes 12/54/108/81 of the full stabilizer group.

The 81 maps A_sigma = zeta_a^i zeta_b^j zeta_c^k zeta_d^l (sigma = ijkl)
form an elementary abelian normal subgroup of the stabilizer
G = G(tetrad) of order 6^4 * 24 = 31104, and sigma -> A_sigma(u) is a
bijection onto the weight-4 orbit that coincides with the labelling:
A_sigma(u) = U_sigma.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations, product

from . import gf3
from .gf2 import (
    E,
    IDENTITY,
    LinMap,
    Mask,
    PAIR_MASKS,
    after,
    apply,
    compose,
    inverse,
    linmap,
    linmap_power,
    orbits,
    perm_table,
    point_str,
)

LINE_NAMES = "abcd"


def _rotations(perturb: bool = False) -> tuple:
    za = linmap({1: E[7], 8: E[0] ^ E[7]})
    if perturb:
        # test hook: one flipped matrix entry, e1 -> e8 + e2.  Still
        # invertible, but the frame invariants collapse and verify-all
        # must report the failure instead of crashing.
        za = linmap({1: E[7] ^ E[1], 8: E[0] ^ E[7]})
    zb = linmap({7: E[1], 2: E[1] ^ E[6]})
    zc = linmap({3: E[5], 6: E[2] ^ E[5]})
    zd = linmap({5: E[3], 4: E[3] ^ E[4]})
    return za, zb, zc, zd


class Frame:
    """The tetrad frame: lines, rotations, point labels and orbits."""

    __slots__ = (
        "rotations",
        "points",
        "lines",
        "_tuple_of",
        "_point_of",
        "_vector_of",
        "_orbits",
        "label_collisions",
    )

    def __init__(self, rotations):
        self.rotations = tuple(rotations)
        pts = []
        for h in range(4):
            u0 = PAIR_MASKS[h]
            u1 = apply(self.rotations[h], u0)
            u2 = apply(self.rotations[h], u1)
            pts.append((u0, u1, u2))
        self.points = tuple(pts)
        self.lines = tuple(frozenset(tri) for tri in pts)
        self._tuple_of = {}
        self.label_collisions = []
        for t in product((None, 0, 1, 2), repeat=4):
            if t == (None, None, None, None):
                continue
            p = self.label(t)
            if p == 0 or p in self._tuple_of:
                self.label_collisions.append((t, p))
            else:
                self._tuple_of[p] = t
        # U_v for each vector v, and v for each point whose label is a U_v
        self._point_of = tuple(self.label(gf3.digits(v)) for v in gf3.ALL81)
        self._vector_of = {
            p: v
            for v, p in zip(gf3.ALL81, self._point_of)
            if self._tuple_of.get(p) == gf3.digits(v)
        }
        self._orbits = tuple(
            frozenset(p for p in range(1, 256) if self.line_weight(p) == r)
            for r in range(5)
        )

    def label(self, t) -> Mask:
        """U_t: XOR of u_h(t_h) over the non-empty (non-None) indices."""
        p = 0
        for h, i in enumerate(t):
            if i is not None:
                p ^= self.points[h][i]
        return p

    def line_weight(self, p: Mask) -> int:
        """Number of nonzero components of p in V_a + V_b + V_c + V_d."""
        return sum(1 for pm in PAIR_MASKS if p & pm)

    def orbit(self, r: int) -> frozenset:
        """The points of line weight r, built once with the frame."""
        return self._orbits[r]

    def point_from_trits(self, v) -> Mask:
        """U_v for a vector v of (F_3)^4."""
        return self._point_of[v]

    def coset_points(self, vectors, shift=gf3.ZERO) -> frozenset:
        """The labelled points U_(v + shift) of a coset of (F_3)^4."""
        return frozenset(self._point_of[gf3.t_add(v, shift)] for v in vectors)

    def trits_from_point(self, p: Mask):
        v = self._vector_of.get(p)
        if v is None:
            raise ValueError(f"{p} is not in the line-weight-4 orbit")
        return v

    def label_str(self, p: Mask) -> str:
        """Label notation; empty indices print as '.', e.g. 'U_..00'."""
        t = self._tuple_of.get(p)
        if t is None:
            return "?"
        return "U_" + "".join("." if i is None else str(i) for i in t)

    def label_table(self) -> dict:
        """point -> index tuple, for all labelled points (read-only)."""
        return self._tuple_of


def point_json(frame: Frame, p: Mask) -> dict:
    """A point as query output and check witnesses spell it: mask,
    set-bit string and label."""
    return {"mask": p, "bits": point_str(p), "label": frame.label_str(p)}


def build_frame(perturb: bool = False) -> Frame:
    return Frame(_rotations(perturb))


# ── the normal subgroup of 81 diagonal maps ──────────────────────────────


class Group81:
    """A_sigma = zeta_a^i zeta_b^j zeta_c^k zeta_d^l, indexed by sigma."""

    __slots__ = ("maps", "trit_of")

    def __init__(self, frame: Frame):
        pows = [
            (IDENTITY, z, linmap_power(z, 2)) for z in frame.rotations
        ]
        self.maps = {}
        for sigma in gf3.ALL81:
            i, j, k, l = gf3.digits(sigma)
            self.maps[sigma] = compose(
                compose(pows[0][i], pows[1][j]), compose(pows[2][k], pows[3][l])
            )
        self.trit_of = {m: s for s, m in self.maps.items()}


def build_group81(frame: Frame) -> Group81:
    return Group81(frame)


# ── the full stabilizer ──────────────────────────────────────────────────


def stabilizer_generators(frame: Frame) -> dict:
    """Generators of the line-stabilizer: the four rotations, the four
    in-line transpositions, one factor swap and one factor 4-cycle."""
    gens = {}
    for h, name in enumerate(LINE_NAMES):
        gens[f"zeta_{name}"] = frame.rotations[h]
    gens["swap_a"] = linmap({1: E[7], 8: E[0]})
    gens["swap_b"] = linmap({2: E[6], 7: E[1]})
    gens["swap_c"] = linmap({3: E[5], 6: E[2]})
    gens["swap_d"] = linmap({4: E[4], 5: E[3]})
    gens["swap_ab"] = linmap({1: E[1], 2: E[0], 8: E[6], 7: E[7]})
    gens["cycle_abcd"] = linmap(
        {1: E[1], 2: E[2], 3: E[3], 4: E[0], 8: E[6], 7: E[5], 6: E[4], 5: E[7]}
    )
    return gens


def fixes_tetrad(m: LinMap) -> bool:
    """Whether m sends the four coordinate-pair lines onto themselves:
    the two basis vectors of each line go to two distinct points of one
    line, and every line is hit."""
    hit = set()
    for pm in PAIR_MASKS:
        a, b = apply(m, pm & -pm), apply(m, pm & (pm - 1))
        if not (a and b and a != b):
            return False
        hit.add(a | b)
    return hit == set(PAIR_MASKS)


def line_maps() -> tuple:
    """For each line h, the six maps GL(2,2) on V_h: e_(h+1) and e_(8-h)
    go to two distinct points of L_h, the other six coordinates stay."""
    return tuple(
        frozenset(
            linmap({h + 1: a, 8 - h: b})
            for a, b in permutations((pm & -pm, pm & (pm - 1), pm), 2)
        )
        for h, pm in enumerate(PAIR_MASKS)
    )


def line_shuffles() -> tuple:
    """The 24 maps that move line h onto line perm[h], e_(h+1) -> e_(k+1)
    and e_(8-h) -> e_(8-k) for k = perm[h], one per permutation of the
    lines."""
    shuffles = []
    for perm in permutations(range(4)):
        images = {}
        for h, k in enumerate(perm):
            images[h + 1], images[8 - h] = E[k], E[7 - k]
        shuffles.append(linmap(images))
    return tuple(shuffles)


def tetrad_stabilizer_maps():
    """Every linear map that fixes the four coordinate-pair lines as a
    set, G(tetrad) = GL(2,2) wr S_4, listed from that definition: one
    product of the four `line_maps` factors after one line shuffle,
    6^4 * 24 = 31104 maps.  Streamed.

    The factors, not the shuffles, are applied by table lookup: each
    factor's table is built once, most of them already for the frame's
    generators, and the shuffles need none."""
    *first, last = line_maps()
    maps = line_shuffles()
    for factor in first:
        maps = [m(g) for m in map(after, factor) for g in maps]
    for m in map(after, last):
        yield from map(m, maps)


def build_stabilizer(frame: Frame) -> frozenset:
    """G(tetrad), the listing of `tetrad_stabilizer_maps` as a set of maps.
    It does not depend on the frame: the tetrad is the four coordinate-pair
    lines whatever the rotations.  That the frame's stabilizer generators
    generate it is `stabilizer-group`'s to prove."""
    # via a dict, whose table grows in smaller steps than a set's: frozen
    # from either, the frozenset gets the smallest table that fits
    return frozenset(dict.fromkeys(tetrad_stabilizer_maps()))


# ── the induced action on (F_3)^4 ────────────────────────────────────────


def induced_matrix(g: LinMap, g81: Group81) -> tuple:
    """Columns (images of eps_1..eps_4) of the F_3-linear map phi_g with
    g A_sigma g^-1 = A_(phi_g sigma).  Raises ValueError if conjugation
    leaves the 81-group, i.e. if g does not normalize it, and if g is
    singular."""
    ginv = inverse(g)
    cols = []
    for e in gf3.BASIS:
        sigma = g81.trit_of.get(compose(compose(g, g81.maps[e]), ginv))
        if sigma is None:
            raise ValueError("generator does not normalize the diagonal group")
        cols.append(sigma)
    return tuple(cols)


# ── orbit machinery ──────────────────────────────────────────────────────


def point_orbits(gens) -> list:
    """Orbit partition of the 255 projective points under the generated
    group (closure on points, not on group elements)."""
    return orbits(range(1, 256), [perm_table(g).__getitem__ for g in gens])


def subspace_orbit_partition(mats, spaces) -> list:
    """Orbit partition of GF(3) subspaces (given as frozensets of vectors)
    under a list of 4x4 matrices over F_3."""
    index = set(spaces)

    def image(table, space):
        img = frozenset(table[v] for v in space)
        if img not in index:
            raise ValueError("matrix does not permute the spaces")
        return img

    tables = [tuple(gf3.mat3_apply(m, v) for v in gf3.ALL81) for m in mats]
    return orbits(spaces, [partial(image, t) for t in tables])

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

import sys
from functools import partial, reduce
from itertools import permutations, product
from operator import or_

from . import gf3
from .gf2 import (
    E,
    IDENTITY,
    LinMap,
    Mask,
    PAIR_MASKS,
    columns,
    compose,
    inverse,
    linmap,
    linmap_power,
    orbits,
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
    """The tetrad frame: lines, rotations, point labels and orbits, and
    the tables of labelled cosets (`coset_mask`), of which every denizen,
    fan and ennead image is built."""

    __slots__ = (
        "rotations",
        "points",
        "lines",
        "_tuple_of",
        "_point_of",
        "_bit_of",
        "_vector_of",
        "_weights",
        "_orbits",
    )

    def __init__(self, rotations):
        self.rotations = tuple(rotations)
        pts = []
        for h in range(4):
            u0 = PAIR_MASKS[h]
            u1 = self.rotations[h][u0]
            u2 = self.rotations[h][u1]
            pts.append((u0, u1, u2))
        self.points = tuple(pts)
        self.lines = tuple(frozenset(tri) for tri in pts)
        self._tuple_of = {}
        for t in product((None, 0, 1, 2), repeat=4):
            if t == (None, None, None, None):
                continue
            p = self.label(t)
            if p != 0 and p not in self._tuple_of:
                self._tuple_of[p] = t
        # U_v for each vector v, and v for each point whose label is a U_v
        self._point_of = tuple(self.label(gf3.digits(v)) for v in gf3.ALL81)
        self._bit_of = tuple(1 << p for p in self._point_of)
        self._vector_of = {
            p: v
            for v, p in zip(gf3.ALL81, self._point_of)
            if self._tuple_of.get(p) == gf3.digits(v)
        }
        # the line weight of every vector, doubled over the bits: v + 2^k
        # (v below 2^k) meets one pair more than v unless v meets k's pair
        weights = b"\0"
        for k in range(8):
            pair = next(pm for pm in PAIR_MASKS if pm >> k & 1)
            weights += bytes(w + (not v & pair) for v, w in enumerate(weights))
        self._weights = weights
        by_weight = ([], [], [], [], [])
        for p in range(1, 256):
            by_weight[self._weights[p]].append(p)
        self._orbits = tuple(map(frozenset, by_weight))

    def label(self, t) -> Mask:
        """U_t: XOR of u_h(t_h) over the non-empty (non-None) indices."""
        p = 0
        for h, i in enumerate(t):
            if i is not None:
                p ^= self.points[h][i]
        return p

    def line_weight(self, p: Mask) -> int:
        """Number of nonzero components of p in V_a + V_b + V_c + V_d,
        read off the table built with the frame."""
        return self._weights[p]

    def orbit(self, r: int) -> frozenset:
        """The points of line weight r, built once with the frame."""
        return self._orbits[r]

    def point_from_trits(self, v) -> Mask:
        """U_v for a vector v of (F_3)^4."""
        return self._point_of[v]

    def coset_points(self, vectors, shift=gf3.ZERO) -> frozenset:
        """The labelled points U_(v + shift) of a coset of (F_3)^4."""
        return frozenset(self._point_of[gf3.t_add(v, shift)] for v in vectors)

    def coset_mask(self, vectors, shift=gf3.ZERO) -> int:
        """The table of `coset_points(vectors, shift)`, the int with bit p
        set for each of its points p, OR-ed from the one-bit tables
        1 << U_v."""
        bits = self._bit_of
        return reduce(or_, (bits[gf3.t_add(v, shift)] for v in vectors), 0)

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


def build_group81(frame: Frame) -> tuple:
    """The 81 maps A_sigma = zeta_a^i zeta_b^j zeta_c^k zeta_d^l, as a
    tuple indexed by sigma."""
    pows = [(IDENTITY, z, linmap_power(z, 2)) for z in frame.rotations]
    return tuple(
        compose(compose(pows[0][i], pows[1][j]), compose(pows[2][k], pows[3][l]))
        for i, j, k, l in map(gf3.digits, gf3.ALL81)
    )


# ── the full stabilizer ──────────────────────────────────────────────────


def stabilizer_generators(frame: Frame) -> dict:
    """Generators of the line-stabilizer: the four rotations, the four
    in-line transpositions, one factor swap and one factor 4-cycle."""
    gens = {f"zeta_{name}": z for name, z in zip(LINE_NAMES, frame.rotations)}
    # swap_h exchanges e_(h+1) and e_(8-h), the basis vectors of L_h
    for h, name in enumerate(LINE_NAMES):
        gens[f"swap_{name}"] = linmap({h + 1: E[7 - h], 8 - h: E[h]})
    gens["swap_ab"] = linmap({1: E[1], 2: E[0], 8: E[6], 7: E[7]})
    gens["cycle_abcd"] = linmap(
        {1: E[1], 2: E[2], 3: E[3], 4: E[0], 8: E[6], 7: E[5], 6: E[4], 5: E[7]}
    )
    return gens


def line_maps() -> tuple:
    """For each line h, the six maps GL(2,2) on V_h: e_(h+1) and e_(8-h)
    go to two distinct points of L_h, the other six coordinates stay."""
    return tuple(
        frozenset(
            linmap({h + 1: a, 8 - h: b})
            for a, b in permutations(_TETRAD[3 * h:3 * h + 3], 2)
        )
        for h in range(4)
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


def build_stabilizer() -> bytes:
    """G(tetrad), every linear map that fixes the four coordinate-pair
    lines as a set, GL(2,2) wr S_4, listed from that definition: one
    product of the four `line_maps` factors after one line shuffle,
    6^4 * 24 = 31104 maps, packed as one string of their 8-byte `columns`.
    A factor map composes after the whole listing in one `translate`, the
    maps of a factor in sorted order, so the listing is the same in every
    process.  It does not depend on the frame; that the frame's generators
    generate it is `stabilizer-group`'s to prove."""
    flat = b"".join(map(columns, line_shuffles()))
    for factor in line_maps():
        flat = b"".join(flat.translate(g) for g in sorted(factor))
    return flat


# ── a packed listing read through the tetrad ─────────────────────────────


def _places(items, missing: int) -> bytes:
    """The 256-byte table whose byte v is v's place in `items`, a list of
    distinct bytes, or `missing` where v is not among them."""
    table = bytearray([missing]) * 256
    for i, v in enumerate(items):
        table[v] = i
    return bytes(table)


# the tetrad's twelve points, three per line: point 3h + i is the i-th of
# line h's low basis vector, high basis vector and their sum; _POINT[v] is
# the number of v, 12 when v is no tetrad point
_TETRAD = [p for pm in PAIR_MASKS for p in (pm & -pm, pm & (pm - 1), pm)]
_POINT = _places(_TETRAD, 12)
# the 24 ordered pairs of distinct points of one line, 6 per line: the
# pair code of points x and y, _PAIR[13x + y], is the pair's place here,
# so code // 6 is its line; 255 when x and y are no such pair
_PAIRS = [(3 * h + i, 3 * h + j) for h in range(4)
          for i, j in permutations(range(3), 2)]
_PAIR = _places([13 * x + y for x, y in _PAIRS], 255)
# each pair code's line as a one-hot bit, 0 for the code 255
_LINE_BITS = bytes(1 << c // 6 if c < 24 else 0 for c in range(256))


def pair_index(listing: bytes) -> tuple:
    """A packed listing read through its pair codes, as (lines, keys).

    Record j's images of e_(h+1) and e_(8-h) have a pair code: 0..23 when
    they are two distinct points of one tetrad line, else 255.  Byte j of
    lines ORs the one-hot lines of record j's four codes, so it is 0b1111
    exactly when record j fixes the tetrad.

    keys[j] is record j's index sum 24^h code_h, a native unsigned int;
    where lines[j] is 0b1111 it is below 24^4, and as the codes give all
    eight columns, distinct records have distinct indices.  Elsewhere a
    key means nothing."""
    count = len(listing) // 8
    # the indices summed by Horner's rule on all records at once, each in
    # a 4-byte lane with a code string spread into the lanes' low bytes: a
    # lane stays below 255 * 24^4 < 2^32, so none carries.  The lanes are
    # read and written in native byte order, so a cast reads each back in
    # place
    native = sys.byteorder
    low = 0 if native == "little" else 3
    lanes = bytearray(count * 4)
    lines = key = 0
    for h in reversed(range(4)):
        # 13x + y lane by lane: at most 168, so no byte carries
        x = int.from_bytes(listing[h::8].translate(_POINT), "little")
        y = int.from_bytes(listing[7 - h::8].translate(_POINT), "little")
        c = (13 * x + y).to_bytes(count, "little").translate(_PAIR)
        lines |= int.from_bytes(c.translate(_LINE_BITS), "little")
        lanes[low::4] = c
        key = key * 24 + int.from_bytes(lanes, native)
    keys = memoryview(key.to_bytes(len(lanes), native)).cast("I")
    return lines.to_bytes(count, "little"), keys


def images(listing: bytes):
    """The function v -> the images of v under every record of a packed
    listing, one byte per record: byte k of column i is record k's image
    of e_(i+1), so XOR-ing the columns v selects packs them all."""
    count = len(listing) // 8
    cols = [int.from_bytes(listing[i::8], "little") for i in range(8)]

    def image(v: Mask) -> bytes:
        packed = 0
        for i in range(8):
            if v >> i & 1:
                packed ^= cols[i]
        return packed.to_bytes(count, "little")

    return image


# ── the induced action on (F_3)^4 ────────────────────────────────────────


def induced_matrix(g: LinMap, g81: tuple) -> tuple:
    """Columns (images of eps_1..eps_4) of the F_3-linear map phi_g with
    g A_sigma g^-1 = A_(phi_g sigma).  Raises ValueError if conjugation
    leaves the 81-group, i.e. if g does not normalize it, and if g is
    singular."""
    ginv = inverse(g)
    try:
        return tuple(
            g81.index(compose(compose(g, g81[e]), ginv)) for e in gf3.BASIS
        )
    except ValueError:
        raise ValueError(
            "generator does not normalize the diagonal group"
        ) from None


# ── orbit machinery ──────────────────────────────────────────────────────


def point_orbits(gens) -> list:
    """Orbit partition of the 255 projective points under the generated
    group (closure on points, not on group elements)."""
    return orbits(range(1, 256), [g.__getitem__ for g in gens])


def subspace_orbit_partition(mats, spaces) -> list:
    """Orbit partition of GF(3) subspaces (given as frozensets of vectors)
    under a list of 4x4 matrices over F_3."""
    index = set(spaces)

    def image(table, space):
        img = frozenset(table[v] for v in space)
        if img not in index:
            raise ValueError("matrix does not permute the spaces")
        return img

    tables = [gf3.mat3_table(m) for m in mats]
    return orbits(spaces, [partial(image, t) for t in tables])

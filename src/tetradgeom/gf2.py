"""Exact linear algebra over GF(2) in V(8,2) and PG(7,2).

Conventions, fixed once and relied on by every other module and by the
frozen test fixtures:

* A vector of V(8,2) is an int in range(256); bit i-1 holds the
  coefficient of the basis vector e_i (i = 1..8).  A projective point of
  PG(7,2) is a nonzero mask; 0 occurs only inside subspace computations.
* The symplectic form pairs coordinate i with coordinate 9-i (bit k with
  bit 7-k):

      B(x, y) = (x1 y8 + x8 y1) + (x2 y7 + x7 y2)
              + (x3 y6 + x6 y3) + (x4 y5 + x5 y4)        (mod 2)

* The quadratic form Q(x) = x1 x8 + x2 x7 + x3 x6 + x4 x5 + sum_i x_i
  polarizes to B and takes the value 1 on all twelve points of the four
  coordinate-pair lines.
* A linear map is the 256-byte `bytes` of its images: byte v is the
  image of the vector v, so m(v) is `m[v]` and m after n is
  `n.translate(m)`.  `columns(m)`, the images of e_1..e_8, is a map's
  8-byte record in a packed listing.  Only this module builds maps.
* A table is a 256-bit int: bit x holds the value 0 or 1 at the vector x,
  so the table of a point set is its mask (`mask`) and the tables of two
  functions combine by one AND, OR or XOR.  `FULL` is the table of 1,
  `COORDS[k]` the table of x -> bit k of x, `FORMS[z]` the table of
  x -> B(x, z) XOR-doubled from the coordinate tables (`symplectic-form`
  certifies them against Q evaluated point by point), and `table(f)`
  evaluates f at every vector; `support` reads a table back as the x
  where it is 1; `bit_counts` adds tables bit by bit.  Only this module
  spells the format out.
* A point set has one of two forms, by how it is used.  Sets that are
  combined by AND and OR are tables: denizens, fans, ennead cells, cap
  translates, candidate sets and the parts of a partition.  Sets whose
  points are iterated are frozensets of masks: orbits, the quadric, flats
  (projective subspaces), lines, solids, a plane's own 9-cap and
  sections.  Making every point set a table made `src/` longer and the
  certificates' checks slower (65.3 ms against 58.5 in one process; 2
  cores, Python 3.11), so the sets stayed.

Everything here is immutable and exact; there is no floating point
anywhere in the package.
"""

from __future__ import annotations

from itertools import combinations

Mask = int
LinMap = bytes  # 256 images: byte v is the image of v

E = tuple(1 << i for i in range(8))  # E[i] is the mask of e_{i+1}
IDENTITY: LinMap = bytes(range(256))
UNIT: Mask = 0xFF  # u = e_1 + ... + e_8

#: the four coordinate pairs {i, 9-i} as masks; these are the frame lines'
#: underlying 2-dim subspaces and the quadratic form's degree-2 support
PAIR_MASKS = (0x81, 0x42, 0x24, 0x18)


# point_str of every mask: its 1-based coordinate indices, ascending, each
# coordinate doubling the list
_POINT_STRS = [""]
for _digit in "12345678":
    _POINT_STRS += [s + _digit for s in _POINT_STRS]
_POINT_STRS = ("0", *_POINT_STRS[1:])


def point_str(x: Mask) -> str:
    """Digit-string shorthand: e_1+e_3+e_5+e_7 prints as '1357'."""
    return _POINT_STRS[x]


def quadric_value(x: Mask) -> int:
    """Q(x) = x1 x8 + x2 x7 + x3 x6 + x4 x5 + sum_i x_i over GF(2)."""
    s = x.bit_count()
    for pm in PAIR_MASKS:
        if x & pm == pm:
            s += 1
    return s & 1


# ── tables ───────────────────────────────────────────────────────────────

FULL = (1 << 256) - 1
#: COORDS[k] is the table of x -> bit k of x: runs of 2^k clear and 2^k
#: set bits, the complement of FULL's quotient by 2^(2^k) + 1
COORDS = tuple(FULL ^ FULL // ((1 << (1 << k)) + 1) for k in range(8))


def _xor_doubled(rows) -> list:
    """The XOR of every subset of `rows`: entry v is the XOR of the rows
    k with bit k of v set, each row doubling the list."""
    t = [0]
    for r in rows:
        t += [x ^ r for x in t]
    return t


#: FORMS[z] is the table of x -> B(x, z): bit k of z adds COORDS[7 - k],
#: the coordinate it pairs with
FORMS = tuple(_xor_doubled(reversed(COORDS)))

_DOWN, _DIGITS = range(255, -1, -1), b"01" + bytes(254)


def table(f) -> int:
    """The table of x -> f(x), f valued 0 or 1: its values from x = 255
    down, spelled as digits by one `translate`, as a binary numeral."""
    return int(bytes(map(f, _DOWN)).translate(_DIGITS), 2)


def mask(points) -> int:
    """The table of a point set: bit p set for each point p."""
    return sum(1 << p for p in points)


def support(t: int):
    """The x whose bit is set in table t, ascending."""
    while t:
        low = t & -t
        yield low.bit_length() - 1
        t ^= low


def bit_counts(tables) -> tuple:
    """How many of `tables` have each bit set, as bit planes (c0, c1, c2,
    c3): bit x of ck is bit k of x's count.  Each table is added into the
    planes by a carry chain; counts up to 15 fit."""
    c0 = c1 = c2 = c3 = 0
    for carry in tables:
        c0, carry = c0 ^ carry, c0 & carry
        c1, carry = c1 ^ carry, c1 & carry
        c2, carry = c2 ^ carry, c2 & carry
        c3 ^= carry
    return c0, c1, c2, c3


def low_bit(t: int) -> int:
    """The least x whose bit is set in a nonzero table."""
    return (t & -t).bit_length() - 1


def xor_shift(t: int, z: int) -> int:
    """The table of x -> t(x ^ z): for each set bit k of z, swap the two
    halves of every block of 2^(k+1) entries."""
    for k, coord in enumerate(COORDS):
        if z >> k & 1:
            t = (t & coord) >> (1 << k) | (t << (1 << k)) & coord
    return t


# ── linear maps ──────────────────────────────────────────────────────────


def linmap(images: dict) -> LinMap:
    """The identity map with the given basis images overridden, its 256
    images doubled by XOR over the eight columns.

    `images` maps 1-based coordinate indices to image masks.
    """
    return bytes(_xor_doubled(images.get(i, e) for i, e in enumerate(E, 1)))


def columns(m: LinMap) -> bytes:
    """The images of e_1..e_8: the map's 8-byte record in a packed listing."""
    return bytes(m[e] for e in E)


def compose(m: LinMap, n: LinMap) -> LinMap:
    """m after n: compose(m, n)[v] == m[n[v]], one `translate`."""
    return n.translate(m)


def linmap_power(m: LinMap, k: int) -> LinMap:
    r = IDENTITY
    for _ in range(k):
        r = compose(m, r)
    return r


def inverse(m: LinMap) -> LinMap:
    """Inverse map: the vectors sorted by their images, which exists
    exactly when the 256 images are distinct."""
    if len(set(m)) < 256:
        raise ValueError("map is singular")
    return bytes(sorted(range(256), key=m.__getitem__))


def closure(seeds, moves) -> frozenset:
    """Everything reachable from `seeds` under repeated application of the
    functions in `moves`, by breadth-first search."""
    found = set(seeds)
    bdy = list(found)
    while bdy:
        new = []
        for b in bdy:
            for move in moves:
                c = move(b)
                if c not in found:
                    found.add(c)
                    new.append(c)
        bdy = new
    return frozenset(found)


def orbits(items, moves) -> list:
    """Partition of `items` into closures under `moves`, in the order of
    each part's first item."""
    seen = set()
    parts = []
    for x in items:
        if x not in seen:
            orb = closure((x,), moves)
            seen |= orb
            parts.append(orb)
    return parts


def mulclose(gens) -> frozenset:
    """Closure of a generating set of linear maps under composition: the
    set of all products."""
    gens = [bytes(g) for g in gens]
    return closure([IDENTITY, *gens], [g.translate for g in gens])


# ── flats (projective subspaces) ─────────────────────────────────────────


def span(vectors) -> frozenset:
    """Smallest flat containing the given vectors.  Each vector outside
    the span so far doubles it by XOR."""
    acc = {0}
    for v in vectors:
        if v not in acc:
            acc |= {a ^ v for a in acc}
    return frozenset(acc) - {0}


def perp(vectors) -> frozenset:
    """The flat of all x with B(x, v) = 0 for every given v: the nonzero
    x left in the AND of the tables of B(., v) = 0."""
    t = FULL ^ 1
    for v in vectors:
        t &= ~FORMS[v]
    return frozenset(support(t))


def rank(flat) -> int:
    """The linear dimension of a flat, read off its 2^rank - 1 points."""
    return len(flat).bit_length()


def dimension(vectors) -> int:
    """The linear dimension of the span of the given vectors, by
    elimination: each vector is reduced by the basis vector with its top
    bit until it is 0 or brings a new top bit into the basis."""
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def lines_inside(points) -> set:
    """All full lines {a, b, a^b} of PG(7,2) contained in the point set.

    Returned as a set of frozensets; each line is found exactly once via
    its two smallest points.
    """
    ps = set(points)
    found = set()
    for a, b in combinations(sorted(ps), 2):
        c = a ^ b
        if c > b and c in ps:
            found.add(frozenset((a, b, c)))
    return found

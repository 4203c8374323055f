"""Denizens of the weight-4 orbit and their internal geometry.

The labelling identifies the 81 line-weight-4 points with (F_3)^4.  Each
of the 40 planes V_3 < (F_3)^4 splits the orbit into three 27-point
cosets; the image point sets are *denizens*, and the three from one plane
form a *triplet*.  Denizens inherit the plane's classification:

    plane kind 0 (no vertex)    -> Segre variety S_{1,1,1}(2):
                                   27 lines, 3 per point, spans PG(7,2)
    plane kind 2 (two vertices) -> C2: 36 lines, 4 per point, spans the
                                   5-flat perp to a line of the
                                   weight-2 orbit
    plane kind 3 (three)        -> C3: no lines, spans the 6-flat perp
                                   to a weight-1 point
    plane kind 1 (one vertex)   -> C1: none of the above signatures; the
                                   observed structure is reported, not
                                   pinned (18 lines, 2 per point, full
                                   span)

The classifier reads the plane kind; the structural certificate recomputes
the tag from the point set alone so the two routes stay independent.

Denizens and fans hold their points as a table, the int with bit p set
for each point p (`Frame.coset_mask`): they meet and join by AND and OR,
count by `bit_count`, and `gf2.support` lists the points.

Sections of a Segre denizen S by the 13 coset families of 2-subspaces
V_2 < V_3 come in three flavours by the line kind of V_2: a 3x3 grid
(kind 4), three parallel generators with a transversality property (kind
6), or a *fan* (kind 3): nine points no two of which share a generator of
S.  A fan decomposes uniquely into three *troikas* (triples pairwise at
alt-basis Hamming distance 3) sharing a common centre, the XOR of each
troika, which lies on a tetrad line; the four fan triplets of S recover
the tetrad without reference to the frame.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations
from operator import xor

from . import gf3
from .gf2 import dimension, lines_inside, mask, perp, rank, support
from .tetrad import Frame

PLANE_KIND_TO_DENIZEN = {0: "segre", 1: "C1", 2: "C2", 3: "C3"}

#: structural signatures: (line count, lines per point, span rank)
SIGNATURES = {
    "segre": (27, 3, 8),
    "C2": (36, 4, 6),
    "C3": (0, 0, 7),
}

SECTION_TAGS = {4: "S2(2)", 6: "3-generator", 3: "fan"}


class Denizen(namedtuple("Denizen", "plane shift shift_index points kind")):
    """The image of the coset `shift` + `plane`, where `shift`, a vector
    of (F_3)^4, is the plane's `shift_index`-th (0, 1, 2) coset
    representative; `points` is the image's table, the int with bit p set
    for each of its 27 points p (`Frame.coset_mask`), read back by
    `gf2.support`; `kind` is "segre", "C1", "C2" or "C3"."""

    __slots__ = ()

    @property
    def ident(self) -> str:
        return f"{gf3.trit_str(self.plane.functional)}:{self.shift_index}"

    def __repr__(self):
        return f"Denizen({self.ident}, {self.kind})"


def triplet_from_plane(frame: Frame, plane: gf3.Plane) -> tuple:
    """The three denizens of a plane, shifts ordered deterministically:
    the subspace itself first, then the two cosets of the smallest
    vector outside the plane."""
    kind = PLANE_KIND_TO_DENIZEN[plane.kind]
    return tuple(
        Denizen(plane, s, j, frame.coset_mask(plane.vectors, s), kind)
        for j, s in enumerate(gf3.coset_shifts(gf3.ALL81, plane.vectors))
    )


def all_triplets(frame: Frame) -> tuple:
    return tuple(triplet_from_plane(frame, pl) for pl in gf3.all_planes())


def denizen_by_id(frame: Frame, ident: str) -> Denizen:
    try:
        func_str, shift_str = ident.split(":")
        functional = gf3.trit_from_str(func_str)
        if shift_str not in ("0", "1", "2"):  # int() would take "+1", " 1"
            raise ValueError
        shift_index = int(shift_str)
    except ValueError:
        raise ValueError(
            f"denizen id must look like '1121:0', got {ident!r}"
        ) from None
    if functional == gf3.ZERO:
        raise ValueError(f"plane functional {func_str} is zero and names no plane")
    plane = gf3.plane_from_functional(functional)
    return triplet_from_plane(frame, plane)[shift_index]


# ── classification ───────────────────────────────────────────────────────


def structural_certificate(den: Denizen) -> dict:
    """Tag a denizen from its point set alone: count the full lines it
    contains, their per-point incidence, and the span."""
    pts = list(support(den.points))
    # each full line {a, b, a^b} found once, via its two smallest points
    lines = 0
    per_point = dict.fromkeys(pts, 0)
    for a, b in combinations(pts, 2):
        c = a ^ b
        if c > b and c in per_point:
            lines += 1
            per_point[a] += 1
            per_point[b] += 1
            per_point[c] += 1
    incidences = sorted(set(per_point.values()))
    span_rank = dimension(pts)
    profile = (
        lines,
        incidences[0] if len(incidences) == 1 else None,
        span_rank,
    )
    structural = "C1"
    for tag, sig in SIGNATURES.items():
        if profile == sig:
            structural = tag
    return {
        "lines": lines,
        "per_point": incidences,
        "span_rank": span_rank,
        "structural_kind": structural,
    }


# ── C2 denizens: perps of weight-2 lines ─────────────────────────────────


def c2_line(frame: Frame, den: Denizen) -> frozenset:
    """The line L with den = perp(L) meet (weight-4 orbit).  Requires a
    C2 denizen; checks the perp really is a line of the weight-2 orbit
    and that the denizen is recovered from it."""
    line = perp(support(den.points))
    if rank(line) != 2:
        raise ValueError(
            f"perp of {den.ident} has rank {rank(line)}, not a line"
        )
    if any(frame.line_weight(p) != 2 for p in line):
        raise ValueError(f"perp line of {den.ident} leaves the weight-2 orbit")
    if mask(perp(line) & frame.orbit(4)) != den.points:
        raise ValueError(f"perp does not recover denizen {den.ident}")
    return line


# ── sections of a Segre denizen ──────────────────────────────────────────


def _ruling_split(inner) -> tuple:
    """Split 6 coplanar-grid lines into two rulings of 3 pairwise
    disjoint lines; raises if the structure is not a grid.  A line's
    ruling is the line itself and the lines it misses."""
    inner = sorted(inner, key=min)
    rulings = tuple(dict.fromkeys(
        tuple(m for m in inner if m == ln or not m & ln) for ln in inner
    ))
    if len(rulings) != 2 or any(len(r) != 3 for r in rulings):
        raise ValueError("grid section does not split into rulings")
    if any(a & b for r in rulings for a, b in combinations(r, 2)):
        raise ValueError("ruling lines intersect")
    return rulings


def grid_cosets(frame: Frame, den: Denizen) -> tuple:
    """(grid direction, its three cosets' points inside the denizen) for
    each of the plane's 2-subspaces of kind 4, in the plane's order."""
    return tuple(
        (w, tuple(
            frame.coset_points(w.vectors, s)
            for s in gf3.coset_shifts(den.plane.vectors, w.vectors, den.shift)
        ))
        for w in den.plane.subspaces
        if w.kind == 4
    )


def classify_section(frame: Frame, den: Denizen, sub: gf3.Line, grids) -> dict:
    """Classify the section of a Segre denizen by a 2-subspace of its
    direction plane, and verify the structure the tag promises.  `grids`
    is the denizen's `grid_cosets`."""
    if den.kind != "segre":
        raise ValueError(f"sections are defined on Segre denizens, not {den.kind}")
    if not sub.vectors <= den.plane.vectors:
        raise ValueError("section subspace is not inside the direction plane")
    kind = sub.kind
    tag = SECTION_TAGS.get(kind)
    if tag is None:
        raise ValueError(
            f"subspace of kind {kind} cannot occur inside a vertex-free plane"
        )
    pts = frame.coset_points(sub.vectors, den.shift)
    inner = lines_inside(pts)
    detail = {}

    if tag == "S2(2)":
        if len(inner) != 6 or dimension(pts) != 4:
            raise ValueError("grid section failed its signature")
        detail["rulings"] = _ruling_split(inner)
    elif tag == "3-generator":
        if len(inner) != 3:
            raise ValueError("3-generator section must contain 3 lines")
        gens = sorted(inner, key=min)
        if any(a & b for a, b in combinations(gens, 2)):
            raise ValueError("generators of a 3-generator section must be disjoint")
        if frozenset().union(*gens) != pts:
            raise ValueError("generators must partition the section")
        detail["generators"] = tuple(gens)
        detail["transversal_grids"] = _transversal_check(frame, sub, gens, grids)
    else:  # fan
        if inner:
            raise ValueError("fan contains a full line")
        if any(den.points >> (a ^ b) & 1 for a, b in combinations(pts, 2)):
            raise ValueError("two fan points lie on a common generator")
    return {"tag": tag, "line_kind": kind, "points": pts, **detail}


def _transversal_check(frame, sub, gens, grids) -> int:
    """Every grid section whose direction plane avoids the generator
    direction meets each of the three generators in one point, and those
    three points are pairwise off the grid's own generators (their trit
    differences have weight != 4).  `grids` is the denizen's
    `grid_cosets`.  Returns the number of grids checked."""
    directions = [v for v in sub.vectors if gf3.wt_std(v) == 4]
    lam = directions[0]
    found = [cosets for w, cosets in grids if lam not in w.vectors]
    if len(found) != 1:
        raise ValueError("expected exactly one transversal grid family")
    checked = 0
    for grid_pts in found[0]:
        hits = []
        for g in gens:
            meet = g & grid_pts
            if len(meet) != 1:
                raise ValueError("generator does not meet grid exactly once")
            hits.append(next(iter(meet)))
        for a, b in combinations(hits, 2):
            ta, tb = frame.trits_from_point(a), frame.trits_from_point(b)
            if gf3.hd_std(ta, tb) == 4:
                raise ValueError("transversal points share a grid generator")
        checked += 1
    return checked


def sections_of(frame: Frame, den: Denizen) -> tuple:
    grids = grid_cosets(frame, den)
    return tuple(
        classify_section(frame, den, sub, grids) for sub in den.plane.subspaces
    )


# ── fans, troikas and tetrad recovery ────────────────────────────────────


def fan_decompose(frame: Frame, points: int) -> tuple:
    """Unique decomposition of a fan, given as its table, into three
    troikas with a common centre.  Returns (troikas, centre); raises
    ValueError when the nine points do not form a fan of a Segre
    denizen."""
    if points.bit_count() != 9:
        raise ValueError("a fan has nine distinct points")
    pts = list(support(points))
    try:
        trits = {p: frame.trits_from_point(p) for p in pts}
    except ValueError:
        raise ValueError("fan points must lie in the weight-4 orbit") from None
    # one pass over the 36 pairs: the generator test, and the edges of the
    # distance-3 graph, each point's neighbours in ascending order
    adj = {p: [] for p in pts}
    for a, b in combinations(pts, 2):
        ta, tb = trits[a], trits[b]
        if gf3.hd_std(ta, tb) == 4:
            raise ValueError("two points lie on a common generator: not a fan")
        if gf3.hd_alt(ta, tb) == 3:
            adj[a].append(b)
            adj[b].append(a)
    troikas = []
    seen = set()
    for p in pts:
        if p in seen:
            continue
        if len(adj[p]) != 2:
            raise ValueError("distance-3 graph is not a triangle partition")
        q, r = adj[p]
        if r not in adj[q] or q not in adj[r]:
            raise ValueError("distance-3 graph is not a triangle partition")
        troikas.append(frozenset((p, q, r)))
        seen |= {p, q, r}
    if len(troikas) != 3:
        raise ValueError("fan must split into exactly three troikas")
    centres = {a ^ b ^ c for a, b, c in (sorted(t) for t in troikas)}
    if len(centres) != 1:
        raise ValueError("troika centres disagree")
    return tuple(sorted(troikas, key=min)), centres.pop()


def fan_triplets(frame: Frame, den: Denizen) -> tuple:
    """The four fan triplets of a Segre denizen, one per kind-3 subspace
    of its direction plane, in the plane's order: each the tables of the
    subspace's three cosets inside the denizen (`Frame.coset_mask`)."""
    if den.kind != "segre":
        raise ValueError("fan triplets live on Segre denizens")
    out = tuple(
        tuple(
            frame.coset_mask(sub.vectors, s)
            for s in gf3.coset_shifts(den.plane.vectors, sub.vectors, den.shift)
        )
        for sub in den.plane.subspaces
        if sub.kind == 3
    )
    if len(out) != 4:
        raise ValueError(f"expected 4 fan triplets, found {len(out)}")
    return out


def recover_tetrad(fts) -> frozenset:
    """The four centre lines of a Segre denizen's fan triplets `fts`: a
    fan's centre is the XOR of its nine points, three troikas that each
    XOR to it.  For every Segre denizen these are exactly the four tetrad
    lines, so the denizen alone determines the tetrad."""
    return frozenset(
        frozenset(reduce(xor, support(fan)) for fan in ft) for ft in fts
    )


# ── enneads ──────────────────────────────────────────────────────────────


def ennead(triplet1, triplet2) -> tuple:
    """The nine pairwise intersections of two distinct triplets, as point
    tables, each the AND of two denizens' tables; each has nine points
    and together they partition the weight-4 orbit.  They are the coset
    images of the 9-element intersection of the two planes."""
    if triplet1[0].plane.vectors == triplet2[0].plane.vectors:
        raise ValueError("ennead needs two distinct triplets")
    return tuple(d1.points & d2.points for d1 in triplet1 for d2 in triplet2)

"""The hyperbolic quadric on 135 points and its generator solids.

Q(x) = x1 x8 + x2 x7 + x3 x6 + x4 x5 + sum x_i is the unique quadratic
form with that degree-2 part which is nonzero on all twelve tetrad
points; its zero set is the union of the line-weight 2 and 4 orbits.  The
quadric carries 270 maximal totally singular subspaces (solids, 15
points each), falling into two systems of 135 under the parity relation

    same system  <=>  dim(S meet S') in {3, 1, -1}.

A weight-4 point's two spread-family solids lie on the quadric, meet in
a 7-point plane, and belong to opposite systems.

A 2-subspace of (F_3)^4 all of whose nonzero vectors have standard
weight 3 (one of the eight such) maps under the labelling to nine points
of the quadric that are pairwise non-orthogonal: a 9-cap whose secants
all leave the quadric.  Its 81 translates consist of nine disjoint caps
partitioning the weight-4 orbit.
"""

from __future__ import annotations

from . import gf3
from .gf2 import COORDS, E, FORMS, low_bit, mask, quadric_value, span
from .tetrad import Frame


def build_quadric() -> frozenset:
    """The 135 projective zeros of the quadratic form."""
    return frozenset(p for p in range(1, 256) if quadric_value(p) == 0)


def unique_form_certificate(frame: Frame) -> dict:
    """Scan the 256 forms Q + l_c, l_c(x) = c.x, which share Q's degree-2
    part, and keep those with value 1 on every tetrad point, each named by
    its own linear part.  Q's, the adopted one, is read off Q at the basis
    vectors, where the degree-2 part vanishes."""
    tetrad_points = frame.orbit(1)
    adopted = sum(e for e in E if quadric_value(e))
    survivors = sorted(
        adopted ^ c
        for c in range(256)
        if all(quadric_value(p) ^ (c & p).bit_count() & 1 for p in tetrad_points)
    )
    return {
        "candidates": 256,
        "survivors": survivors,
        "adopted_linear_part": adopted,
    }


def singular_solids(qpoints) -> tuple:
    """All totally singular solids, each found once, depth-first along its
    reduced echelon basis.

    A basis grows by a quadric point q orthogonal to every row so far
    (`cand`), greater than the last row added, and free of every earlier
    row's pivot (its top bit).  The rows are then a reduced echelon basis
    with pivots ascending, and every totally singular subspace has exactly
    one such basis, so no subspace is reached twice.  The search carries
    only rows: pairwise orthogonal singular points span a totally singular
    subspace, so `gf2.span` closes a solid at its fourth row.

    Candidate sets are tables (gf2), so each condition is one AND;
    `gf2.FORMS[p]` is the table of B(., p)."""
    qmask = mask(qpoints)
    perp_sing = {p: qmask & ~FORMS[p] & ~(1 << p) for p in qpoints}
    solids = []

    def extend(rows, cand):
        while cand:
            low = cand & -cand
            cand ^= low
            q = low.bit_length() - 1
            if len(rows) == 3:
                solids.append(span(rows + [q]))
            else:
                # keep only candidates above q, orthogonal to q as well,
                # and free of its pivot
                extend(rows + [q], cand & perp_sing[q] & ~COORDS[q.bit_length() - 1])

    extend([], qmask)
    return tuple(sorted(solids, key=sorted))


#: intersection sizes (projective dimension 3, 1, -1) of two solids in
#: the same system
SAME_SYSTEM_MEETS = (15, 3, 0)


def same_system(a: frozenset, b: frozenset) -> bool:
    """Parity relation: solids are in the same system exactly when their
    intersection has projective dimension 3, 1 or -1 (15, 3 or 0 points)."""
    return len(a & b) in SAME_SYSTEM_MEETS


def system_tags(solids) -> tuple:
    """0/1 tag per solid, measured against the first solid.  That this
    tagging is the equivalence closure of the parity relation is checked
    separately (certificates), not assumed here."""
    ref = solids[0]
    return tuple(0 if same_system(ref, s) else 1 for s in solids)


# ── 9-caps from all-weight-3 direction planes ────────────────────────────


def weight3_lines() -> tuple:
    """The eight 2-subspaces of (F_3)^4 whose nonzero vectors all have
    standard weight 3 (line kind 7)."""
    return tuple(ln for ln in gf3.all_lines() if ln.kind == 7)


def nine_cap(frame: Frame, line: gf3.Line) -> tuple:
    """The 9 labelled points of a weight-3 direction plane.  Rejects a
    subspace with any weight-4 or weight-<3 nonzero vector, since a
    weight-4 difference would put two of the points on a common line of
    the quadric."""
    for v in line.vectors:
        if v != gf3.ZERO and gf3.wt_std(v) != 3:
            raise ValueError(
                f"subspace contains {gf3.trit_str(v)} of weight "
                f"{gf3.wt_std(v)}; need all nonzero vectors of weight 3"
            )
    return tuple(sorted(frame.coset_points(line.vectors)))


def cap_translates(frame: Frame, line: gf3.Line) -> tuple:
    """The nine cosets of the direction plane, as tables
    (`Frame.coset_mask`), in order of least point; these partition the
    line-weight-4 orbit into nine disjoint caps.  Each coset is built
    once, shifted by the least vector no earlier coset holds."""
    caps, covered = [], set()
    for s in gf3.ALL81:
        if s not in covered:
            covered.update(gf3.t_add(v, s) for v in line.vectors)
            caps.append(frame.coset_mask(line.vectors, s))
    return tuple(sorted(caps, key=low_bit))

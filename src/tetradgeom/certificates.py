"""Executable certificates for every headline property of the geometry.

Each check is a function Context -> witness dict, raising CheckFailed
with structured data when a property fails.  The runner runs the
registered checks one after another and turns each into a Certificate
record (name, claim, status, witness, elapsed_ms), in registration order.
The Context carries the shared artifacts (frame, groups, quadric, solids,
denizens, and the fan triplets of every Segre denizen).  Each is built
once, on its first read, and declares the checks that read it, directly or
through another artifact's build; the runner drops it after its last
reader.

Witness values are JSON-safe throughout: ints, strings, bools, lists and
string-keyed dicts only.  The runner turns a witness that does not
round-trip through `json` into a fail record naming the offending key.
"""

from __future__ import annotations

import json
import time
from collections import Counter, namedtuple
from itertools import combinations

from . import anf, denizens, gf3, quadric, spreads
from .gf2 import (
    COORDS,
    E,
    FORMS,
    FULL,
    IDENTITY,
    PAIR_MASKS,
    UNIT,
    bit_counts,
    columns,
    compose,
    dimension,
    linmap_power,
    low_bit,
    mask,
    mulclose,
    perp,
    point_str,
    quadric_value,
    rank,
    span,
    support,
    table,
    xor_shift,
)
from .tetrad import (
    LINE_NAMES,
    Frame,
    build_group81,
    build_stabilizer,
    images,
    induced_matrix,
    line_maps,
    line_shuffles,
    pair_index,
    point_json,
    point_orbits,
    stabilizer_generators,
    subspace_orbit_partition,
)


class CheckFailed(Exception):
    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


def require(cond, message: str, **data):
    if not cond:
        raise CheckFailed(message, **data)


def _census(counts) -> dict:
    """A Counter as a witness: string keys, in key order."""
    return {str(k): n for k, n in sorted(counts.items())}


class _artifact:
    """A `Context` artifact: `build(ctx)` on its first read, kept in the
    context's cache under the attribute's own name; `readers` are the
    checks that read it."""

    def __init__(self, build, *readers):
        self.build = build
        self.readers = frozenset(readers)

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ctx, owner=None):
        if ctx is None:  # read off the class itself
            return self
        return ctx._get(self.name, lambda: self.build(ctx))


class Context:
    """Lazily built shared artifacts: each is built by `_get`, the one
    build path, on its first read and kept for every later one, until
    `run_certificates` drops it after its last reader."""

    def __init__(self, frame: Frame):
        self.frame = frame
        self._cache = {}

    def _get(self, name, builder):
        if name not in self._cache:
            self._cache[name] = builder()
        return self._cache[name]

    g81 = _artifact(lambda c: build_group81(c.frame), "stabilizer-group",
                    "gf3-taxonomy", "spreads", "orbit4-lines", "generator-solids")
    invariants = _artifact(lambda c: anf.build_invariants(c.frame),
                           "invariant-polynomials")
    quadric_points = _artifact(lambda c: quadric.build_quadric(),
                               "quadric-pointset", "generator-solids",
                               "nine-caps")
    solids = _artifact(lambda c: quadric.singular_solids(c.quadric_points),
                       "generator-solids")
    system_tags = _artifact(lambda c: quadric.system_tags(c.solids),
                            "generator-solids")
    stabilizer = _artifact(lambda c: build_stabilizer(), "stabilizer-group")
    spreads = _artifact(lambda c: spreads.all_spreads(c.g81), "spreads",
                        "orbit4-lines")
    triplets = _artifact(lambda c: denizens.all_triplets(c.frame),
                         "denizen-classification", "c2-rogue-structure",
                         "sections", "enneads")
    segres = _artifact(
        lambda c: tuple(d for t in c.triplets for d in t if d.kind == "segre"),
        "sections", "fans-troikas", "tetrad-recovery",
    )
    # the fan triplets of each Segre denizen, aligned with `segres`
    fan_triplets = _artifact(
        lambda c: tuple(denizens.fan_triplets(c.frame, d) for d in c.segres),
        "fans-troikas", "tetrad-recovery",
    )


def _where(fn, *args, **where):
    """fn(*args), failing with the fields `where` (the orbit, denizen,
    generator or plane it was called on) when fn rejects its input."""
    try:
        return fn(*args)
    except ValueError as e:
        raise CheckFailed(str(e), **where) from None


def _partition(parts, whole: int, overlap: str, cover: str, **where):
    """Require the point tables `parts` to be pairwise disjoint (else fail
    with `overlap`) and their union to be the table `whole` (else
    `cover`), locating either failure by the fields `where`."""
    union = 0
    for part in parts:
        require(not union & part, overlap, **where)
        union |= part
    require(union == whole, cover, **where)


def _same(p: int, q: int, message: str):
    """Require the coefficient tables p and q to be equal, else fail with
    `message` and the monomials where they differ, as index lists."""
    if p != q:
        raise CheckFailed(message, monomials=list(map(list, anf.monomials(p ^ q))))


CHECKS = []


def check(name: str, claim: str):
    def deco(fn):
        CHECKS.append((name, claim, fn))
        return fn

    return deco


# ── 1 frame ──────────────────────────────────────────────────────────────


@check(
    "frame-wellformed",
    "four pairwise disjoint lines span PG(7,2); each order-3 rotation "
    "cycles its own line and fixes the other three pointwise; the 255 "
    "index labels are bijective with U_0000 the unit point",
)
def check_frame(ctx):
    f = ctx.frame
    allpts = set()
    for ln in f.lines:
        line = [point_str(p) for p in sorted(ln)]
        require(len(ln) == 3, "line does not have 3 points", line=line)
        a, b, c = sorted(ln)
        require(a ^ b == c, "line is not closed under XOR", line=line)
        require(not (allpts & ln), "lines are not pairwise disjoint", line=line)
        allpts |= ln
    rank = dimension(allpts)
    require(rank == 8, "tetrad does not span the space", rank=rank)
    for h in range(4):
        z = f.rotations[h]
        require(linmap_power(z, 3) == IDENTITY, f"rotation {h} has order != 3",
                rotation=h)
        require(z != IDENTITY, f"rotation {h} is the identity", rotation=h)
        u0, u1, u2 = f.points[h]
        require(
            z[u0] == u1 and z[u1] == u2 and z[u2] == u0,
            f"rotation {h} does not cycle its line",
            rotation=h,
        )
        for k in range(4):
            if k != h:
                for p in sorted(f.lines[k]):
                    if z[p] != p:
                        raise CheckFailed(f"rotation {h} moves a point of line {k}",
                                          point=point_str(p))
    require(
        len(f.label_table()) == 255,
        "labels are not bijective",
        collisions=255 - len(f.label_table()),
    )
    u = f.point_from_trits(gf3.ZERO)
    if u != UNIT:
        raise CheckFailed("U_0000 is not the unit point", point=point_str(u))
    return {
        "lines": [[point_str(p) for p in sorted(ln)] for ln in f.lines],
        "labelled_points": len(f.label_table()),
    }


# ── 2 orbits ─────────────────────────────────────────────────────────────


@check(
    "orbit-census",
    "line weight splits the 255 points into classes of sizes 12/54/108/81 "
    "which are exactly the orbits of the stabilizer generators",
)
def check_orbits(ctx):
    f = ctx.frame
    sizes = tuple(len(f.orbit(r)) for r in (1, 2, 3, 4))
    require(sizes == (12, 54, 108, 81), "line-weight census is wrong",
            sizes=list(sizes))
    orbs = point_orbits(stabilizer_generators(f).values())
    require(len(orbs) == 4, "generator action has wrong orbit count",
            count=len(orbs))
    for r in (1, 2, 3, 4):
        require(
            f.orbit(r) in orbs,
            f"line-weight class {r} is not a group orbit",
        )
    return {"sizes": list(sizes), "group_orbit_sizes": sorted(len(o) for o in orbs)}


# ── 3 symplectic form ────────────────────────────────────────────────────


@check(
    "symplectic-form",
    "the form is alternating and nondegenerate with Gram matrix pairing "
    "coordinate i with 9-i, and the quadratic form polarizes to it",
)
def check_form(ctx):
    # tables (gf2): bit x of b_tabs[z] is B(x, z), XOR-doubled from the
    # coordinate tables; bit x of q_tab is Q(x), evaluated pointwise, so
    # the polarization step pins each row independently of how it was built
    b_tabs = FORMS
    for i in range(1, 9):
        for j in range(1, 9):
            require(
                b_tabs[1 << (j - 1)] >> (1 << (i - 1)) & 1 == (i + j == 9),
                f"Gram entry ({i},{j}) wrong",
            )
    for x in range(256):
        require(not b_tabs[x] >> x & 1, "form is not alternating", x=x)
    q_tab = table(quadric_value)
    for z, b_tab in enumerate(b_tabs):
        pol = xor_shift(q_tab, z) ^ q_tab ^ (FULL if quadric_value(z) else 0)
        if pol != b_tab:
            raise CheckFailed(
                "polarization identity fails", x=low_bit(pol ^ b_tab), y=z
            )
    # linearity in the first argument: B(., z) is the XOR of the
    # coordinate tables of the e_i with B(e_i, z) = 1
    for z, b_tab in enumerate(b_tabs):
        lin = 0
        for e, coord in zip(E, COORDS):
            if b_tab >> e & 1:
                lin ^= coord
        if lin != b_tab:
            raise CheckFailed("form is not linear", x=low_bit(lin ^ b_tab), z=z)
    # nondegeneracy needs no step of its own: polarization makes B
    # symmetric, so linearity in the first argument makes it bilinear, and
    # a bilinear form with the invertible Gram matrix above is nondegenerate
    return {"pairs_checked": 256 * 256}


# ── 4, 5 quadric ─────────────────────────────────────────────────────────


@check(
    "quadric-pointset",
    "the quadric has 135 points, the union of the weight-2 and weight-4 "
    "orbits; all twelve tetrad points are external",
)
def check_quadric_points(ctx):
    f = ctx.frame
    qp = ctx.quadric_points
    require(len(qp) == 135, "quadric size wrong", size=len(qp))
    require(qp == f.orbit(2) | f.orbit(4), "quadric is not orbit2 + orbit4")
    for p in f.orbit(1):
        require(quadric_value(p) == 1, "a tetrad point lies on the quadric",
                point=point_str(p))
    return {"points": len(qp), "external_tetrad_points": 12}


@check(
    "quadric-uniqueness",
    "of the 256 forms sharing the degree-2 part, exactly one avoids all "
    "twelve tetrad points: the adopted form, linear part the all-ones "
    "functional",
)
def check_quadric_unique(ctx):
    # the survivors are the same forms whatever Q's linear part, so the
    # scan alone does not see it: Q itself must be the one survivor
    cert = quadric.unique_form_certificate(ctx.frame)
    adopted = cert["adopted_linear_part"]
    require(
        cert["survivors"] == [adopted] == [0xFF],
        "uniqueness filter did not leave exactly the adopted form",
        survivors=cert["survivors"], adopted=adopted,
    )
    return cert


# ── 6 invariant polynomials ──────────────────────────────────────────────

VALUE_TABLE = {1: (1, 1, 1), 2: (0, 1, 0), 3: (1, 0, 0), 4: (0, 0, 0)}


@check(
    "invariant-polynomials",
    "the degree-2/4/6 flat-indicator sums are constant on the orbits per "
    "the value table; their sum vanishes exactly on the weight-4 orbit, "
    "equals the explicit symmetric-sum sextic coefficient-for-"
    "coefficient, and polarizes to the four coordinate pairs",
)
def check_invariants(ctx):
    f = ctx.frame
    inv = ctx.invariants
    degrees = list(map(anf.degree, inv[:3]))  # of q2, q4 and q6
    require(degrees == [2, 4, 6], "invariant degrees wrong", degrees=degrees)
    for r, expected in VALUE_TABLE.items():
        row = _where(inv.value_row, f.orbit(r), orbit=r)
        require(row == expected, f"value row for orbit {r} wrong",
                orbit=r, row=list(row), expected=list(expected))
    # dual route: the ANF of the closed-form quadratic equals q2
    _same(anf.mobius(table(quadric_value)), inv.q2,
          "q2 differs from the ANF of the quadratic form")
    stray = anf.projective_zeros(inv.q_lw4) ^ f.orbit(4)
    if stray:
        raise CheckFailed("sextic zero set is not the weight-4 orbit",
                          point=point_str(min(stray)))
    parts = anf.symmetric_parts()
    sextic = 0
    for part in parts.values():
        sextic ^= part
    _same(inv.q_lw4, sextic,
          "flat-indicator sextic differs from the symmetric-sum expansion")
    _same(anf.homogeneous_part(inv.q6, 6), parts["pair6"],
          "degree-6 part of q6 is not the four complement monomials")
    wedge = frozenset(((1, 8), (2, 7), (3, 6), (4, 5)))
    for name, p in ("q6", inv.q6), ("sextic", inv.q_lw4):
        pairs = anf.polarize6(p)
        require(pairs == wedge, f"polarization of {name} wrong",
                pairs=sorted(map(list, pairs)))
    for name, part in parts.items():
        if anf.degree(part) <= 5:
            pairs = anf.polarize6(part)
            require(not pairs, f"degree<=5 part {name} polarizes nontrivially",
                    pairs=sorted(map(list, pairs)))
    return {
        "value_table": {str(r): list(v) for r, v in VALUE_TABLE.items()},
        "sextic_terms": inv.q_lw4.bit_count(),
        "wedge": sorted(map(list, wedge)),
    }


# ── 7 stabilizer group ───────────────────────────────────────────────────


@check(
    "stabilizer-group",
    "the stabilizer closure has order 6^4*24 = 31104; the 81 diagonal "
    "maps form a normal subgroup on which conjugation acts F3-linearly; "
    "every element preserves the quadric",
)
def check_stabilizer(ctx):
    """<gens> = G(tetrad) = the `stabilizer` artifact.  The generators fix
    the tetrad, so <gens> lies in G(tetrad).  G(tetrad) is one GL(2,2)
    map per line after a line shuffle, and each of those factor sets is the
    closure of two generators, so G(tetrad) lies in <gens>.  The artifact
    lists 31104 = |G(tetrad)| distinct elements, each fixing the tetrad, so
    they are G(tetrad), and a diagonal map A_sigma is among them exactly
    when it fixes the tetrad.  Each keeps Q on the 36 vectors of weight <= 2."""
    gens = stabilizer_generators(ctx.frame)
    # each packing is read through the tetrad: a byte of `lines` is 0b1111
    # exactly when its map fixes the tetrad
    lines = pair_index(b"".join(map(columns, gens.values())))[0]
    for name, hit in zip(gens, lines):
        require(hit == 0b1111, "generator does not fix the tetrad lines",
                generator=name)
    factors = [
        (f"line_{name}", maps, (gens[f"zeta_{name}"], gens[f"swap_{name}"]))
        for name, maps in zip(LINE_NAMES, line_maps())
    ]
    factors.append(("shuffles", frozenset(line_shuffles()),
                    (gens["swap_ab"], gens["cycle_abcd"])))
    for name, maps, pair in factors:
        require(mulclose(pair) == maps,
                "a factor of the stabilizer is not generated by its generators",
                factor=name)
    st = ctx.stabilizer
    lines, keys = pair_index(st)
    bad = len(lines) - lines.count(0b1111)
    require(bad == 0, "some element does not fix the tetrad lines",
            violations=bad)
    # every record fixes the tetrad now, so each key is below 24^4 and
    # distinct records have distinct keys
    marks = bytearray(24**4)
    for k in keys:
        marks[k] = 1
    del keys
    order = marks.count(1)
    del marks
    require(order == 31104, "stabilizer order wrong", order=order)
    g81 = ctx.g81
    packed = [columns(m) for m in g81]
    lines = pair_index(b"".join(packed))[0]
    # `columns`, which packs the listing, read back: byte i of a record is
    # the map's image of e_(i+1)
    for sigma, m in enumerate(g81):
        require(packed[sigma] == bytes(m[e] for e in E),
                "packed record is not the images of e_1..e_8",
                sigma=gf3.trit_str(sigma))
        require(lines[sigma] == 0b1111, "diagonal map missing from stabilizer",
                sigma=gf3.trit_str(sigma))
    for name, g in gens.items():
        phi = gf3.mat3_table(_where(induced_matrix, g, g81, generator=name))
        # g A_sigma g^-1 = A_(phi_g sigma), multiplied out by g on the right
        for sigma, a in enumerate(g81):
            require(
                compose(g, a) == compose(g81[phi[sigma]], g),
                f"conjugation by {name} is not the induced linear map",
                sigma=gf3.trit_str(sigma),
            )
    # every element against the 36 vectors of weight 1 and 2 at once,
    # counting the images where Q differs from Q(v).  That suffices: Q
    # polarizes to the bilinear form B, which `symplectic-form` certifies
    # before this check runs, so
    #   Q(gx) = sum x_i Q(ge_i) + sum_(i<j) x_i x_j (Q(ge_i+ge_j) + Q(ge_i) + Q(ge_j)),
    # and an element keeping Q's values on those 36 vectors has Q o g = Q,
    # so it keeps all 135 quadric points
    image = images(st)
    q_tab = bytes(map(quadric_value, range(256)))
    bad = sum(image(v).translate(q_tab).count(1 - q_tab[v])
              for v in range(1, 256) if v.bit_count() < 3)
    require(bad == 0, "some element moves the quadric", violations=bad)
    return {
        "order": order,
        "generators": sorted(gens),
        "quadric_checks": order * 135,
    }


# ── 8 PG(3,3) taxonomy ───────────────────────────────────────────────────


@check(
    "gf3-taxonomy",
    "PG(3,3) has 40 points, 130 lines, 40 planes with consistent "
    "incidences; vertex-count classes 8/16/12/4 and weight-pattern "
    "classes 6/24/16/12/16/48/8 coincide with the conjugation orbits",
)
def check_gf3(ctx):
    pts, lns, pls = gf3.all_points(), gf3.all_lines(), gf3.all_planes()
    require(
        (len(pts), len(lns), len(pls)) == (40, 130, 40),
        "PG(3,3) census wrong",
        census=[len(pts), len(lns), len(pls)],
    )
    # each plane and line spelled out only when a check on it fails
    for pl in pls:
        try:
            if len(pl.points) != 13:
                raise ValueError("plane has wrong point count")
            pl.subspaces  # raises unless the plane has 13 lines
        except ValueError as e:
            raise CheckFailed(str(e), plane=gf3.point_strs(pl)) from None
    planes_on = Counter(ln for pl in pls for ln in pl.subspaces)
    for ln in lns:
        if len(ln.points) != 4:
            raise CheckFailed("line has wrong point count", line=gf3.point_strs(ln))
        if planes_on[ln] != 4:
            raise CheckFailed("line lies on wrong number of planes",
                              line=gf3.point_strs(ln), planes=planes_on[ln])
    lines_on = Counter(p for ln in lns for p in ln.points)
    lines_through = Counter(
        pair for ln in lns for pair in combinations(sorted(ln.points), 2)
    )
    for p in pts:
        require(lines_on[p] == 13, "point lies on wrong number of lines",
                point=gf3.trit_str(p), lines=lines_on[p])
    for pair in combinations(sorted(pts), 2):
        if lines_through[pair] != 1:
            raise CheckFailed("point pair not on a unique line",
                              pair=[gf3.trit_str(p) for p in pair])

    pkinds = Counter(pl.kind for pl in pls)
    require(
        pkinds == Counter({0: 8, 1: 16, 2: 12, 3: 4}),
        "plane-kind census wrong",
        census=_census(pkinds),
    )
    lkinds = Counter(ln.kind for ln in lns)
    require(
        lkinds == Counter({1: 6, 2: 24, 3: 16, 4: 12, 5: 16, 6: 48, 7: 8}),
        "line-kind census wrong",
        census=_census(lkinds),
    )

    # direction counts per plane kind, and direction-family purity of the
    # vertex-free planes
    expected_dirs = {0: 3, 1: 2, 2: 4, 3: 0}
    fam_count = Counter()
    for pl in pls:
        dirs = [p for p in pl.points if gf3.wt_std(p) == 4]
        if len(dirs) != expected_dirs[pl.kind]:
            raise CheckFailed(
                "direction count per plane kind wrong",
                plane=gf3.point_strs(pl),
                kind=pl.kind,
                found=len(dirs),
            )
        if pl.kind == 0:
            fams = {gf3.direction_family(d) for d in dirs}
            if len(fams) != 1:
                raise CheckFailed("vertex-free plane mixes direction families",
                                  plane=gf3.point_strs(pl))
            fam_count[fams.pop()] += 1
            kinds = Counter(s.kind for s in pl.subspaces)
            if kinds != Counter({4: 3, 6: 6, 3: 4}):
                raise CheckFailed(
                    "vertex-free plane line-kind split is not 3/6/4",
                    plane=gf3.point_strs(pl),
                )
    if fam_count != Counter({0: 4, 1: 4}):
        raise CheckFailed("family split of Segre planes wrong",
                          families=_census(fam_count))

    # conjugation orbits, under the distinct induced matrices other than
    # the identity (the rotations induce it): the rest move no subspace
    mats = dict.fromkeys(
        _where(induced_matrix, g, ctx.g81, generator=name)
        for name, g in stabilizer_generators(ctx.frame).items()
    )
    mats.pop(gf3.BASIS, None)
    orbit_sizes = {}
    for what, spaces, classes in (
        ("plane", pls, "vertex-count"),
        ("line", lns, "weight-pattern"),
    ):
        orbs = subspace_orbit_partition(mats, [s.vectors for s in spaces])
        sizes = sorted(len(o) for o in orbs)
        by_kind = {}
        for s in spaces:
            by_kind.setdefault(s.kind, set()).add(s.vectors)
        if {frozenset(v) for v in by_kind.values()} != set(orbs):
            raise CheckFailed(
                f"{what} conjugation orbits differ from {classes} classes",
                kind=min((k for k, v in by_kind.items() if v not in orbs),
                         default=None),
                orbit_sizes=sizes,
            )
        orbit_sizes[f"{what}_orbit_sizes"] = sizes
    return {"plane_kinds": _census(pkinds), "line_kinds": _census(lkinds),
            **orbit_sizes}


# ── 9 weights and distances ──────────────────────────────────────────────


@check(
    "weights-and-distances",
    "basis change is involutory; weights 2 and 3 agree in both bases, the "
    "eight coordinate vectors have alternative weight 4, and the sixteen "
    "weight-4 vectors split by family: even (the alternative basis, "
    "alt-weight 1) vs odd (alt-weight 4); orthogonality of labelled "
    "points is the parity of coordinate Hamming distance",
)
def check_weights(ctx):
    f = ctx.frame
    classes = Counter()
    for v in gf3.ALL81:
        require(
            gf3.change_basis(gf3.change_basis(v)) == v,
            "basis change is not involutory",
        )
        ws, wa = gf3.wt_std(v), gf3.wt_alt(v)
        classes[(ws, wa)] += 1
        if ws in (0, 2, 3):
            require(wa == ws, "weights 0/2/3 must agree in both bases",
                    vector=gf3.trit_str(v))
        elif ws == 1:
            require(wa == 4, "a coordinate vector must have alt-weight 4",
                    vector=gf3.trit_str(v))
        else:  # ws == 4: the family decides
            want = 1 if gf3.direction_family(v) == 0 else 4
            require(wa == want, "weight-4 alt-weight must follow the family",
                    vector=gf3.trit_str(v))
    census = {f"{ws},{wa}": n for (ws, wa), n in sorted(classes.items())}
    require(
        census == {"0,0": 1, "1,4": 8, "2,2": 24, "3,3": 32, "4,1": 8, "4,4": 8},
        "weight-pair census wrong",
        census=census,
    )
    signed = {v for d in gf3.DIRECTIONS for v in (d, gf3.t_neg(d))}
    wt4 = {v for v in gf3.ALL81 if gf3.wt_std(v) == 4}
    require(signed == wt4, "weight-4 vectors are not the direction sign pairs")
    alt1 = {v for v in gf3.ALL81 if gf3.wt_alt(v) == 1}
    even = {v for d in gf3.FAMILY_EVEN for v in (d, gf3.t_neg(d))}
    require(alt1 == even, "alt-weight-1 vectors are not the even family")
    for rho in gf3.ALL81:
        form = FORMS[f.point_from_trits(rho)]  # the table of B(., U_rho)
        for sigma in gf3.ALL81:
            if form >> f.point_from_trits(sigma) & 1 != gf3.hd_std(rho, sigma) % 2:
                raise CheckFailed(
                    "orthogonality differs from Hamming parity",
                    rho=gf3.trit_str(rho),
                    sigma=gf3.trit_str(sigma),
                )
    return {"pairs_checked": 81 * 81, "weight_pair_census": census}


# ── 10, 11 spreads ───────────────────────────────────────────────────────


@check(
    "spreads",
    "each of the eight spreads has 85 lines partitioning the 255 points, "
    "contains the tetrad, and is invariant under its generator; distinct "
    "spread lines through a point number 8/4/2/1 by line weight 4/3/2/1",
)
def check_spreads(ctx):
    f = ctx.frame
    g81 = ctx.g81
    for d, lines in sorted(ctx.spreads.items()):
        direction = gf3.trit_str(d)
        require(len(lines) == 85, "spread size wrong", direction=direction)
        for ln in lines:
            require(len(ln) == 3, "spread line size wrong", direction=direction)
            a, b, c = sorted(ln)
            require(a ^ b == c, "spread line not closed", direction=direction)
        # FULL ^ 1 is the table of the 255 points, every vector but 0
        _partition(map(mask, lines), FULL ^ 1, "spread lines overlap",
                   "spread does not cover the points", direction=direction)
        require(set(f.lines) <= set(lines), "spread misses a tetrad line",
                direction=direction)
        gen = g81[d]
        for ln in lines:
            require(
                frozenset(gen[p] for p in ln) == ln,
                "generator does not fix each spread line",
                direction=direction,
            )
    expected = {1: 1, 2: 2, 3: 4, 4: 8}
    through = spreads.line_counts(ctx.spreads)
    for r, want in expected.items():
        counts = {through[p] for p in f.orbit(r)}
        require(
            counts == {want},
            f"distinct-line count on orbit {r} wrong",
            orbit=r,
            found=sorted(counts),
        )
    # zero-digit degeneracy: any sigma of weight below 4 has fixed points
    for sigma, m in enumerate(g81):
        fixed = any(m[p] == p for p in range(1, 256))
        require(
            fixed == (gf3.wt_std(sigma) < 4),
            "fixed-point-freeness does not match all-nonzero digits",
            sigma=gf3.trit_str(sigma),
        )
    lines_u = {ln for sp in ctx.spreads.values() for ln in sp if UNIT in ln}
    require(len(lines_u) == 8, "unit point does not lie on 8 distinct lines")
    return {
        "spreads": 8,
        "lines_through_unit": [
            [point_str(p) for p in sorted(ln)] for ln in sorted(lines_u, key=min)
        ],
    }


@check(
    "orbit4-lines",
    "a direction orbit of a weight-4 point is a line inside the orbit "
    "exactly for the sixteen weight-4 directions; each direction class "
    "partitions the orbit into the 27 spread lines it contains",
)
def check_orbit4_lines(ctx):
    f = ctx.frame
    g81 = ctx.g81
    omega4 = f.orbit(4)
    directions = gf3.all_points()  # one of each +-pair, the first in int order
    for lam in directions:
        want = gf3.wt_std(lam) == 4
        direction = gf3.trit_str(lam)
        for p in omega4:
            if spreads.orbit4_line_test(f, g81, p, lam) != want:
                raise CheckFailed(
                    "line test disagrees with weight-4 criterion",
                    direction=direction,
                    point=point_str(p),
                )
    require(len(directions) == 40, "direction pair count wrong")
    for d, lines in sorted(ctx.spreads.items()):
        inside = [ln for ln in lines if ln <= omega4]
        require(len(inside) == 27, "parallel class size wrong",
                direction=gf3.trit_str(d))
        _partition(map(mask, inside), mask(omega4), "parallel lines overlap",
                   "parallel class does not cover the orbit",
                   direction=gf3.trit_str(d))
    return {"direction_pairs": 40, "classes": 8, "lines_per_class": 27}


# ── 12 generator solids ──────────────────────────────────────────────────


@check(
    "generator-solids",
    "the quadric carries exactly 270 totally singular solids in two "
    "systems of 135 under the parity relation (an equivalence); the two "
    "spread-family solids of each weight-4 point are on the quadric, "
    "meet in a 7-point plane, and lie in opposite systems",
)
def check_solids(ctx):
    f = ctx.frame
    qp = ctx.quadric_points
    solids = ctx.solids
    require(len(solids) == 270, "solid count wrong", count=len(solids))
    solid_set = set(solids)
    for i, s in enumerate(solids):
        require(len(s) == 15 and s <= qp, "solid is not 15 singular points",
                solid=i)
        require(span(s) == s, "solid is not a 3-flat", solid=i)
    tags = ctx.system_tags
    sizes = Counter(tags)
    require(
        sizes == Counter({0: 135, 1: 135}),
        "system sizes wrong",
        sizes=sorted(sizes.values()),
    )
    # every pair, bit-sliced: bit b of through[p] is set when solid b
    # contains p, so adding the masks of a's 15 points into the counter
    # bits c0..c3 counts |a & b| for every b at once.  Bit b of `meets` is
    # set when that count is a same-system size, 15, 3 or 0 (binary 1111,
    # 0011, 0000), which must agree with b's tag for every b after a
    everything = (1 << len(solids)) - 1
    through = dict.fromkeys(qp, 0)
    system = [0, 0]
    for b, (s, tg) in enumerate(zip(solids, tags)):
        system[tg] |= 1 << b
        for p in s:
            through[p] |= 1 << b
    for a, (s, tg) in enumerate(zip(solids, tags)):
        c0, c1, c2, c3 = bit_counts(map(through.__getitem__, s))
        low = c0 & c1
        meets = low & c2 & c3 | low & ~(c2 | c3) | everything ^ (c0 | c1 | c2 | c3)
        wrong = (meets ^ system[tg]) >> a + 1
        if wrong:
            raise CheckFailed("parity relation is not the two-class equivalence",
                              pair=[a, a + 1 + low_bit(wrong)])
    tag_of = {s: tg for s, tg in zip(solids, tags)}
    omega2, omega4 = f.orbit(2), f.orbit(4)
    for p in sorted(omega4):
        se, so = spreads.solid_pair(f, ctx.g81, p)
        comps = [p & pm for pm in PAIR_MASKS]
        small = {comps[h] ^ comps[k] for h, k in combinations(range(4), 2)}
        if not (se in solid_set and so in solid_set):
            message = "family span is not a solid"
        elif len(se & so) != 7:
            message = "solid pair does not meet in a plane"
        elif tag_of[se] == tag_of[so]:
            message = "solid pair lies in one system"
        # se is one of the solids, which all have 15 points (checked above),
        # so 9 of weight 4 and 6 of weight 2 is its whole weight profile
        elif not (len(se & omega4) == 9 and len(se & omega2) == 6):
            message = "solid weight profile wrong"
        elif se & so != {p} | small:
            message = "plane of intersection is not the pair-sum plane"
        else:
            continue
        raise CheckFailed(message, point=point_str(p))
    return {"solids": 270, "systems": [135, 135], "points_checked": 81}


# ── 13, 14 denizens ──────────────────────────────────────────────────────


@check(
    "denizen-classification",
    "the 40 plane triplets partition the weight-4 orbit into 120 "
    "denizens, classified 24/48/36/12 as Segre/C1/C2/C3; the structural "
    "line-profile certificate reproduces every tag",
)
def check_denizens(ctx):
    f = ctx.frame
    omega4 = mask(f.orbit(4))
    kinds = Counter()
    c1_profiles = set()
    for t in ctx.triplets:
        for d in t:
            require(d.points.bit_count() == 27, "denizen size wrong", ident=d.ident)
        _partition((d.points for d in t), omega4, "triplet cosets overlap",
                   "triplet does not cover the orbit", ident=t[0].ident)
        for d in t:
            kind = d.kind
            cert = denizens.structural_certificate(d)
            require(
                cert["structural_kind"] == kind,
                "structural certificate disagrees with plane kind",
                ident=d.ident,
                cert={k: v for k, v in cert.items()},
            )
            kinds[kind] += 1
            if kind == "C1":
                c1_profiles.add(
                    (cert["lines"], tuple(cert["per_point"]), cert["span_rank"])
                )
            if kind == "C3":
                pp = span(support(d.points))
                require(rank(pp) == 7, "C3 span is not a 6-flat", ident=d.ident)
                axis = sorted(perp(pp))
                require(
                    len(axis) == 1 and f.line_weight(axis[0]) == 1,
                    "C3 perp is not a single weight-1 point",
                    ident=d.ident,
                )
    require(
        kinds == Counter({"segre": 24, "C1": 48, "C2": 36, "C3": 12}),
        "denizen class census wrong",
        census=_census(kinds),
    )
    return {
        "census": _census(kinds),
        "c1_observed_profiles": sorted(
            [p[0], list(p[1]), p[2]] for p in c1_profiles
        ),
    }


@check(
    "c2-rogue-structure",
    "every C2 denizen is the weight-4 part of the perp of a line of the "
    "weight-2 orbit; the twelve C2 triplets yield 36 distinct lines "
    "forming regulus / opposite-regulus pairs in the six tetrad-pair "
    "3-flats, with the tetrad lines external",
)
def check_c2(ctx):
    f = ctx.frame
    c2_triplets = [t for t in ctx.triplets if t[0].kind == "C2"]
    require(len(c2_triplets) == 12, "C2 triplet count wrong")
    flats = {
        (h, k): span(f.lines[h] | f.lines[k]) for h, k in combinations(range(4), 2)
    }
    pair_of = {fl: pair for pair, fl in flats.items()}
    # the C2 lines of each triplet, grouped by the tetrad-pair 3-flat
    # they span
    groups = {}
    for t in c2_triplets:
        tri = tuple(_where(denizens.c2_line, f, d, ident=d.ident) for d in t)
        pair = pair_of.get(span(set().union(*tri)))
        require(pair is not None, "C2 lines span no tetrad-pair 3-flat",
                ident=t[0].ident)
        groups.setdefault(pair, []).append(tri)
    distinct = {ln for two in groups.values() for tri in two for ln in tri}
    require(len(distinct) == 36, "C2 line count wrong", count=len(distinct))
    require(len(groups) == 6, "not all tetrad pairs covered")
    for (h, k), two in sorted(groups.items()):
        require(len(two) == 2, f"expected 2 C2 triplets per pair, got {len(two)}",
                pair=[h, k])
        r1, r2 = two
        grid = frozenset().union(*r1)
        require(
            all(not (a & b) for tri in two for a, b in combinations(tri, 2)),
            "regulus check disjoint_within fails", pair=[h, k],
        )
        require(all(len(a & b) == 1 for a in r1 for b in r2),
                "regulus check cross_meet_once fails", pair=[h, k])
        require(grid == frozenset().union(*r2),
                "regulus check same_grid fails", pair=[h, k])
        require(grid == flats[h, k] & f.orbit(2),
                "regulus check grid_is_quadric_part fails", pair=[h, k])
        require(not (grid & (f.lines[h] | f.lines[k])),
                "regulus check tetrad_lines_external fails", pair=[h, k])
    return {
        "distinct_lines": len(distinct),
        "pairs": [list(p) for p in sorted(groups)],
    }


# ── 15, 16, 17 sections, fans, recovery ──────────────────────────────────


@check(
    "sections",
    "the 13 sections of each of the 24 Segre denizens split 3/6/4 into "
    "grids, 3-generator sets and fans, following the line kind of the "
    "section direction; each tag's promised structure verifies",
)
def check_sections(ctx):
    for den in ctx.segres:
        tags = Counter()
        grids = denizens.grid_cosets(ctx.frame, den)
        for sub in den.plane.subspaces:
            try:
                tags[denizens.classify_section(ctx.frame, den, sub, grids)["tag"]] += 1
            except ValueError as e:
                # the section located only when it fails
                raise CheckFailed(str(e), ident=den.ident,
                                  direction=gf3.point_strs(sub)) from None
        require(
            tags == Counter({"S2(2)": 3, "3-generator": 6, "fan": 4}),
            "section split is not 3/6/4",
            ident=den.ident,
            tags=dict(tags),
        )
    return {"segres": len(ctx.segres), "sections_each": 13}


@check(
    "fans-troikas",
    "every fan of every Segre denizen decomposes uniquely into three "
    "troikas sharing one centre, which lies on a tetrad line",
)
def check_fans(ctx):
    f = ctx.frame
    tetrad_points = f.orbit(1)
    centres = {}  # each distinct fan -> its centre, decomposed on first sight
    fans_seen = 0
    for den, fts in zip(ctx.segres, ctx.fan_triplets):
        for ft in fts:
            for fan in ft:
                # the denizen and centre spelled out only on a failure
                if fan not in centres:
                    _, centres[fan] = _where(denizens.fan_decompose, f, fan,
                                             ident=den.ident)
                if centres[fan] not in tetrad_points:
                    raise CheckFailed("fan centre is not a tetrad point",
                                      ident=den.ident,
                                      centre=point_str(centres[fan]))
                fans_seen += 1
            require(
                frozenset(centres[fan] for fan in ft) in f.lines,
                "centre line of a fan triplet is not a tetrad line",
                ident=den.ident,
            )
    require(fans_seen == 24 * 12, "fan count wrong", count=fans_seen)
    return {"fans": fans_seen, "troikas": fans_seen * 3}


@check(
    "tetrad-recovery",
    "each Segre denizen's four fan triplets have centre lines exactly "
    "the four tetrad lines, and each of its points lies in exactly four "
    "fans: the denizen alone recovers the tetrad",
)
def check_recovery(ctx):
    f = ctx.frame
    want = frozenset(f.lines)
    for den, fts in zip(ctx.segres, ctx.fan_triplets):
        got = denizens.recover_tetrad(fts)
        require(got == want, "recovered lines differ from the tetrad",
                ident=den.ident)
        # each point's fan count, as the bit planes c0..c3
        c0, c1, c2, c3 = bit_counts(fan for ft in fts for fan in ft)
        covered = c0 | c1 | c2 | c3
        require(
            covered.bit_count() == 27 and covered == c2 & ~(c0 | c1 | c3),
            "points are not in exactly four fans each",
            ident=den.ident,
        )
    return {"segres_recovering": len(ctx.segres)}


# ── 18 enneads ───────────────────────────────────────────────────────────


@check(
    "enneads",
    "each of the 780 pairs of distinct triplets meets in nine 9-point "
    "cells partitioning the weight-4 orbit, the coset images of the "
    "9-element plane intersection",
)
def check_enneads(ctx):
    f = ctx.frame
    omega4 = mask(f.orbit(4))
    # the pairs grouped by their planes' meet, an AND of 81-bit vector
    # tables, in the order of each meet's first pair, so that one meet's
    # coset images live only while its pairs are checked
    tabs = [sum(1 << v for v in t[0].plane.vectors) for t in ctx.triplets]
    by_meet = {}
    for (a, t1), (b, t2) in combinations(zip(tabs, ctx.triplets), 2):
        by_meet.setdefault(a & b, []).append((t1, t2))
    pairs = 0
    for group in by_meet.values():
        # the meet's three cosets inside each of the first plane's (the
        # shifts of its denizens): nine images of the meet, as tables,
        # which must partition the orbit
        t1, t2 = group[0]
        plane = t1[0].plane.vectors
        meet = plane & t2[0].plane.vectors
        steps = gf3.coset_shifts(plane, meet)
        pair = [t1[0].ident, t2[0].ident]
        images = [f.coset_mask(meet, gf3.t_add(d.shift, step))
                  for d in t1 for step in steps]
        _partition(images, omega4, "ennead cells overlap",
                   "ennead does not cover the orbit", pair=pair)
        want = set(images)
        for t1, t2 in group:
            cells = denizens.ennead(t1, t2)
            # nine distinct images, so nine cells that are all of them are
            # each one coset, once
            if len(cells) != 9 or set(cells) != want:
                require(len(cells) == 9, "ennead does not have nine cells")
                for cell in cells:
                    require(cell.bit_count() == 9, "ennead cell size wrong")
                    require(cell in want,
                            "ennead cell is not a coset of the intersection")
                # nine cosets, so two of them are the same
                raise CheckFailed("ennead cells overlap",
                                  pair=[t1[0].ident, t2[0].ident])
            pairs += 1
    require(pairs == 780, "triplet pair count wrong", count=pairs)
    return {"pairs": pairs, "cells_per_pair": 9}


# ── 19 nine-caps ─────────────────────────────────────────────────────────


@check(
    "nine-caps",
    "each of the eight all-weight-3 direction planes labels a 9-cap on "
    "the quadric (pairwise product 1, secants off the quadric) whose "
    "nine translates partition the weight-4 orbit into disjoint caps",
)
def check_caps(ctx):
    f = ctx.frame
    qp = ctx.quadric_points
    omega4 = mask(f.orbit(4))
    w3 = quadric.weight3_lines()
    require(len(w3) == 8, "weight-3 plane count wrong", count=len(w3))
    example = None  # the first plane's cap, shown in the witness
    for ln in w3:
        where = {"plane": gf3.point_strs(ln)}
        cap = quadric.nine_cap(f, ln)
        example = example or cap
        require(len(cap) == 9 and set(cap) <= qp, "cap is not 9 quadric points",
                **where)
        for a, b in combinations(cap, 2):
            require(FORMS[a] >> b & 1, "cap points are orthogonal", **where)
            require(quadric_value(a ^ b) == 1, "cap secant stays on the quadric",
                    **where)
            require(a ^ b not in cap, "three cap points are collinear", **where)
        translates = quadric.cap_translates(f, ln)
        require(len(translates) == 9, "translate count wrong", **where)
        for m9 in translates:
            require(m9.bit_count() == 9, "translate size wrong", **where)
            # B(a, a) = 0, so a cap's only point orthogonal to a is a itself
            require(all(m9 & ~FORMS[a] == 1 << a for a in support(m9)),
                    "translate is not a cap", **where)
        _partition(translates, omega4, "translates overlap",
                   "translates do not cover the orbit", **where)
    return {
        "caps": 8,
        "example_cap": [point_json(f, p) for p in example],
    }


# ── runner ───────────────────────────────────────────────────────────────


class Certificate(
    namedtuple("Certificate", "name claim status witness elapsed_ms")
):
    """One check's outcome: `status` is "pass" or "fail", `witness` a
    JSON-safe dict and `elapsed_ms` the check's wall time."""

    __slots__ = ()


def _unsafe_key(witness: dict):
    """The first witness key that is not a string or whose value does not
    survive a JSON round trip unchanged; None if there is none."""
    for key, value in witness.items():
        try:
            if not isinstance(key, str) or json.loads(json.dumps(value)) != value:
                return key
        except (TypeError, ValueError):
            return key
    return None


def run_certificates(ctx: Context, names=None) -> list:
    """One `Certificate` per registered check, or per check named in
    `names`, run one after another in registration order.  After each
    check, the artifacts that no check still to run reads are dropped."""
    out = []
    todo = [c for c in CHECKS if names is None or c[0] in names]
    while todo:
        name, claim, fn = todo.pop(0)
        t0 = time.perf_counter()
        try:
            witness = fn(ctx)
            status = "pass"
        except CheckFailed as e:
            status = "fail"
            witness = {"message": str(e), **e.data}
        except Exception as e:  # broken inputs must report, not crash
            status = "fail"
            witness = {"error": f"{type(e).__name__}: {e}"}
        key = _unsafe_key(witness)
        if key is not None:
            status = "fail"
            witness = {"message": f"witness field {key!r} is not JSON-safe",
                       "key": str(key)}
        ms = (time.perf_counter() - t0) * 1000.0
        out.append(Certificate(name, claim, status, witness, round(ms, 3)))
        left = {c[0] for c in todo}
        for art in [a for a in ctx._cache if not vars(Context)[a].readers & left]:
            del ctx._cache[art]
    return out

"""Command-line interface: the verification suite and geometry queries.

Exit codes: 0 success, 1 at least one certificate failed, 2 usage,
lookup or I/O error (such as an unwritable report file).  Points are
printed as mask, set-bit string and index label; `--json` switches any
query to a machine-readable report.

Each subcommand imports the one module it reads inside its own body, so
a query process never loads the certificate suite, and `orbits` loads
nothing beyond the frame.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext

from . import gf3
from .gf2 import mask, point_str, support
from .tetrad import build_frame, build_group81, point_json


def _fmt_point(frame, p: int) -> str:
    return f"0x{p:02x} {point_str(p):<8} {frame.label_str(p)}"


def _anf_str(mons) -> str:
    terms = []
    for m in mons:
        terms.append("1" if not m else "".join(f"x{i}" for i in m))
    return " + ".join(terms) if terms else "0"


def _line_json(frame, ln) -> list:
    return [point_json(frame, p) for p in sorted(ln)]


# ── verify-all ───────────────────────────────────────────────────────────


def cmd_verify(args) -> int:
    from .certificates import CHECKS, Context, run_certificates

    known = {name for name, _, _ in CHECKS}
    names = None
    if args.only:
        unknown = [n for n in args.only if n not in known]
        if unknown:
            print(
                f"unknown certificate(s): {', '.join(unknown)}\n"
                f"known: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        names = set(args.only)
    # opened before any check runs, so that an unwritable path fails at once
    with open(args.report, "w") if args.report else nullcontext() as fh:
        frame = build_frame(perturb=args.perturb)
        ctx = Context(frame)
        t0 = time.perf_counter()
        certs = run_certificates(ctx, jobs=max(1, args.jobs), names=names)
        wall = time.perf_counter() - t0
        for c in certs:
            if c.status == "pass":
                print(f"PASS {c.name:<24} ({c.elapsed_ms:8.1f} ms)")
            else:
                msg = c.witness.get("message") or c.witness.get("error") or ""
                print(f"FAIL {c.name:<24} ({c.elapsed_ms:8.1f} ms) {msg}")
        passed = sum(c.status == "pass" for c in certs)
        print(f"passed {passed}/{len(certs)} certificates in {wall:.1f} s")
        if fh is not None:
            json.dump([c._asdict() for c in certs], fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if passed == len(certs) else 1


# ── queries ──────────────────────────────────────────────────────────────


def cmd_orbits(args) -> int:
    frame = build_frame()
    data = []
    for r in (1, 2, 3, 4):
        orb = sorted(frame.orbit(r))
        data.append(
            {
                "line_weight": r,
                "size": len(orb),
                "points": [point_json(frame, p) for p in orb],
            }
        )
    if args.json:
        print(json.dumps({"orbits": data}, indent=2, sort_keys=True))
        return 0
    for row in data:
        print(f"line weight {row['line_weight']}: {row['size']} points")
        for pj in row["points"][:6]:
            print(f"    {_fmt_point(frame, pj['mask'])}")
        if row["size"] > 6:
            print(f"    ... {row['size'] - 6} more")
    return 0


def cmd_invariants(args) -> int:
    from . import anf

    frame = build_frame()
    inv = anf.build_invariants(frame)
    table = {r: inv.value_row(frame.orbit(r)) for r in (1, 2, 3, 4)}
    polys = inv._asdict() if args.emit_anf else {}
    mons = {name: anf.monomials(p) for name, p in polys.items()}
    if args.json:
        out = {"value_table": {str(r): list(v) for r, v in table.items()}}
        if args.emit_anf:
            out["anf"] = {name: _anf_str(m) for name, m in mons.items()}
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print("orbit (line weight) | q2 q4 q6")
    for r, row in table.items():
        a, b, c = row
        print(f"         {r}          |  {a}  {b}  {c}")
    print("q2 + q4 + q6 vanishes exactly on the line-weight-4 orbit")
    for name, m in mons.items():
        print(f"{name} ({len(m)} terms) = {_anf_str(m)}")
    return 0


def cmd_spreads(args) -> int:
    from . import spreads as spreads_mod

    s = args.ijk
    if len(s) != 3 or any(ch not in "12" for ch in s):
        print("--ijk must be three digits from {1,2}, e.g. 121", file=sys.stderr)
        return 2
    direction = gf3.trit_from_str(s + "1")  # sigma = ijk1
    frame = build_frame()
    g81 = build_group81(frame)
    sp = spreads_mod.build_spread(g81, direction)
    family = ("even", "odd")[gf3.direction_family(direction)]
    omega4 = frame.orbit(4)
    inside4 = [ln for ln in sp.lines if ln <= omega4]
    if args.json:
        out = {
            "ijk": s,
            "family": family,
            "line_count": len(sp.lines),
            "lines_inside_weight4_orbit": len(inside4),
            "lines": [_line_json(frame, ln) for ln in sp.lines],
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"spread {s} ({family} family): {len(sp.lines)} lines, "
          f"{len(inside4)} inside the weight-4 orbit")
    for ln in sp.lines:
        pts = sorted(ln)
        bits = " ".join(f"{point_str(p):<8}" for p in pts)
        labels = " ".join(frame.label_str(p) for p in pts)
        print(f"    {bits}   {labels}")
    return 0


def cmd_triplets(args) -> int:
    from . import denizens

    frame = build_frame()
    trips = denizens.all_triplets(frame)
    rows = [
        {
            "functional": gf3.trit_str(t[0].plane.functional),
            "plane_kind": gf3.plane_kind(t[0].plane),
            "denizen_kind": t[0].kind,
            "denizens": [d.ident for d in t],
        }
        for t in trips
    ]
    census = Counter(r["denizen_kind"] for r in rows)
    if args.json:
        out = {
            "triplets": rows,
            "triplet_census": dict(sorted(census.items())),
            "denizen_census": {k: 3 * v for k, v in sorted(census.items())},
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    for r in rows:
        print(
            f"plane {r['functional']} (kind {r['plane_kind']}) -> "
            f"3 x {r['denizen_kind']}"
        )
    print(
        "triplet census: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(census.items()))
    )
    return 0


def cmd_denizen(args) -> int:
    from . import denizens

    frame = build_frame()
    den = denizens.denizen_by_id(frame, f"{args.plane}:{args.shift}")
    kind = den.kind
    cert = denizens.structural_certificate(frame, den)
    out = {
        "ident": den.ident,
        "kind": kind,
        "certificate": cert,
        "points": [point_json(frame, p) for p in support(den.points)],
    }
    if kind == "C2":
        line = denizens.c2_line(frame, den)
        out["perp_line"] = _line_json(frame, line)
    if kind == "segre":
        fts = denizens.fan_triplets(frame, den)
        tetrad = sorted(denizens.recover_tetrad(fts), key=min)
        out["recovered_tetrad"] = [_line_json(frame, ln) for ln in tetrad]
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"denizen {den.ident}: {kind}")
    print(
        f"    lines {cert['lines']}, per point {cert['per_point']}, "
        f"span rank {cert['span_rank']}"
    )
    for p in support(den.points):
        print(f"    {_fmt_point(frame, p)}")
    if kind == "C2":
        print("perp line: " + ", ".join(_fmt_point(frame, p) for p in sorted(line)))
    if kind == "segre":
        print("recovered tetrad lines:")
        for ln in tetrad:
            print("    " + ", ".join(_fmt_point(frame, p) for p in sorted(ln)))
    return 0


def cmd_sections(args) -> int:
    from . import denizens

    frame = build_frame()
    den = denizens.denizen_by_id(frame, args.segre)
    if den.kind != "segre":
        print(
            f"denizen {den.ident} has kind {den.kind}; sections need a Segre",
            file=sys.stderr,
        )
        return 2
    subs = den.plane.subspaces
    secs = denizens.sections_of(frame, den)
    rows = []
    for sub, s in zip(subs, secs):
        row = {
            "direction": gf3.point_strs(sub),
            "line_kind": s["line_kind"],
            "tag": s["tag"],
            "points": [point_json(frame, p) for p in sorted(s["points"])],
        }
        if "rulings" in s:
            row["rulings"] = [
                [_line_json(frame, ln) for ln in ruling]
                for ruling in s["rulings"]
            ]
        if "generators" in s:
            row["generators"] = [_line_json(frame, g) for g in s["generators"]]
            row["transversal_grids"] = s["transversal_grids"]
        if s["tag"] == "fan":
            troikas, centre = denizens.fan_decompose(frame, mask(s["points"]))
            row["troikas"] = [_line_json(frame, t) for t in troikas]
            row["centre"] = point_json(frame, centre)
        rows.append(row)
    tags = Counter(r["tag"] for r in rows)
    if args.json:
        out = {
            "segre": den.ident,
            "sections": rows,
            "census": dict(sorted(tags.items())),
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"sections of Segre denizen {den.ident}")
    for r in rows:
        extra = ""
        if r["tag"] == "fan":
            extra = f"  centre {r['centre']['label']}"
        elif r["tag"] == "3-generator":
            extra = f"  transversal grids {r['transversal_grids']}"
        print(
            f"    direction {{{', '.join(r['direction'])}}} "
            f"kind {r['line_kind']} -> {r['tag']}{extra}"
        )
    print(
        "census: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(tags.items()))
    )
    return 0


def cmd_caps(args) -> int:
    from . import quadric

    frame = build_frame()
    rows = []
    for ln in quadric.weight3_lines():
        cap = quadric.nine_cap(frame, ln)
        translates = quadric.cap_translates(frame, ln)
        rows.append(
            {
                "plane": gf3.point_strs(ln),
                "cap": [point_json(frame, p) for p in cap],
                "translates": len(translates),
            }
        )
    if args.json:
        print(json.dumps({"caps": rows}, indent=2, sort_keys=True))
        return 0
    for r in rows:
        print(f"plane {{{', '.join(r['plane'])}}}: 9-cap with "
              f"{r['translates']} translates")
        for pj in r["cap"]:
            print(f"    {_fmt_point(frame, pj['mask'])}")
    return 0


# ── parser ───────────────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetradgeom",
        description="verify and query the geometry of a tetrad of skew "
        "lines spanning PG(7,2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every certificate")
    p.add_argument("--report", metavar="FILE", help="write a JSON report")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker threads (default 1)")
    p.add_argument("--perturb", action="store_true",
                   help="deliberately break one rotation (negative control)")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="run only the named certificate (repeatable)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbits", help="the four line-weight orbits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("invariants",
                       help="orbit value table of the invariant polynomials")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit-anf", action="store_true",
                   help="print the polynomials term by term")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("spreads", help="one of the eight line spreads")
    p.add_argument("--ijk", required=True, metavar="NNN",
                   help="spread index, three digits from {1,2}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spreads)

    p = sub.add_parser("triplets", help="the 40 denizen triplets")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triplets)

    p = sub.add_parser("denizen", help="inspect one denizen")
    p.add_argument("--plane", required=True, metavar="XXXX",
                   help="plane functional, four digits from {0,1,2}")
    p.add_argument("--shift", default="0", choices=("0", "1", "2"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_denizen)

    p = sub.add_parser("sections",
                       help="the 13 sections of a Segre denizen")
    p.add_argument("--segre", required=True, metavar="PLANE:SHIFT",
                   help="denizen id, e.g. 1111:0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("caps", help="the eight 9-caps on the quadric")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_caps)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

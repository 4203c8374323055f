"""Command-line interface: the verification suite and geometry queries.

Exit codes: 0 success, 1 at least one certificate failed, 2 usage,
lookup or I/O error (such as an unwritable report file).  Points are
printed as mask, set-bit string and index label; `--json` switches any
query to a machine-readable report.

Each subcommand imports the one module it reads inside its own body, so
a query process never loads the certificate suite, and `orbits` loads
nothing beyond the frame.  Arguments are read against one table,
`COMMANDS`: importing argparse would cost each process half a megabyte.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext
from types import SimpleNamespace

from . import gf3
from .gf2 import mask, point_str, support
from .tetrad import build_frame, build_group81, point_json


def _fmt_point(frame, p: int) -> str:
    return f"0x{p:02x} {point_str(p):<8} {frame.label_str(p)}"


def _anf_str(mons) -> str:
    terms = ["".join(f"x{i}" for i in m) or "1" for m in mons]
    return " + ".join(terms) or "0"


def _line_json(frame, ln) -> list:
    return [point_json(frame, p) for p in sorted(ln)]


#: the one spelling of JSON output, the queries' `--json` and the report's
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


# ── verify-all ───────────────────────────────────────────────────────────


def cmd_verify(args) -> int:
    from .certificates import CHECKS, Context, run_certificates

    known = {name for name, _, _ in CHECKS}
    unknown = [n for n in args.only or () if n not in known]
    if unknown:
        raise ValueError(f"unknown certificate(s): {', '.join(unknown)}\n"
                         f"known: {', '.join(sorted(known))}")
    names = set(args.only) if args.only else None
    # opened before any check runs, so that an unwritable path, the empty
    # one included, fails at once
    with nullcontext() if args.report is None else open(args.report, "w") as fh:
        frame = build_frame(perturb=args.perturb)
        ctx = Context(frame)
        t0 = time.perf_counter()
        certs = run_certificates(ctx, names=names)
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
            # written chunk by chunk: the report as one string raises the
            # peak resident set, by about 0.1 MB even after every artifact
            # is dropped
            fh.writelines(_JSON.iterencode([c._asdict() for c in certs]))
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
        print(_JSON.encode({"orbits": data}))
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
        print(_JSON.encode(out))
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
        raise ValueError("--ijk must be three digits from {1,2}, e.g. 121")
    direction = gf3.trit_from_str(s + "1")  # sigma = ijk1
    frame = build_frame()
    g81 = build_group81(frame)
    lines = spreads_mod.build_spread(g81, direction)
    family = ("even", "odd")[gf3.direction_family(direction)]
    omega4 = frame.orbit(4)
    inside4 = [ln for ln in lines if ln <= omega4]
    if args.json:
        out = {
            "ijk": s,
            "family": family,
            "line_count": len(lines),
            "lines_inside_weight4_orbit": len(inside4),
            "lines": [_line_json(frame, ln) for ln in lines],
        }
        print(_JSON.encode(out))
        return 0
    print(f"spread {s} ({family} family): {len(lines)} lines, "
          f"{len(inside4)} inside the weight-4 orbit")
    for ln in lines:
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
            "plane_kind": t[0].plane.kind,
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
        print(_JSON.encode(out))
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
    cert = denizens.structural_certificate(den)
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
        print(_JSON.encode(out))
        return 0
    print(f"denizen {den.ident}: {kind}")
    print(f"    lines {cert['lines']}, per point {cert['per_point']}, "
          f"span rank {cert['span_rank']}")
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
        raise ValueError(
            f"denizen {den.ident} has kind {den.kind}; sections need a Segre")
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
        print(_JSON.encode(out))
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
        print(_JSON.encode({"caps": rows}))
        return 0
    for r in rows:
        print(f"plane {{{', '.join(r['plane'])}}}: 9-cap with "
              f"{r['translates']} translates")
        for pj in r["cap"]:
            print(f"    {_fmt_point(frame, pj['mask'])}")
    return 0


# ── command line ─────────────────────────────────────────────────────────

#: each subcommand's function name, help and options as (spelling, kind,
#: help).  A kind is "flag", "value", "required" (a value that must be
#: given), "int", "repeat" (repeatable) or its choices, the first the default.
_JSON_OPT = ("--json", "flag", "print the result as JSON")
COMMANDS = {
    "verify-all": ("cmd_verify", "run every certificate", [
        ("--report FILE", "value", "write a JSON report"),
        # still parsed, since perfbench/run.py passes it; it selects nothing
        ("--jobs N", "int", "accepted and ignored: certificates run sequentially"),
        ("--perturb", "flag", "deliberately break one rotation (negative control)"),
        ("--only NAME", "repeat", "run only the named certificate (repeatable)")]),
    "orbits": ("cmd_orbits", "the four line-weight orbits", [_JSON_OPT]),
    "invariants": ("cmd_invariants", "orbit value table of the invariant polynomials", [
        _JSON_OPT, ("--emit-anf", "flag", "print the polynomials term by term")]),
    "spreads": ("cmd_spreads", "one of the eight line spreads", [
        _JSON_OPT, ("--ijk NNN", "required", "spread index, three digits from {1,2}")]),
    "triplets": ("cmd_triplets", "the 40 denizen triplets", [_JSON_OPT]),
    "denizen": ("cmd_denizen", "inspect one denizen", [
        _JSON_OPT,
        ("--plane XXXX", "required", "plane functional, four digits from {0,1,2}"),
        ("--shift {0,1,2}", ("0", "1", "2"), "which of the plane's three denizens")]),
    "sections": ("cmd_sections", "the 13 sections of a Segre denizen", [
        _JSON_OPT, ("--segre PLANE:SHIFT", "required", "denizen id, e.g. 1111:0")]),
    "caps": ("cmd_caps", "the eight 9-caps on the quadric", [_JSON_OPT]),
}


def _usage(command, error="") -> None:
    """Print the usage and help and exit 0, or the usage and `error` and exit 2."""
    opts = COMMANDS[command][2] if command in COMMANDS else []
    words = [s if kind == "required" else f"[{s}]" for s, kind, _ in opts]
    head = f"{command} [-h]" if opts else f"[-h] {{{','.join(COMMANDS)}}} ..."
    usage = " ".join([f"usage: tetradgeom {head}", *words])
    if error:
        print(usage, f"tetradgeom: error: {error}", sep="\n", file=sys.stderr)
        raise SystemExit(2)
    rows = [(s, text) for s, _, text in opts] or [
        (name, text) for name, (_, text, _) in COMMANDS.items()]
    print(usage, *(f"  {left:<21}{text}" for left, text in rows), sep="\n")
    raise SystemExit(0)


def _parse(argv) -> SimpleNamespace:
    """`argv` as its command and one attribute per option of that command."""
    command, *words = argv or [""]
    if {"-h", "--help"} & {command, *words}:
        _usage(command)
    if command not in COMMANDS:
        _usage(command, f"invalid choice: {command!r}" if command else "no command")
    kinds = {s.split()[0]: kind for s, kind, _ in COMMANDS[command][2]}
    values = {name: False if kind == "flag" else kind[0] if type(kind) is tuple
              else None for name, kind in kinds.items()}
    words = iter(words)
    for word in words:
        name, eq, value = word.partition("=")
        kind = kinds.get(name)
        if kind is None or kind == "flag" and eq:
            _usage(command, f"unrecognized argument: {word}")
        if kind == "flag":
            value = True
        elif not eq:
            value = next(words, "-")  # a missing value reads as an option does
            if value.startswith("-"):
                _usage(command, f"argument {name}: expected one argument")
        if kind == "int" and not value.isdecimal():
            _usage(command, f"argument {name}: invalid int value: {value!r}")
        if type(kind) is tuple and value not in kind:
            _usage(command, f"argument {name}: invalid choice: {value!r}")
        values[name] = (values[name] or []) + [value] if kind == "repeat" else value
    for name, kind in kinds.items():
        if kind == "required" and values[name] is None:
            _usage(command, f"the following arguments are required: {name}")
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv=None) -> int:
    """Run one subcommand and return its exit code (see the module
    docstring).  With `argv` None, as the `tetradgeom` console script and
    `python -m tetradgeom` call it, the command is the process's own, and
    everything still alive is frozen once it returns; a caller that passes
    `argv` runs in a process that goes on, and nothing is frozen."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # looked up here, so that a `cmd_*` rebound after import is the one run
        code = globals()[COMMANDS[args.command][0]](args)
    except (ValueError, OSError) as e:
        print(str(e), file=sys.stderr)
        code = 2
    if argv is None:
        # Shutdown's collections would walk every live object only for the
        # process to end; frozen ones are skipped, so an `orbits` process
        # exits in 2.5 ms, not 8.8 (Python 3.11, Linux).  atexit still runs.
        gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the command-line interface and the JSON report format."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from conftest import records, symplectic_product, without_timings

from tetradgeom import anf, certificates, cli, denizens, gf2, gf3
from tetradgeom.certificates import (
    CheckFailed,
    Context,
    check_form,
    check_frame,
    check_stabilizer,
    run_certificates,
)
from tetradgeom.cli import main
from tetradgeom.gf2 import (
    E,
    IDENTITY,
    columns,
    compose,
    linmap,
    linmap_power,
    point_str,
    quadric_value,
    table,
    xor_shift,
)
from tetradgeom.tetrad import Frame, build_frame, pair_index

REPORT_KEYS = {"name", "claim", "status", "witness", "elapsed_ms"}
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REPORT = ROOT / "perfbench" / "golden" / "verify-report.json"
GOLDEN_QUERIES = ROOT / "perfbench" / "golden" / "queries.json"
# `verify-all --perturb --report` without its elapsed_ms fields
PERTURBED_REPORT = ROOT / "tests" / "fixtures" / "perturb-report.json"
# the sha256 of each golden query's text output, per subcommand: its argv
# minus `--json` -> digest
QUERY_TEXT = ROOT / "tests" / "fixtures" / "query-text.json"
# every child process finds the package through one absolute path, from
# whatever directory the suite runs in
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(*args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "tetradgeom", *args],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_verify_all_process(tmp_path):
    report_file = tmp_path / "report.json"
    proc = run_cli("verify-all", "--report", str(report_file), "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    assert "passed 19/19 certificates" in proc.stdout
    assert proc.stdout.count("PASS") == 19
    report = json.loads(report_file.read_text())
    assert isinstance(report, list)
    assert len(report) == 19
    for entry in report:
        assert set(entry) == REPORT_KEYS
        assert entry["status"] == "pass"
        assert isinstance(entry["elapsed_ms"], (int, float))
        assert isinstance(entry["witness"], dict)
        assert entry["claim"]
    names = [entry["name"] for entry in report]
    assert len(set(names)) == 19
    assert names[0] == "frame-wellformed"
    # the report round-trips byte-for-byte through a parse/re-serialize
    text = report_file.read_text()
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == text
    # apart from the timings, the report under `--jobs 2`, which selects
    # nothing, is the golden one
    assert without_timings(report) == GOLDEN_REPORT.read_text()


# the two ways a process runs the CLI as its own command: `python -m
# tetradgeom`, and the console script, which calls main() and exits with it
ENTRY_POINTS = {
    "python -m": "runpy.run_module('tetradgeom', run_name='__main__')",
    "console script": "from tetradgeom.cli import main; sys.exit(main())",
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_only_a_process_run_freezes(entry):
    code = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        "sys.argv[1:] = ['orbits', '--json']; " + ENTRY_POINTS[entry]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"
    # a caller that passes argv goes on running, and nothing is frozen
    assert main(["orbits", "--json"]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("args", [["verify-all"], ["orbits", "--json"]])
def test_peak_rss_is_written_after_a_frozen_exit(tmp_path, args):
    # perfbench/peak.py writes the figure from an atexit handler
    rss = tmp_path / "rss"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "peak.py"), str(rss), *args],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(rss.read_text()) > 0


DEV_MODE = ("-X", "dev", "-W", "error")


def test_verify_all_dev_mode_process(tmp_path):
    # nothing relies on the shutdown collections that a frozen exit skips
    report_file = tmp_path / "report.json"
    proc = run_cli("verify-all", "--report", str(report_file), flags=DEV_MODE)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(report_file.read_text())
    assert without_timings(report) == GOLDEN_REPORT.read_text()


def test_sections_dev_mode_process():
    argv = "sections --segre 1111:0 --json"
    proc = run_cli(*argv.split(), flags=DEV_MODE)
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = json.loads(GOLDEN_QUERIES.read_text())["sections"][argv]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_witnesses_are_json_safe(ctx):
    certs = run_certificates(ctx)
    for c in certs:
        assert json.loads(json.dumps(c.witness)) == c.witness, c.name
    # the sequential in-process report matches the golden one too
    assert without_timings([c._asdict() for c in certs]) == (
        GOLDEN_REPORT.read_text()
    )


def test_runner_rejects_a_json_unsafe_witness(ctx, monkeypatch):
    # a linear map is bytes, which JSON cannot carry
    stub = ("stub", "a claim", lambda ctx: {"order": 1, "map": IDENTITY})
    monkeypatch.setattr(certificates, "CHECKS", [stub])
    [cert] = run_certificates(ctx)
    assert cert.status == "fail"
    assert cert.witness == {
        "message": "witness field 'map' is not JSON-safe",
        "key": "map",
    }


@pytest.fixture(scope="module")
def perturbed_ctx():
    return Context(build_frame(perturb=True))


# where each certificate breaks under --perturb: zeta_a neither normalizes
# the diagonal group nor fixes the tetrad lines, and the labels it induces
# break the orbit values, the solid pair of the first weight-4 point, the
# first triplet and triplet pair, the first C2 perp, a 3-generator section
# and the first cap
PERTURBED_WHERE = {
    "gf3-taxonomy": {"generator": "zeta_a"},
    "stabilizer-group": {"generator": "zeta_a"},
    "invariant-polynomials": {"orbit": 1},
    "generator-solids": {"point": "1234"},
    "denizen-classification": {"ident": "0001:0"},
    "c2-rogue-structure": {"ident": "0011:0"},
    "sections": {
        "ident": "1111:0",
        "direction": ["0012", "1101", "1110", "1122"],
    },
    "fans-troikas": {"ident": "1111:0", "centre": "12"},
    "tetrad-recovery": {"ident": "1111:0"},
    "enneads": {"pair": ["0001:0", "0010:0"]},
    "nine-caps": {"plane": ["0111", "1012", "1120", "1201"]},
}


@pytest.mark.parametrize("name", PERTURBED_WHERE)
def test_non_normalizing_generator_is_named(perturbed_ctx, name):
    [cert] = run_certificates(perturbed_ctx, names={name})
    assert cert.status == "fail"
    assert "error" not in cert.witness
    assert cert.witness["message"]
    for field, where in PERTURBED_WHERE[name].items():
        assert cert.witness[field] == where


def test_perturbed_report_is_pinned(perturbed_ctx):
    certs = run_certificates(perturbed_ctx)
    assert sum(c.status == "fail" for c in certs) == 16
    assert without_timings([c._asdict() for c in certs]) == (
        PERTURBED_REPORT.read_text()
    )


#: the artifacts a Context declares, each built once and cached by name
ARTIFACTS = (
    "g81", "invariants", "quadric_points", "solids", "system_tags",
    "stabilizer", "spreads", "triplets", "segres", "fan_triplets",
)


def test_context_declares_each_artifact_under_its_own_name():
    declared = {
        name: attr.name
        for name, attr in vars(Context).items()
        if isinstance(attr, certificates._artifact)
    }
    assert declared == {name: name for name in ARTIFACTS}
    # read off the class, an artifact is its declaration
    assert all(getattr(Context, name) is vars(Context)[name] for name in ARTIFACTS)


def test_an_artifact_is_built_once_by_repeated_readers(frame, monkeypatch):
    calls = []

    def build(fr):
        calls.append(fr)
        return object()

    monkeypatch.setattr(certificates, "build_group81", build)
    ctx = Context(frame)
    got = [ctx.g81 for _ in range(4)]
    assert all(g is got[0] for g in got)
    assert calls == [frame]
    assert ctx._cache == {"g81": got[0]}


def test_each_artifact_declares_the_checks_that_read_it(frame, monkeypatch):
    # a check reads an artifact directly or through another artifact's
    # build; every read goes through `_get`
    reads, builds, entries = set(), Counter(), []
    current = []
    get = Context._get

    def recorded(self, name, builder):
        reads.add((current[-1], name))

        def build():
            builds[name] += 1
            return builder()

        return get(self, name, build)

    def entered(name, fn):
        def run(ctx):
            current.append(name)
            entries.append((name, set(ctx._cache)))
            return fn(ctx)

        return run

    checks = certificates.CHECKS
    monkeypatch.setattr(Context, "_get", recorded)
    monkeypatch.setattr(certificates, "CHECKS",
                        [(n, claim, entered(n, fn)) for n, claim, fn in checks])
    ctx = Context(frame)
    assert all(c.status == "pass" for c in run_certificates(ctx))
    for name in ARTIFACTS:
        got = {check for check, art in reads if art == name}
        assert got == getattr(Context, name).readers, name
    # each built once, so none was dropped before its last reader ...
    assert builds == dict.fromkeys(ARTIFACTS, 1)
    # ... and each dropped once no check still to run reads it
    for i, (name, cached) in enumerate(entries):
        left = {n for n, _ in entries[i:]}
        assert all(getattr(Context, art).readers & left for art in cached), name
    assert ctx._cache == {}


def test_a_run_drops_every_artifact_after_its_last_reader(frame):
    ctx = Context(frame)
    full = {c.name: c._replace(elapsed_ms=0) for c in run_certificates(ctx)}
    assert ctx._cache == {}
    # a subset releases by the same rule, and reads the same record
    [cert] = run_certificates(ctx, names={"generator-solids"})
    assert ctx._cache == {}
    assert cert._replace(elapsed_ms=0) == full["generator-solids"]


def bind_everywhere(monkeypatch, original, mutant):
    """Bind `mutant` under every name that binds `original` in a loaded
    tetradgeom module, as `from .gf2 import ...` copies the binding, or in
    a class of one, where a method is bound."""
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "tetradgeom"]
    spaces = mods + [v for m in mods for v in vars(m).values() if isinstance(v, type)]
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if value is original:
                monkeypatch.setattr(space, attr, mutant)


def reversed_table(f, table=gf2.table):
    """Bit x holds f(255 - x)."""
    return int(f"{table(f):0256b}"[::-1], 2)


def without_least_point(points, mask=gf2.mask):
    m = mask(points)
    return m & (m - 1)


def coset_without_least_point(frame, vectors, shift=gf3.ZERO,
                              coset_mask=Frame.coset_mask):
    m = coset_mask(frame, vectors, shift)
    return m & (m - 1)


FORMS_FLIPPED = tuple(
    form ^ (z == gf2.UNIT) << E[0] for z, form in enumerate(gf2.FORMS)
)


# each mutant of the table format, and the certificates it fails
TABLE_MUTANTS = {
    "coord3-flipped": (
        gf2.COORDS, (*gf2.COORDS[:3], gf2.COORDS[3] ^ 1 << 9, *gf2.COORDS[4:]),
        {"symplectic-form", "invariant-polynomials"},
    ),
    "table-reversed": (
        gf2.table, reversed_table, {"symplectic-form", "invariant-polynomials"},
    ),
    # a point set's table loses its least point, while the denizens are
    # `coset_mask` tables: the weight-4 orbit's table no longer matches the
    # triplets or the ennead images, nor a C2 perp's the denizen's, and the
    # spread lines' tables no longer cover the points or the orbit
    "mask-short": (
        gf2.mask, without_least_point,
        {"invariant-polynomials", "spreads", "orbit4-lines", "generator-solids",
         "denizen-classification", "c2-rogue-structure", "enneads", "nine-caps"},
    ),
    # every denizen, fan, ennead image and cap translate is a `coset_mask`
    # table
    "coset-short": (
        Frame.coset_mask, coset_without_least_point,
        {"denizen-classification", "c2-rogue-structure", "fans-troikas",
         "tetrad-recovery", "enneads", "nine-caps"},
    ),
    # `perp` starts from FULL, so it loses the point 255 = U_0000 and no
    # longer recovers the C2 denizens through it; the spread lines cover a
    # point that the table of the 255 points lacks
    "full-short": (
        gf2.FULL, gf2.FULL >> 1,
        {"symplectic-form", "spreads", "c2-rogue-structure"},
    ),
    # B(e_1, u) flipped, a value no other certificate reads: only the
    # polarization step, against Q evaluated pointwise, finds it
    "forms-flipped": (gf2.FORMS, FORMS_FLIPPED, {"symplectic-form"}),
}


@pytest.mark.parametrize("mutant", TABLE_MUTANTS)
def test_a_table_mutant_fails_a_certificate(frame, monkeypatch, mutant):
    original, replacement, fails = TABLE_MUTANTS[mutant]
    bind_everywhere(monkeypatch, original, replacement)
    failed = [c for c in run_certificates(Context(frame)) if c.status == "fail"]
    assert {c.name for c in failed} == fails
    assert not any("error" in c.witness for c in failed)


def quadric_plus_x1(x, quadric_value=gf2.quadric_value):
    """Q + x_1: Q's degree-2 part, with linear part 0xFE."""
    return quadric_value(x) ^ x & 1


def test_a_quadric_with_another_linear_part_is_found(frame, monkeypatch):
    # Q + x_1 vanishes at the tetrad point e_1, so its zeros are no union
    # of orbits.  The forms that share its degree-2 part are those that
    # share Q's, so the scan still leaves the one of linear part 0xFF;
    # what fails is that Q's own linear part is no longer that one
    bind_everywhere(monkeypatch, gf2.quadric_value, quadric_plus_x1)
    certs = {c.name: c for c in run_certificates(Context(frame))}
    failed = {name for name, c in certs.items() if c.status == "fail"}
    assert failed == {"quadric-pointset", "quadric-uniqueness",
                      "invariant-polynomials", "stabilizer-group",
                      "generator-solids", "nine-caps"}
    assert not any("error" in certs[name].witness for name in failed)
    assert certs["quadric-uniqueness"].witness == {
        "message": "uniqueness filter did not leave exactly the adopted form",
        "survivors": [0xFF],
        "adopted": 0xFE,
    }


def test_a_flipped_form_table_is_located(monkeypatch):
    bind_everywhere(monkeypatch, gf2.FORMS, FORMS_FLIPPED)
    with pytest.raises(CheckFailed) as exc:
        check_form(None)
    assert str(exc.value) == "polarization identity fails"
    assert exc.value.data == {"x": E[0], "y": gf2.UNIT}


def test_partition_failures_are_located():
    partition, mask = certificates._partition, gf2.mask
    whole = mask({1, 2, 3})
    partition([mask({1}), mask({2, 3})], whole, "overlap", "cover", at=0)
    with pytest.raises(CheckFailed) as exc:
        partition([mask({1, 2}), mask({2, 3})], whole, "overlap", "cover", at=1)
    assert (str(exc.value), exc.value.data) == ("overlap", {"at": 1})
    with pytest.raises(CheckFailed) as exc:
        partition([mask({1}), mask({3})], whole, "overlap", "cover", at=2)
    assert (str(exc.value), exc.value.data) == ("cover", {"at": 2})


def test_c2_lines_spanning_no_pair_flat_are_located(ctx, monkeypatch):
    # give denizen 0011:0 a tetrad line as its C2 line: its triplet's lines
    # then span no tetrad-pair 3-flat, and the witness names the triplet
    c2_line = denizens.c2_line

    def rogue(frame, den):
        return frame.lines[0] if den.ident == "0011:0" else c2_line(frame, den)

    monkeypatch.setattr(denizens, "c2_line", rogue)
    [cert] = run_certificates(ctx, names={"c2-rogue-structure"})
    assert cert.status == "fail"
    assert cert.witness == {
        "message": "C2 lines span no tetrad-pair 3-flat",
        "ident": "0011:0",
    }


@pytest.mark.parametrize("source, target, monomial, message, indices", [
    # x1 x2 x3 x8 leaves the expansion, which then misses it from the sextic
    ("cross4", None, 0b10000111,
     "flat-indicator sextic differs from the symmetric-sum expansion",
     [1, 2, 3, 8]),
    # the sum is unchanged, so only the degree-6 guard sees the move
    ("pair6", "pair5", 0b11100111,
     "degree-6 part of q6 is not the four complement monomials",
     [1, 2, 3, 6, 7, 8]),
])
def test_a_moved_sextic_monomial_is_located(frame, monkeypatch, source,
                                            target, monomial, message, indices):
    # the monomial, a table bit, leaves part `source` and joins `target`
    symmetric_parts = anf.symmetric_parts

    def moved():
        parts = symmetric_parts()
        parts[source] ^= 1 << monomial
        if target:
            parts[target] ^= 1 << monomial
        return parts

    monkeypatch.setattr(anf, "symmetric_parts", moved)
    [cert] = run_certificates(Context(frame), names={"invariant-polynomials"})
    assert cert.status == "fail"
    assert cert.witness == {"message": message, "monomials": [indices]}


def test_xor_shift_is_the_translated_table():
    table = sum(quadric_value(x) << x for x in range(256))
    for z in range(256):
        shifted = xor_shift(table, z)
        assert shifted >> 256 == 0
        for x in range(256):
            assert shifted >> x & 1 == quadric_value(x ^ z)


#: a point of weight 3, so flipping Q there leaves the Gram entries alone
FLIPPED = E[0] ^ E[1] ^ E[2]


def flipped_q(x):
    return quadric_value(x) ^ (x == FLIPPED)


def flipped_polarization(x, y):
    return flipped_q(x ^ y) ^ flipped_q(x) ^ flipped_q(y)


def form_tables(form) -> tuple:
    """The 256 tables x -> form(x, z), a stand-in for `gf2.FORMS`."""
    return tuple(table(lambda x, z=z: form(x, z)) for z in range(256))


def test_form_check_finds_a_broken_polarization(monkeypatch):
    monkeypatch.setattr(certificates, "quadric_value", flipped_q)
    with pytest.raises(CheckFailed) as exc:
        check_form(None)
    assert str(exc.value) == "polarization identity fails"
    x, y = exc.value.data["x"], exc.value.data["y"]
    assert set(exc.value.data) == {"x", "y"}
    assert flipped_polarization(x, y) != symplectic_product(x, y)


def test_form_check_finds_forms_that_polarize_another_quadric(monkeypatch):
    # B' polarizes the flipped Q, but the check's Q is the true one
    monkeypatch.setattr(certificates, "FORMS", form_tables(flipped_polarization))
    with pytest.raises(CheckFailed) as exc:
        check_form(None)
    assert str(exc.value) == "polarization identity fails"
    x, y = exc.value.data["x"], exc.value.data["y"]
    assert set(exc.value.data) == {"x", "y"}
    assert flipped_polarization(x, y) != symplectic_product(x, y)


def test_form_check_finds_a_nonlinear_form(monkeypatch):
    # B' is the polarization of the flipped Q, so that identity holds, and
    # B' is still alternating with the same Gram matrix, but not bilinear
    monkeypatch.setattr(certificates, "quadric_value", flipped_q)
    monkeypatch.setattr(certificates, "FORMS", form_tables(flipped_polarization))
    with pytest.raises(CheckFailed) as exc:
        check_form(None)
    assert str(exc.value) == "form is not linear"
    x, z = exc.value.data["x"], exc.value.data["z"]
    assert set(exc.value.data) == {"x", "z"}
    by_coords = 0
    for i, e in enumerate(E):
        by_coords ^= x >> i & flipped_polarization(e, z)
    assert flipped_polarization(x, z) != by_coords


def test_form_check_rejects_a_degenerate_form_at_the_gram_step(monkeypatch):
    # dropping the (4,5) pair leaves an alternating bilinear form with e4
    # and e5 in its radical; its Gram matrix is not the standard one, which
    # is why the check needs no separate degeneracy step
    def without_45(x, y):
        return symplectic_product(x, y) ^ (x >> 3 & y >> 4 ^ x >> 4 & y >> 3) & 1

    monkeypatch.setattr(certificates, "FORMS", form_tables(without_45))
    with pytest.raises(CheckFailed) as exc:
        check_form(None)
    assert str(exc.value) == "Gram entry (4,5) wrong"


def stand_ins(ctx, first, last) -> tuple:
    """The stabilizer listing with its least non-diagonal records traded
    for the `columns` of the crafted maps `first` and `last`, packed before
    and after the rest; returned with the records traded away."""
    first, last = [columns(m) for m in first], [columns(m) for m in last]
    maps = records(ctx.stabilizer)
    assert not set(first + last) & set(maps)
    diagonal = set(map(columns, ctx.g81))
    victims = sorted(g for g in maps if g not in diagonal)[:len(first + last)]
    rest = [g for g in maps if g not in victims]
    elements = b"".join(first + rest + last)
    assert len(elements) == 31104 * 8 and len(set(records(elements))) == 31104
    return elements, victims


def movers_at_both_ends(listing) -> bytes:
    """The listing with two records g for which g(e1 + e2) lacks e1's or
    e2's coordinate moved to its ends, the first such record first and the
    last one last.  Both violate Q read through either stand-in below, so a
    count that lost an end record of the packing would come up short; the
    order and distinctness steps do not depend on record order."""
    maps = records(listing)
    movers = [i for i, g in enumerate(maps) if (g[0] ^ g[1]) & 3 != 3]
    ends = movers[0], movers[-1]
    rest = [g for i, g in enumerate(maps) if i not in ends]
    return b"".join([maps[ends[0]], *rest, maps[ends[1]]])


def quadric_violations(ctx, monkeypatch, bent):
    """check_stabilizer's failure with Q read through `bent`, on the
    stabilizer listing with a violating record at each end."""
    elements = movers_at_both_ends(ctx.stabilizer)
    monkeypatch.setattr(certificates, "build_stabilizer", lambda: elements)
    monkeypatch.setattr(certificates, "quadric_value", bent)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "some element moves the quadric"
    return exc.value.data


def test_quadric_violations_are_counted(ctx, monkeypatch):
    # a map that moves Q also leaves the tetrad, and the tetrad sweep runs
    # first, so Q's table is bent instead: the singular point 3 = e1 + e2
    # read as non-singular.  Every element keeps Q, so (g, v) is a violation
    # exactly when one of v and gv is 3.  Of the 36 vectors of weight 1 and
    # 2, the 8 e_i and the 4 e_i + e_(9-i) are tetrad points (orbit 1) and
    # the other 24, 3 among them, lie in orbit 2, of 54 points.  So 31104 /
    # 54 = 576 elements send each vector of orbit 2 to each point of it:
    # v = 3 counts 576 * 53 elements and each of the other 23 counts 576,
    # 576 * (53 + 23) = 43776 in all
    f = ctx.frame
    low = {v for v in range(1, 256) if v.bit_count() <= 2}
    assert (len(low & f.orbit(1)), len(low & f.orbit(2)), len(f.orbit(2))) == (
        12, 24, 54,
    )
    assert quadric_violations(ctx, monkeypatch,
                              lambda v: v == 3 or quadric_value(v)) == {
        "violations": 43776,
    }


def test_a_quadratic_change_of_the_quadric_is_counted(ctx, monkeypatch):
    # Q + x1 x2, a quadratic form that differs from Q at the 64 vectors
    # containing e1 + e2; 4 of them lie in orbit 2 (the coordinates on the
    # lines e3 e6 and e4 e5 zero, those of e7 and e8 free), none in orbit 1.
    # Of the 24 vectors of weight 2 in orbit 2 only v = 3 is among those 4,
    # so by the count above v = 3 counts 576 * (54 - 4) elements and each
    # of the other 23 counts 576 * 4: 576 * (50 + 92) = 81792 in all
    assert len({w for w in ctx.frame.orbit(2) if w & 3 == 3}) == 4
    assert quadric_violations(ctx, monkeypatch,
                              lambda v: quadric_value(v) ^ (v & 3 == 3)) == {
        "violations": 81792,
    }


def test_the_quadric_step_reads_the_vectors_of_weight_1_and_2(ctx, monkeypatch):
    read = []

    def recorded(listing, images=certificates.images):
        image = images(listing)
        return lambda v: read.append(v) or image(v)

    monkeypatch.setattr(certificates, "images", recorded)
    check_stabilizer(ctx)
    # each of the 36 once
    assert sorted(read) == [v for v in range(1, 256) if v.bit_count() <= 2]


def test_the_polar_form_is_certified_before_the_stabilizer_relies_on_it():
    # the quadric step reads Q on the 36 vectors of weight 1 and 2 only,
    # which fixes Q o g because Q polarizes to B: that is symplectic-form's
    # certificate, so it must run first
    names = [name for name, _, _ in certificates.CHECKS]
    assert names.index("symplectic-form") < names.index("stabilizer-group")


def test_a_repeated_record_lowers_the_order(ctx, monkeypatch):
    # the last record replaced by a copy of the first: the listing keeps
    # its 31104 records, but only 31103 distinct maps
    maps = records(ctx.stabilizer)
    elements = b"".join(maps[:-1] + maps[:1])
    assert len(elements) == len(ctx.stabilizer)
    monkeypatch.setattr(certificates, "build_stabilizer", lambda: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "stabilizer order wrong"
    assert exc.value.data == {"order": 31103}


def test_a_dropped_diagonal_record_is_named(ctx, monkeypatch):
    # A_0121 traded for a record off the tetrad (e1 -> e1 + e2 leaves line
    # a's pair): still 31104 distinct records, but the tetrad sweep runs
    # before membership is asked, so it is the sweep that objects
    dropped = columns(ctx.g81[gf3.trit_from_str("0121")])
    stand_in = columns(linmap({1: E[0] ^ E[1]}))
    elements = b"".join(stand_in if g == dropped else g
                        for g in records(ctx.stabilizer))
    monkeypatch.setattr(certificates, "build_stabilizer", lambda: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "some element does not fix the tetrad lines"
    assert exc.value.data == {"violations": 1}


def test_an_odd_diagonal_record_is_looked_up_raw(ctx, monkeypatch):
    # the identity of the diagonal group traded for a map whose line-a
    # pair is off the tetrad: it does not fix the tetrad, so it is no
    # element of the real listing, and membership names it
    odd_map = linmap({1: E[0] ^ E[1]})
    monkeypatch.setattr(certificates, "build_group81",
                        lambda frame: (odd_map, *ctx.g81[1:]))
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "diagonal map missing from stabilizer"
    assert exc.value.data == {"sigma": "0000"}


def test_the_listing_is_read_through_the_pair_index_once(ctx, monkeypatch):
    calls = []

    def counted(listing, read=certificates.pair_index):
        calls.append(len(listing))
        return read(listing)

    monkeypatch.setattr(certificates, "pair_index", counted)
    check_stabilizer(ctx)
    # the ten generators' packing, the 248 832-byte listing once, then
    # G81's packing: one reader of the pair codes for all three
    assert calls == [8 * 10, len(ctx.stabilizer), 8 * 81]


def test_the_stabilizer_check_peaks_under_a_megabyte_and_a_quarter(ctx):
    # the listing is read as four pair-code strings and a 24^4-byte table
    # of marks, never as 31104 ints in a set (about 3.2 MiB at its peak)
    ctx.stabilizer, ctx.g81  # built outside the bound
    tracemalloc.start()
    try:
        check_stabilizer(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_the_ennead_check_peaks_under_a_quarter_megabyte(ctx):
    # one meet's nine coset images live at a time, not all 130 meets'
    ctx.triplets  # built outside the bound
    tracemalloc.start()
    try:
        certificates.check_enneads(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def test_swapped_system_tags_break_the_parity_sweep(ctx, monkeypatch):
    # swap the tags of one solid from each system: both systems keep 135
    # solids, so only the sweep over all pairs can object
    tags = list(ctx.system_tags)
    a, b = tags.index(0), tags.index(1)
    assert (a, b, tags[2]) == (0, 1, 1)
    tags[a], tags[b] = 1, 0
    monkeypatch.setattr(certificates.quadric, "system_tags", lambda s: tuple(tags))
    with pytest.raises(CheckFailed) as exc:
        certificates.check_solids(Context(ctx.frame))
    assert str(exc.value) == "parity relation is not the two-class equivalence"
    # solid 0 now shares a tag with every solid of the other system but
    # solid 1, which moved too: solid 2 is the least that disagrees
    assert exc.value.data == {"pair": [0, 2]}


def test_swapped_end_tags_break_the_parity_sweep(ctx, monkeypatch):
    # the first and the last solid, bits 0 and 269 of the sweep's masks,
    # trade their tags: the first solid's row and the last solid's column
    # are the ones that must object
    tags = list(ctx.system_tags)
    assert (tags[0], tags[-1]) == (0, 1)
    tags[0], tags[-1] = tags[-1], tags[0]
    monkeypatch.setattr(certificates.quadric, "system_tags", lambda s: tuple(tags))
    with pytest.raises(CheckFailed) as exc:
        certificates.check_solids(Context(ctx.frame))
    assert str(exc.value) == "parity relation is not the two-class equivalence"
    # the first solid's row objects already at solid 1, of the other system
    assert tags[1] == 1
    assert exc.value.data == {"pair": [0, 1]}


def test_a_solid_that_is_not_a_flat_is_rejected(ctx, monkeypatch):
    # trade one point of a solid for a quadric point outside it: still 15
    # singular points, but no longer closed under XOR
    solids = list(ctx.solids)
    s = solids[0]
    outside = min(ctx.quadric_points - s)
    solids[0] = s - {min(s)} | {outside}
    monkeypatch.setattr(certificates.quadric, "singular_solids", lambda qp: solids)
    with pytest.raises(CheckFailed) as exc:
        certificates.check_solids(Context(ctx.frame))
    assert str(exc.value) == "solid is not a 3-flat"
    assert exc.value.data == {"solid": 0}


def test_a_solid_off_the_quadric_is_located(ctx, monkeypatch):
    # the last solid trades its least point for e1, a tetrad point: still
    # 15 points, one of them off the quadric, and the first 269 solids pass
    solids = list(ctx.solids)
    s = solids[-1]
    assert E[0] not in ctx.quadric_points
    solids[-1] = s - {min(s)} | {E[0]}
    monkeypatch.setattr(certificates.quadric, "singular_solids", lambda qp: solids)
    with pytest.raises(CheckFailed) as exc:
        certificates.check_solids(Context(ctx.frame))
    assert str(exc.value) == "solid is not 15 singular points"
    assert exc.value.data == {"solid": 269}


def transvection(v):
    """x -> x + B(x, v) v, which preserves Q when Q(v) = 1."""
    return linmap({i + 1: e ^ v for i, e in enumerate(E) if symplectic_product(e, v)})


def test_maps_outside_the_tetrad_stabilizer_are_found(ctx, monkeypatch):
    # two stand-ins that preserve Q and move a tetrad point (e8 and e1
    # respectively) off its line; the order stays 31104 and the quadric
    # sweep passes, so only the sweep of every element against the tetrad
    # lines can object.  They go first and last, so the sweep's packing is
    # tested at both ends
    first, last = transvection(E[0] ^ E[1] ^ E[2]), transvection(E[5] ^ E[6] ^ E[7])
    assert first[E[7]] == 0x87 and last[E[0]] == 0xE1
    points = ctx.quadric_points
    assert all(
        quadric_value(g[p]) == 0 for g in (first, last) for p in points
    )
    elements, _ = stand_ins(ctx, [first], [last])
    monkeypatch.setattr(certificates, "build_stabilizer", lambda: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "some element does not fix the tetrad lines"
    assert exc.value.data == {"violations": 2}


def test_tetrad_sweep_counts_every_kind_of_non_fixing_map(ctx, monkeypatch):
    # the tetrad sweep runs before the order count and the quadric sweep,
    # so it alone judges four stand-ins that leave the tetrad each in its
    # own way
    crafted = [
        linmap({8: E[0]}),  # both basis vectors of L_a onto one point
        linmap({1: 0}),  # a basis vector onto zero
        linmap({1: E[1], 2: E[0]}),  # half of L_a onto L_b
        linmap({2: E[0], 7: E[7]}),  # L_b onto L_a, so L_b is never hit
    ]
    assert 0b1111 not in pair_index(b"".join(map(columns, crafted)))[0]
    elements, _ = stand_ins(ctx, crafted[:2], crafted[2:])
    monkeypatch.setattr(certificates, "build_stabilizer", lambda: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "some element does not fix the tetrad lines"
    assert exc.value.data == {"violations": 4}


def test_perturbed_stabilizer_fails_before_any_closure(monkeypatch):
    # the perturbed zeta_a moves e1 off every tetrad line; the check stops
    # there, so no closure ever runs on maps outside the stabilizer
    def no_closure(gens):
        raise AssertionError("mulclose reached")

    monkeypatch.setattr(certificates, "mulclose", no_closure)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(build_frame(perturb=True)))
    assert str(exc.value) == "generator does not fix the tetrad lines"
    assert exc.value.data == {"generator": "zeta_a"}


def test_a_factor_outside_the_generated_group_is_found(ctx, monkeypatch):
    # shuffles listed with one map too many: <swap_ab, cycle_abcd> has 24
    shuffles = (*certificates.line_shuffles(), linmap({1: E[1], 2: E[0]}))
    monkeypatch.setattr(certificates, "line_shuffles", lambda: shuffles)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == (
        "a factor of the stabilizer is not generated by its generators"
    )
    assert exc.value.data == {"factor": "shuffles"}


def test_a_listing_in_the_wrong_column_order_is_found(frame, monkeypatch):
    # records that list the images of e_8..e_1: reversing the coordinates
    # maps the tetrad and Q onto themselves, so the listing still has
    # 31104 distinct maps fixing both; only reading a record back can
    # object
    def reversed_columns(m):
        return bytes(m[e] for e in reversed(E))

    bind_everywhere(monkeypatch, gf2.columns, reversed_columns)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(frame))
    assert str(exc.value) == "packed record is not the images of e_1..e_8"
    assert exc.value.data == {"sigma": "0000"}


def test_a_wrong_induced_matrix_is_found(ctx, monkeypatch):
    # phi_g taken as the identity for every generator: right for the
    # rotations, which commute with the diagonal maps, wrong for swap_a,
    # which inverts zeta_a
    monkeypatch.setattr(certificates, "induced_matrix", lambda g, g81: gf3.BASIS)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "conjugation by swap_a is not the induced linear map"
    assert exc.value.data == {"sigma": "1000"}


def test_a_swapped_ennead_point_is_found(ctx, monkeypatch):
    # one point traded between two cells of the first pair: still nine
    # cells of nine points partitioning the orbit, but not cosets
    first = ctx.triplets[0], ctx.triplets[1]
    original = denizens.ennead

    def swapped(t1, t2):
        cells = list(original(t1, t2))
        if (t1, t2) == first:
            # the least point of each cell, as a one-bit mask
            a, b = cells[0] & -cells[0], cells[1] & -cells[1]
            cells[0] ^= a | b
            cells[1] ^= a | b
        return tuple(cells)

    monkeypatch.setattr(certificates.denizens, "ennead", swapped)
    with pytest.raises(CheckFailed) as exc:
        certificates.check_enneads(ctx)
    assert str(exc.value) == "ennead cell is not a coset of the intersection"
    assert exc.value.data == {}


def test_an_ennead_with_a_repeated_cell_is_found(ctx, monkeypatch):
    # ten cells, the first twice: as a set they are still the nine cosets
    original = denizens.ennead

    def repeated(t1, t2):
        cells = original(t1, t2)
        return cells + cells[:1]

    monkeypatch.setattr(certificates.denizens, "ennead", repeated)
    with pytest.raises(CheckFailed) as exc:
        certificates.check_enneads(ctx)
    assert str(exc.value) == "ennead does not have nine cells"


def test_a_wrong_coset_image_is_found(ctx, monkeypatch):
    # the first pair's meet at shift zero, one of the nine images its
    # table is built from, comes back as another of its cosets: the nine
    # images then overlap and cannot label the orbit
    t1, t2 = ctx.triplets[0], ctx.triplets[1]
    meet = t1[0].plane.vectors & t2[0].plane.vectors
    other = min(v for v in gf3.ALL81 if v not in meet)
    original = Frame.coset_mask

    def skewed(self, vectors, shift=gf3.ZERO):
        if vectors == meet and shift == gf3.ZERO:
            shift = other
        return original(self, vectors, shift)

    monkeypatch.setattr(Frame, "coset_mask", skewed)
    [cert] = run_certificates(ctx, names={"enneads"})
    assert cert.status == "fail"
    assert cert.witness == {
        "message": "ennead cells overlap",
        "pair": ["0001:0", "0010:0"],
    }


def mutated_first_ennead(ctx, monkeypatch, mutate):
    """Run the ennead check with the first pair's cells passed through
    `mutate`, and return its failure."""
    first = ctx.triplets[0], ctx.triplets[1]
    original = denizens.ennead

    def mutated(t1, t2):
        cells = original(t1, t2)
        return mutate(list(cells)) if (t1, t2) == first else cells

    monkeypatch.setattr(certificates.denizens, "ennead", mutated)
    with pytest.raises(CheckFailed) as exc:
        certificates.check_enneads(ctx)
    return exc.value


def test_an_ennead_cell_of_eight_points_is_found(ctx, monkeypatch):
    def short(cells):
        cells[4] &= cells[4] - 1  # without its least point
        return cells

    failure = mutated_first_ennead(ctx, monkeypatch, short)
    assert str(failure) == "ennead cell size wrong"
    assert failure.data == {}


def test_an_ennead_with_a_cell_in_place_of_another_is_found(ctx, monkeypatch):
    # nine cells, each a coset, but the last is the first again
    def doubled(cells):
        cells[8] = cells[0]
        return cells

    failure = mutated_first_ennead(ctx, monkeypatch, doubled)
    assert str(failure) == "ennead cells overlap"
    assert failure.data == {"pair": ["0001:0", "0010:0"]}


def traced_counts(tmp_path, *only):
    """Call counts of a ``verify-all`` run of the named certificates in
    the benchmark's traced child, which counts calls under their traced
    names, so this also fails if one of those names stops resolving."""
    result = tmp_path / "result.json"
    only_args = [arg for name in only for arg in ("--only", name)]
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", str(result), "traced",
         "verify-all", *only_args],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(result.read_text())
    return data["calls"], data["distinct"]


def test_traced_fan_work_is_done_once(tmp_path):
    calls, distinct = traced_counts(tmp_path, "fans-troikas", "tetrad-recovery")
    assert calls["denizens.fan_triplets"] == 24
    assert distinct["denizens.fan_triplets"] == 24
    # each of the 144 distinct fans lies in two Segre denizens and is
    # decomposed on its first sight only
    assert calls["denizens.fan_decompose"] == 144
    assert distinct["denizens.fan_decompose"] == 144


def test_tetrad_recovery_decomposes_no_fan(tmp_path):
    calls, _ = traced_counts(tmp_path, "tetrad-recovery")
    assert calls["denizens.fan_triplets"] == 24
    assert calls.get("denizens.fan_decompose", 0) == 0


def test_traced_section_subspaces_are_built_once(tmp_path):
    # a plane's subspaces are built on their first read and kept: the
    # sections and transversal checks read only the 8 Segre planes', the
    # taxonomy reads all 40, and neither builds any of them twice
    calls, distinct = traced_counts(tmp_path, "sections")
    assert calls["gf3.plane_subspaces"] == distinct["gf3.plane_subspaces"] == 8
    calls, distinct = traced_counts(tmp_path, "gf3-taxonomy")
    assert calls["gf3.plane_subspaces"] == distinct["gf3.plane_subspaces"] == 40


def test_verify_all_imports_only_the_standard_library():
    code = (
        "import sys; from tetradgeom.cli import main; "
        "rc = main(['verify-all', '--only', 'stabilizer-group']); "
        "assert 'numpy' not in sys.modules; "
        "assert 'dataclasses' not in sys.modules; "
        "assert 'argparse' not in sys.modules; "
        "assert 'gettext' not in sys.modules; sys.exit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS stabilizer-group" in proc.stdout


def test_sequential_runs_do_not_import_the_thread_pool(tmp_path):
    report_file = tmp_path / "report.json"
    code = (
        "import sys; from tetradgeom.cli import main; "
        "rc = main(['verify-all', '--only', 'stabilizer-group']); "
        "assert 'concurrent.futures' not in sys.modules; "
        f"rc |= main(['verify-all', '--jobs', '2', '--report', {str(report_file)!r}]); "
        "assert 'concurrent.futures' not in sys.modules; "
        "rc |= main(['sections', '--segre', '1111:0', '--json']); "
        "assert 'concurrent.futures' not in sys.modules; sys.exit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS stabilizer-group" in proc.stdout
    # `--jobs 2` still parses, and the run is the sequential one
    report = json.loads(report_file.read_text())
    assert without_timings(report) == GOLDEN_REPORT.read_text()


# the first benchmarked invocation of each query subcommand
QUERIES = {
    sub: next(iter(argvs)).split()
    for sub, argvs in json.loads(GOLDEN_QUERIES.read_text()).items()
}
# what no query process loads, and what `orbits` leaves out besides
NEVER_IN_QUERIES = {
    "tetradgeom.certificates", "concurrent.futures", "dataclasses",
    "argparse", "gettext",
}
NOT_IN_ORBITS = {
    "tetradgeom.anf", "tetradgeom.denizens", "tetradgeom.quadric",
    "tetradgeom.spreads",
}


def loaded_modules(code: str) -> set:
    """The modules a fresh process has loaded after running `code`."""
    code += "\nimport sys; print(' '.join(sys.modules), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("query", QUERIES)
def test_queries_load_only_what_they_print(query):
    argv = QUERIES[query]
    loaded = loaded_modules(
        f"from tetradgeom.cli import main\nassert main({argv!r}) == 0"
    )
    assert "tetradgeom.cli" in loaded
    assert not loaded & NEVER_IN_QUERIES
    if query == "orbits":
        assert not loaded & NOT_IN_ORBITS


def test_the_setup_probe_loads_only_the_frame():
    loaded = loaded_modules("import tetradgeom.cli as c; c.build_frame()")
    assert not loaded & (NEVER_IN_QUERIES | NOT_IN_ORBITS)


def test_a_fan_that_fails_to_decompose_is_named(frame, monkeypatch):
    decompose = denizens.fan_decompose

    def failing(frame, fan):
        if fan >> 0xFF & 1:
            raise ValueError("fan must split into exactly three troikas")
        return decompose(frame, fan)

    monkeypatch.setattr(denizens, "fan_decompose", failing)
    fans, recovery = run_certificates(
        Context(frame), names={"fans-troikas", "tetrad-recovery"}
    )
    assert (fans.status, recovery.status) == ("fail", "pass")
    assert fans.witness == {
        "message": "fan must split into exactly three troikas",
        "ident": "1111:0",
    }


def test_a_centre_line_off_the_tetrad_is_named(frame, monkeypatch):
    # one fan swapped between the first two triplets: each fan still
    # decomposes onto a tetrad point, but the first triplet's three
    # centres are no tetrad line
    build = denizens.fan_triplets

    def skewed(frame, den):
        (a0, *a), (b0, *b), *rest = build(frame, den)
        return ((b0, *a), (a0, *b), *rest)

    monkeypatch.setattr(denizens, "fan_triplets", skewed)
    [cert] = run_certificates(Context(frame), names={"fans-troikas"})
    assert cert.witness == {
        "message": "centre line of a fan triplet is not a tetrad line",
        "ident": "1111:0",
    }


def drop_least_point(fts):
    (fan, *fans), *rest = fts
    return ((fan & fan - 1, *fans), *rest)


def add_a_point_to_four_fans(fts):
    # the tetrad point 0x01 lies on no denizen; put in one fan of each
    # triplet, it is in four fans like every other point, but a 28th point
    extra = 1 << 0x01
    return tuple((ft[0] | extra, *ft[1:]) for ft in fts)


def put_a_point_in_every_fan(fts):
    # 12 fans, binary 1100: the count's low three bits read as four
    fan = fts[0][0]
    least = fan & -fan
    return tuple(tuple(f | least for f in ft) for ft in fts)


@pytest.mark.parametrize(
    "edit", [drop_least_point, add_a_point_to_four_fans, put_a_point_in_every_fan]
)
def test_a_point_not_in_four_fans_is_named(frame, monkeypatch, edit):
    build = denizens.fan_triplets
    monkeypatch.setattr(denizens, "fan_triplets", lambda f, d: edit(build(f, d)))
    # an edited fan's centre, the XOR of its points, moves with it, so
    # the recovered lines object first
    [cert] = run_certificates(Context(frame), names={"tetrad-recovery"})
    assert cert.witness == {
        "message": "recovered lines differ from the tetrad",
        "ident": "1111:0",
    }
    # with the recovery pinned to the tetrad, the fan count objects
    lines = frozenset(frame.lines)
    monkeypatch.setattr(denizens, "recover_tetrad", lambda fts: lines)
    [cert] = run_certificates(Context(frame), names={"tetrad-recovery"})
    assert cert.witness == {
        "message": "points are not in exactly four fans each",
        "ident": "1111:0",
    }


def test_a_one_family_split_of_segre_planes_is_counted(ctx, monkeypatch):
    # every direction read as even: each vertex-free plane is still pure,
    # but all eight fall in one family
    monkeypatch.setattr(gf3, "direction_family", lambda v: 0)
    [cert] = run_certificates(ctx, names={"gf3-taxonomy"})
    assert cert.status == "fail"
    assert cert.witness == {
        "message": "family split of Segre planes wrong",
        "families": {"0": 8},
    }


def test_merged_conjugation_orbits_are_located(ctx, monkeypatch):
    # the first two plane orbits, the 4 coordinate planes (kind 3) and the
    # 12 planes through two vertices (kind 2), read as one orbit
    partition = certificates.subspace_orbit_partition

    def merged(mats, spaces):
        first, second, *rest = partition(mats, spaces)
        return [first | second, *rest]

    monkeypatch.setattr(certificates, "subspace_orbit_partition", merged)
    [cert] = run_certificates(ctx, names={"gf3-taxonomy"})
    assert cert.status == "fail"
    assert cert.witness == {
        "message": "plane conjugation orbits differ from vertex-count classes",
        "kind": 2,
        "orbit_sizes": [8, 16, 16],
    }


def test_a_plane_whose_subspaces_fail_is_named(ctx, monkeypatch):
    # fresh planes, so that no line table is already kept on them
    planes = tuple(gf3.Plane(*pl) for pl in gf3.all_planes())
    broken = gf3.plane_from_functional(gf3.trit_from_str("1111"))
    build = gf3.plane_subspaces

    def failing(pl):
        if pl == broken:
            raise ValueError("expected 13 subspaces, found 12")
        return build(pl)

    monkeypatch.setattr(gf3, "all_planes", lambda: planes)
    monkeypatch.setattr(gf3, "plane_subspaces", failing)
    [cert] = run_certificates(ctx, names={"gf3-taxonomy"})
    assert cert.status == "fail"
    assert cert.witness == {
        "message": "expected 13 subspaces, found 12",
        "plane": gf3.point_strs(broken),
    }


def test_a_line_of_five_points_is_named(ctx, monkeypatch):
    # fresh planes, so that their line tables are read off the listing below
    planes = tuple(gf3.Plane(*pl) for pl in gf3.all_planes())
    lines = list(gf3.all_lines())
    ln = lines[7]
    extra = next(p for p in gf3.all_points() if p not in ln.points)
    lines[7] = five = ln._replace(points=ln.points + (extra,))
    monkeypatch.setattr(gf3, "all_planes", lambda: planes)
    monkeypatch.setattr(gf3, "all_lines", lambda: tuple(lines))
    [cert] = run_certificates(ctx, names={"gf3-taxonomy"})
    assert cert.witness == {
        "message": "line has wrong point count",
        "line": gf3.point_strs(five),
    }


def test_a_line_on_the_wrong_number_of_planes_is_named(ctx, monkeypatch):
    # one plane's 13-line table swaps one of its lines for a line outside
    # it: the line it drops lies on 3 planes, the line it takes on 5
    planes = tuple(gf3.Plane(*pl) for pl in gf3.all_planes())
    broken = planes[0]
    lines = gf3.all_lines()
    dropped = gf3.plane_subspaces(broken)[0]
    taken = next(ln for ln in lines if not ln.vectors <= broken.vectors)
    build = gf3.plane_subspaces

    def swapped(pl):
        subs = build(pl)
        return (taken, *subs[1:]) if pl == broken else subs

    monkeypatch.setattr(gf3, "all_planes", lambda: planes)
    monkeypatch.setattr(gf3, "plane_subspaces", swapped)
    [cert] = run_certificates(ctx, names={"gf3-taxonomy"})
    first = min(dropped, taken, key=lines.index)
    assert cert.witness == {
        "message": "line lies on wrong number of planes",
        "line": gf3.point_strs(first),
        "planes": 3 if first == dropped else 5,
    }


def test_a_point_pair_on_two_lines_is_named(ctx, monkeypatch):
    # two disjoint lines trade their last points: every line keeps four
    # points on four planes and every point its 13 lines, but pairs across
    # the trade now lie on two lines or on none
    planes = tuple(gf3.Plane(*pl) for pl in gf3.all_planes())
    lines = list(gf3.all_lines())
    j = next(j for j, ln in enumerate(lines) if not {*ln.points} & {*lines[0].points})
    (*a, d), (*b, h) = lines[0].points, lines[j].points
    lines[0] = lines[0]._replace(points=tuple(sorted((*a, h))))
    lines[j] = lines[j]._replace(points=tuple(sorted((*b, d))))
    now = Counter(pair for ln in lines for pair in combinations(ln.points, 2))
    broken = [pair for pair in combinations(gf3.all_points(), 2) if now[pair] != 1]
    monkeypatch.setattr(gf3, "all_planes", lambda: planes)
    monkeypatch.setattr(gf3, "all_lines", lambda: tuple(lines))
    [cert] = run_certificates(ctx, names={"gf3-taxonomy"})
    assert cert.witness == {
        "message": "point pair not on a unique line",
        "pair": [gf3.trit_str(p) for p in broken[0]],
    }


def frame_with_line(index, line):
    """A new frame whose `index`-th line is replaced by `line`."""
    frame = build_frame()
    lines = list(frame.lines)
    lines[index] = frozenset(line)
    frame.lines = tuple(lines)
    return frame


def test_a_line_of_four_points_is_named():
    frame = frame_with_line(0, {0x01, 0x02, 0x80, 0x81})
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame))
    assert str(exc.value) == "line does not have 3 points"
    assert exc.value.data == {"line": ["1", "2", "8", "18"]}


def test_a_line_meeting_an_earlier_line_is_named():
    # closed under XOR, but it shares e1 with L_a
    frame = frame_with_line(1, {0x01, 0x02, 0x03})
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame))
    assert str(exc.value) == "lines are not pairwise disjoint"
    assert exc.value.data == {"line": ["1", "2", "12"]}


def test_a_tetrad_short_of_the_space_is_given_its_rank():
    # L_d moved into the span of L_a, L_b and L_c, clear of their points
    frame = frame_with_line(3, {0x03, 0x05, 0x06})
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame))
    assert str(exc.value) == "tetrad does not span the space"
    assert exc.value.data == {"rank": 6}


def frame_with_rotation(index, rotation):
    """A new frame whose `index`-th rotation is replaced by `rotation`;
    its points stay those the true rotation steps through."""
    frame = build_frame()
    rotations = list(frame.rotations)
    rotations[index] = rotation
    frame.rotations = tuple(rotations)
    return frame


ZETA = build_frame().rotations


@pytest.mark.parametrize("index, rotation, message", [
    (1, linmap({2: E[6], 7: E[1]}), "rotation 1 has order != 3"),  # swap_b
    (2, IDENTITY, "rotation 2 is the identity"),
    (3, linmap_power(ZETA[3], 2), "rotation 3 does not cycle its line"),
], ids=("order", "identity", "cycle"))
def test_a_wrong_rotation_is_named(index, rotation, message):
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame_with_rotation(index, rotation)))
    assert str(exc.value) == message
    assert exc.value.data == {"rotation": index}


def test_a_rotation_moving_another_line_names_the_point():
    # zeta_a zeta_b cycles L_a as zeta_a does, and moves e2 to e2 + e7
    frame = frame_with_rotation(0, compose(ZETA[0], ZETA[1]))
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame))
    assert str(exc.value) == "rotation 0 moves a point of line 1"
    assert exc.value.data == {"point": "2"}


def test_a_unit_label_on_another_point_names_the_point():
    frame = build_frame()
    frame._point_of = (0x7F, *frame._point_of[1:])  # U_0000 is vector 0
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame))
    assert str(exc.value) == "U_0000 is not the unit point"
    assert exc.value.data == {"point": point_str(0x7F)}


def test_unlabelled_points_are_counted_as_collisions():
    # 255 index tuples for 255 points: three points left without a label
    # mean three tuples that collided
    frame = build_frame()
    for p in (0x01, 0x02, 0x03):
        del frame.label_table()[p]
    with pytest.raises(CheckFailed) as exc:
        check_frame(Context(frame))
    assert str(exc.value) == "labels are not bijective"
    assert exc.value.data == {"collisions": 3}


def test_query_outputs_match_golden(capsys):
    golden = json.loads(GOLDEN_QUERIES.read_text())
    checked = 0
    for argvs in golden.values():
        for argv, digest in argvs.items():
            assert main(argv.split()) == 0, argv
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digest, argv
            checked += 1
    assert checked == 156


def test_query_text_outputs_are_pinned(capsys):
    golden = json.loads(GOLDEN_QUERIES.read_text())
    pinned = json.loads(QUERY_TEXT.read_text())
    # the same 156 invocations as the golden, each without its --json
    assert pinned.keys() == golden.keys()
    for sub, argvs in golden.items():
        assert sorted(pinned[sub]) == sorted(
            argv.removesuffix(" --json") for argv in argvs
        )
    for argvs in pinned.values():
        for argv, digest in argvs.items():
            assert main(argv.split()) == 0, argv
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digest, argv
    assert sum(map(len, pinned.values())) == 156


def test_verify_all_perturbed_process():
    proc = run_cli("verify-all", "--perturb", "--only", "frame-wellformed")
    assert proc.returncode == 1
    assert "FAIL frame-wellformed" in proc.stdout
    assert "passed 0/1" in proc.stdout


def test_verify_all_subset(capsys):
    rc = main(["verify-all", "--only", "orbit-census", "--only", "symplectic-form"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passed 2/2 certificates" in out
    assert "PASS orbit-census" in out
    assert "PASS symplectic-form" in out


def test_verify_all_unknown_name(capsys):
    rc = main(["verify-all", "--only", "no-such-certificate"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown certificate" in err


@pytest.mark.parametrize("name", ["missing/r.json", ""],
                         ids=["missing-directory", "empty"])
def test_verify_all_unwritable_report_exits_2(tmp_path, capsys, monkeypatch,
                                              name):
    # exit code 1 means a certificate failed; a report that cannot be
    # written is an error of the invocation.  The empty path is one too,
    # not a request for no report
    monkeypatch.chdir(tmp_path)
    rc = main(["verify-all", "--only", "orbit-census", "--report", name])
    captured = capsys.readouterr()
    assert rc == 2
    # the report file is opened first, so no certificate ran
    assert "PASS" not in captured.out
    assert repr(name) in captured.err
    assert not os.listdir(tmp_path)


def test_orbits_json(capsys):
    rc = main(["orbits", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    sizes = [row["size"] for row in data["orbits"]]
    assert sizes == [12, 54, 108, 81]
    weights = [row["line_weight"] for row in data["orbits"]]
    assert weights == [1, 2, 3, 4]
    first = data["orbits"][0]["points"][0]
    assert set(first) == {"mask", "bits", "label"}


def test_invariants_json(capsys):
    rc = main(["invariants", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value_table"] == {
        "1": [1, 1, 1],
        "2": [0, 1, 0],
        "3": [1, 0, 0],
        "4": [0, 0, 0],
    }


def test_invariants_emit_anf(capsys):
    rc = main(["invariants", "--emit-anf"])
    out = capsys.readouterr().out
    assert rc == 0
    # one of the four degree-6 terms, written in the x1..x8 variables
    assert "x2x3x4x5x6x7" in out
    assert "q_lw4" in out
    assert "vanishes exactly on the line-weight-4 orbit" in out


def test_spreads_json(capsys):
    rc = main(["spreads", "--ijk", "111", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ijk"] == "111"
    assert data["family"] == "even"
    assert data["line_count"] == 85
    assert data["lines_inside_weight4_orbit"] == 27
    assert len(data["lines"]) == 85
    assert all(len(ln) == 3 for ln in data["lines"])


def test_spreads_bad_index(capsys):
    rc = main(["spreads", "--ijk", "903"])
    assert rc == 2
    assert "three digits" in capsys.readouterr().err


def test_triplets_json(capsys):
    rc = main(["triplets", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["triplets"]) == 40
    assert data["triplet_census"] == {"C1": 16, "C2": 12, "C3": 4, "segre": 8}
    assert data["denizen_census"] == {"C1": 48, "C2": 36, "C3": 12, "segre": 24}


def test_denizen_segre_json(capsys):
    rc = main(["denizen", "--plane", "1111", "--shift", "0", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ident"] == "1111:0"
    assert data["kind"] == "segre"
    assert len(data["points"]) == 27
    assert data["certificate"]["lines"] == 27
    assert len(data["recovered_tetrad"]) == 4


def test_denizen_c2_json(capsys):
    rc = main(["denizen", "--plane", "0011", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "C2"
    masks = {pj["mask"] for pj in data["perp_line"]}
    assert masks == {0x0C, 0x30, 0x3C}


def test_denizen_bad_plane(capsys):
    rc = main(["denizen", "--plane", "9999"])
    assert rc == 2
    assert capsys.readouterr().err.strip()


def test_sections_json(capsys):
    rc = main(["sections", "--segre", "1111:0", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["segre"] == "1111:0"
    assert len(data["sections"]) == 13
    assert data["census"] == {"3-generator": 6, "S2(2)": 3, "fan": 4}
    fans = [s for s in data["sections"] if s["tag"] == "fan"]
    assert all("centre" in s and len(s["troikas"]) == 3 for s in fans)


def test_sections_rejects_non_segre(capsys):
    rc = main(["sections", "--segre", "0011:0"])
    assert rc == 2
    assert "need a Segre" in capsys.readouterr().err


def test_caps_json(capsys):
    rc = main(["caps", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["caps"]) == 8
    for row in data["caps"]:
        assert len(row["cap"]) == 9
        assert row["translates"] == 9


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            pytest.param(["sections", "--segre", ident],
                         "denizen id must look like", id=ident)
            for ident in ("1111:+1", "1111: 1", "1111:0_0", "1111:-0")
        ),
        # well formed, but the zero functional names no plane
        pytest.param(["denizen", "--plane", "0000"],
                     "plane functional 0000 is zero and names no plane",
                     id="--plane 0000"),
        pytest.param(["sections", "--segre", "0000:0"],
                     "plane functional 0000 is zero and names no plane",
                     id="0000:0"),
        # each of these is an int to `int()`, but not a shift
        *(
            pytest.param(["denizen", "--plane", "1111", "--shift", shift],
                         "invalid choice", id=f"--shift {ascii(shift)}")
            for shift in ("+1", " 1", "0_1", "\u0662", "3")
        ),
    ],
)
def test_a_malformed_denizen_id_exits_2(argv, message, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser rejects a bad option itself
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["no-such-command"],
        [],
        ["spreads"],  # --ijk is required
        ["verify-all", "--report"],
        ["orbits", "--nope"],
        ["verify-all", "--jobs", "x"],
        ["orbits", "--json=1"],
        ["verify-all", "--rep", "r.json"],  # no abbreviations
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: tetradgeom ") and "tetradgeom: error: " in err


def test_an_option_may_be_joined_to_its_value(capsys):
    assert main(["sections", "--segre", "1111:0"]) == 0
    spaced = capsys.readouterr().out
    assert main(["sections", "--segre=1111:0"]) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize(
    "argv, names",
    [
        (["-h"], ["verify-all", "orbits", "invariants", "spreads", "triplets",
                  "denizen", "sections", "caps"]),
        (["denizen", "-h"], ["--json", "--plane", "--shift"]),
        (["verify-all", "--help"], ["--report", "--jobs", "--perturb", "--only"]),
    ],
)
def test_help_names_every_command_or_option(argv, names, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tetradgeom ")
    assert all(name in out.split() for name in names)


def test_main_runs_the_subcommand_bound_at_call_time(monkeypatch):
    # perfbench/spans.py times a subcommand by rebinding its module global
    # after import; main must call whatever is bound there
    calls = []
    monkeypatch.setattr(cli, "cmd_orbits", lambda args: calls.append("orbits") or 0)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append("verify") or 1)
    assert main(["orbits"]) == 0
    assert main(["verify-all"]) == 1
    assert calls == ["orbits", "verify"]

"""Tests for the command-line interface and the JSON report format."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from conftest import records, symplectic_product

from tetradgeom import certificates, denizens, gf2, gf3
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
    linmap,
    quadric_value,
    table,
    xor_shift,
)
from tetradgeom.tetrad import SENTINEL, Frame, build_frame, fixes_tetrad, pair_index

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


def without_timings(report) -> str:
    """The report minus every elapsed_ms, serialised as the CLI writes it."""
    stripped = [{k: v for k, v in e.items() if k != "elapsed_ms"} for e in report]
    return json.dumps(stripped, indent=2, sort_keys=True) + "\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tetradgeom", *args],
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
    # apart from the timings, the threaded report is the golden one
    assert without_timings(report) == GOLDEN_REPORT.read_text()


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


def test_an_artifact_is_built_once_by_concurrent_readers(frame, monkeypatch):
    calls = []

    def slow_build(fr):
        calls.append(fr)
        time.sleep(0.05)  # long enough for the second reader to arrive
        return object()

    monkeypatch.setattr(certificates, "build_group81", slow_build)
    ctx = Context(frame)
    got = []
    readers = [threading.Thread(target=lambda: got.append(ctx.g81)) for _ in range(4)]
    for r in readers:
        r.start()
    for r in readers:
        r.join(timeout=10)
        assert not r.is_alive()
    assert len(got) == 4 and all(g is got[0] for g in got)
    assert ctx.g81 is got[0]
    assert calls == [frame]
    assert ctx._cache == {"g81": got[0]}


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


def reversed_table(f, *args, table=gf2.table):
    """Bit x holds f(255 - x, *args)."""
    return int(f"{table(f, *args):0256b}"[::-1], 2)


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
    # triplets or the ennead images, nor a C2 perp's the denizen's
    "mask-short": (
        gf2.mask, without_least_point,
        {"invariant-polynomials", "generator-solids", "denizen-classification",
         "c2-rogue-structure", "enneads", "nine-caps"},
    ),
    # every denizen, fan and ennead image is a `coset_mask` table
    "coset-short": (
        Frame.coset_mask, coset_without_least_point,
        {"denizen-classification", "c2-rogue-structure", "fans-troikas",
         "tetrad-recovery", "enneads"},
    ),
    # `perp` starts from FULL, so it loses the point 255 = U_0000 and no
    # longer recovers the C2 denizens through it
    "full-short": (
        gf2.FULL, gf2.FULL >> 1, {"symplectic-form", "c2-rogue-structure"},
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


def test_a_flipped_form_table_is_located(monkeypatch):
    bind_everywhere(monkeypatch, gf2.FORMS, FORMS_FLIPPED)
    with pytest.raises(CheckFailed) as exc:
        check_form(None)
    assert str(exc.value) == "polarization identity fails"
    assert exc.value.data == {"x": E[0], "y": gf2.UNIT}


def test_partition_failures_are_located():
    partition = certificates._partition
    partition([{1}, {2, 3}], {1, 2, 3}, "overlap", "cover", at=0)
    with pytest.raises(CheckFailed) as exc:
        partition([{1, 2}, {2, 3}], {1, 2, 3}, "overlap", "cover", at=1)
    assert (str(exc.value), exc.value.data) == ("overlap", {"at": 1})
    with pytest.raises(CheckFailed) as exc:
        partition([{1}, {3}], {1, 2, 3}, "overlap", "cover", at=2)
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
    return tuple(table(form, z) for z in range(256))


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


def test_quadric_violations_are_counted(ctx, monkeypatch):
    # swap two non-diagonal elements for invertible maps that move quadric
    # points; the order stays 31104, so only the quadric sweep can object.
    # The movers go first and last, so the sweep's packing is tested at
    # both ends.
    first, last = linmap({1: E[0] ^ E[1]}), linmap({8: E[7] ^ E[2]})
    elements, victims = stand_ins(ctx, [first], [last])
    assert elements[:8] == columns(first) and elements[-8:] == columns(last)
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: elements)
    bad_ctx = Context(ctx.frame)
    # the genuine elements preserve Q, so the violations are the movers'
    points = bad_ctx.quadric_points
    expected = sum(quadric_value(g[p]) for g in (first, last) for p in points)
    assert expected > 0
    victims = [linmap(dict(enumerate(v, 1))) for v in victims]
    assert not any(quadric_value(g[p]) for g in victims for p in points)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(bad_ctx)
    assert str(exc.value) == "some element moves the quadric"
    assert exc.value.data == {"violations": expected}


def test_a_repeated_record_lowers_the_order(ctx, monkeypatch):
    # the last record replaced by a copy of the first: the listing keeps
    # its 31104 records, but only 31103 distinct maps
    maps = records(ctx.stabilizer)
    elements = b"".join(maps[:-1] + maps[:1])
    assert len(elements) == len(ctx.stabilizer)
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "stabilizer order wrong"
    assert exc.value.data == {"order": 31103}


def test_a_record_with_one_invalid_pair_is_counted_raw(ctx, monkeypatch):
    # e1 -> e1 + e2 leaves line a's pair off the tetrad, the other three
    # lines' pairs stay valid: the record is kept raw, not indexed, and
    # still counted, so the order holds and the quadric sweep objects
    odd_map = linmap({1: E[0] ^ E[1]})
    elements, _ = stand_ins(ctx, [odd_map], [])
    codes, keys, odd = pair_index(elements)
    assert codes[0][0] == 255 and max(c[0] for c in codes[1:]) < 24
    assert keys[0] == SENTINEL and max(keys[1:]) < keys[0]
    assert odd == {columns(odd_map)}
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "some element moves the quadric"
    # listed twice, the raw record counts once
    maps = records(elements)
    twice = b"".join(maps[:-1] + maps[:1])
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: twice)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "stabilizer order wrong"
    assert exc.value.data == {"order": 31103}


def test_a_dropped_diagonal_record_is_named(ctx, monkeypatch):
    # A_0121 traded for a record off the tetrad: still 31104 distinct
    # records, but one diagonal map is missing
    sigma = gf3.trit_from_str("0121")
    dropped = columns(ctx.g81[sigma])
    stand_in = columns(linmap({1: E[0] ^ E[1]}))
    elements = b"".join(stand_in if g == dropped else g
                        for g in records(ctx.stabilizer))
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "diagonal map missing from stabilizer"
    assert exc.value.data == {"sigma": "0121"}


def test_an_odd_diagonal_record_is_looked_up_raw(ctx, monkeypatch):
    # the identity of the diagonal group traded for a map whose line-a
    # pair is off the tetrad: it has no index, so membership looks it up
    # among the raw records, and finds it only when the listing has it
    odd_map = linmap({1: E[0] ^ E[1]})
    g81 = (odd_map, *ctx.g81[1:])
    monkeypatch.setattr(certificates, "build_group81", lambda frame: g81)
    listed, _ = stand_ins(ctx, [odd_map], [])
    for elements, message in (
        (ctx.stabilizer, "diagonal map missing from stabilizer"),
        (listed, "conjugation by zeta_a is not the induced linear map"),
    ):
        monkeypatch.setattr(certificates, "build_stabilizer",
                            lambda frame: elements)
        with pytest.raises(CheckFailed) as exc:
            check_stabilizer(Context(ctx.frame))
        assert str(exc.value) == message
        assert exc.value.data == {"sigma": "0000"}


def test_the_stabilizer_check_peaks_under_a_megabyte_and_a_quarter(ctx):
    # the listing is read as four pair-code strings and a 24^4-byte table
    # of marks, never as 31104 ints in a set (about 3.2 MiB at its peak)
    ctx.stabilizer, ctx.g81, ctx.quadric_points  # built outside the bound
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
    tags[a], tags[b] = 1, 0
    monkeypatch.setattr(certificates.quadric, "system_tags", lambda s: tuple(tags))
    with pytest.raises(CheckFailed) as exc:
        certificates.check_solids(Context(ctx.frame))
    assert str(exc.value) == "parity relation is not the two-class equivalence"


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


def transvection(v):
    """x -> x + B(x, v) v, which preserves Q when Q(v) = 1."""
    return linmap({i + 1: e ^ v for i, e in enumerate(E) if symplectic_product(e, v)})


def test_maps_outside_the_tetrad_stabilizer_are_found(ctx, monkeypatch):
    # as above, but the two stand-ins preserve Q and move a tetrad point
    # (e8 and e1 respectively) off its line; the order stays 31104 and the
    # quadric sweep passes, so only the sweep of every element against
    # the tetrad lines can object.  They go first and last as well
    first, last = transvection(E[0] ^ E[1] ^ E[2]), transvection(E[5] ^ E[6] ^ E[7])
    assert first[E[7]] == 0x87 and last[E[0]] == 0xE1
    points = ctx.quadric_points
    assert all(
        quadric_value(g[p]) == 0 for g in (first, last) for p in points
    )
    elements, _ = stand_ins(ctx, [first], [last])
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: elements)
    with pytest.raises(CheckFailed) as exc:
        check_stabilizer(Context(ctx.frame))
    assert str(exc.value) == "some element does not fix the tetrad lines"
    assert exc.value.data == {"violations": 2}


def test_tetrad_sweep_counts_every_kind_of_non_fixing_map(ctx, monkeypatch):
    # with no quadric points the quadric sweep passes whatever the maps,
    # so the tetrad sweep alone judges four stand-ins that fail
    # `fixes_tetrad` each in its own way
    crafted = [
        linmap({8: E[0]}),  # both basis vectors of L_a onto one point
        linmap({1: 0}),  # a basis vector onto zero
        linmap({1: E[1], 2: E[0]}),  # half of L_a onto L_b
        linmap({2: E[0], 7: E[7]}),  # L_b onto L_a, so L_b is never hit
    ]
    assert not any(fixes_tetrad(m) for m in crafted)
    elements, _ = stand_ins(ctx, crafted[:2], crafted[2:])
    monkeypatch.setattr(certificates, "build_stabilizer", lambda frame: elements)
    monkeypatch.setattr(certificates.quadric, "build_quadric", frozenset)
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
    # 31104 distinct maps fixing both, and the membership step packs both
    # of its sides the same way; only reading a record back can object
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

    def swapped(frame, t1, t2):
        cells = list(original(frame, t1, t2))
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

    def repeated(frame, t1, t2):
        cells = original(frame, t1, t2)
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

    def mutated(frame, t1, t2):
        cells = original(frame, t1, t2)
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
        "assert 'dataclasses' not in sys.modules; sys.exit(rc)"
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


def test_sequential_runs_do_not_import_the_thread_pool():
    code = (
        "import sys; from tetradgeom.cli import main; "
        "rc = main(['verify-all', '--only', 'stabilizer-group']); "
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


# the first benchmarked invocation of each query subcommand
QUERIES = {
    sub: next(iter(argvs)).split()
    for sub, argvs in json.loads(GOLDEN_QUERIES.read_text()).items()
}
# what no query process loads, and what `orbits` leaves out besides
NEVER_IN_QUERIES = {
    "tetradgeom.certificates", "concurrent.futures", "dataclasses",
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
    # each fan still decomposes onto a tetrad point; only the triplet's
    # centre line is wrong
    build = denizens.fan_triplets

    def skewed(frame, den):
        fts = build(frame, den)
        wrong = frozenset({0x81, 0x42, 0xC3})
        return (fts[0]._replace(centre_line=wrong), *fts[1:])

    monkeypatch.setattr(denizens, "fan_triplets", skewed)
    [cert] = run_certificates(Context(frame), names={"fans-troikas"})
    assert cert.witness == {
        "message": "centre line of a fan triplet is not a tetrad line",
        "ident": "1111:0",
    }


def test_a_plane_whose_subspaces_fail_is_named(ctx, monkeypatch):
    # fresh planes, so that no line table is already kept on them
    planes = tuple(
        gf3.Plane(pl.functional, pl.points, pl.vectors) for pl in gf3.all_planes()
    )
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
    planes = tuple(
        gf3.Plane(pl.functional, pl.points, pl.vectors) for pl in gf3.all_planes()
    )
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
    planes = tuple(
        gf3.Plane(pl.functional, pl.points, pl.vectors) for pl in gf3.all_planes()
    )
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
    planes = tuple(
        gf3.Plane(pl.functional, pl.points, pl.vectors) for pl in gf3.all_planes()
    )
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


def test_verify_all_unwritable_report_exits_2(tmp_path, capsys):
    # exit code 1 means a certificate failed; a report that cannot be
    # written is an error of the invocation
    path = tmp_path / "missing" / "r.json"
    rc = main(["verify-all", "--only", "orbit-census", "--report", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    # the report file is opened first, so no certificate ran
    assert "PASS" not in captured.out
    assert str(path) in captured.err
    assert not path.exists()


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
        # each of these is an int to `int()`, but not a shift
        *(
            pytest.param(["denizen", "--plane", "1111", "--shift", shift],
                         "invalid choice", id=f"--shift {ascii(shift)}")
            for shift in ("+1", " 1", "0_1", "\u0662")
        ),
    ],
)
def test_a_malformed_denizen_id_exits_2(argv, message, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad option itself
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2

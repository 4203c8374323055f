"""The record types: immutable, and equal and hashed by value.

That reading `Plane.subspaces` moves neither equality nor hash is
`test_gf3.py::test_plane_subspaces_are_built_on_first_read_and_kept`."""

import pytest

from tetradgeom import anf, denizens, gf3
from tetradgeom.certificates import Certificate
from tetradgeom.tetrad import build_frame


def fresh_planes():
    """All 40 planes built anew, not read from the cached listing."""
    return gf3.all_planes.__wrapped__()


def fresh_segre():
    """The first Segre denizen, built on a new frame from a new plane."""
    frame = build_frame()
    plane = next(pl for pl in fresh_planes() if pl.kind == 0)
    return denizens.triplet_from_plane(frame, plane)[0]


def records():
    """(record, its field names, a fresh rebuild or None) for every type,
    each as a test parameter named by the type."""
    frame = build_frame()
    ln = gf3.all_lines()[0]
    pl = gf3.all_planes()[0]
    segre = fresh_segre()
    cases = [
        (ln, ("points", "vectors", "kind"), gf3.line_through(*ln.points[:2])),
        (pl, ("functional", "points", "vectors", "kind"), fresh_planes()[0]),
        (
            segre,
            ("plane", "shift", "shift_index", "points", "kind"),
            fresh_segre(),
        ),
        (anf.build_invariants(frame), ("q2", "q4", "q6", "q_lw4"), None),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


RECORDS = records()


@pytest.mark.parametrize("record, fields, _", RECORDS)
def test_fields_cannot_be_assigned(record, fields, _):
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


@pytest.mark.parametrize(
    "record, _, rebuilt", [r for r in RECORDS if r.values[2] is not None]
)
def test_a_rebuild_is_equal_and_hashes_equal(record, _, rebuilt):
    assert rebuilt is not record
    assert rebuilt == record and hash(rebuilt) == hash(record)


def test_a_certificate_is_immutable_and_dumps_its_fields():
    cert = Certificate("c", "a claim", "pass", {"n": 1}, 0.5)
    with pytest.raises(AttributeError):
        cert.status = "fail"
    assert cert._asdict() == {
        "name": "c", "claim": "a claim", "status": "pass",
        "witness": {"n": 1}, "elapsed_ms": 0.5,
    }

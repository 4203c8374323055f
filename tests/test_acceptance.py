"""The acceptance gate: twelve exact criteria, one pass/fail line each.

Every criterion is exact (tolerance zero) and delegates to the same
certificate functions the CLI runs, so `pytest tests/test_acceptance.py`
and `tetradgeom verify-all` cannot drift apart.  Each test prints a
visible ACCEPTANCE line even under pytest's output capture; a failure
re-raises the structured CheckFailed so the witness appears in the
pytest report.
"""

from contextlib import contextmanager

from tetradgeom.certificates import (
    check_c2,
    check_caps,
    check_denizens,
    check_fans,
    check_gf3,
    check_invariants,
    check_orbit4_lines,
    check_orbits,
    check_quadric_points,
    check_quadric_unique,
    check_recovery,
    check_sections,
    check_solids,
    check_spreads,
    check_stabilizer,
    check_weights,
)


@contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {title}: PASS")


def test_01_orbit_census(ctx, capsys):
    # orbit sizes 12/54/108/81 both by the line-weight formula and as
    # actual orbits of the stabilizer generators
    with criterion(capsys, 1, "orbit-census"):
        check_orbits(ctx)


def test_02_quadric(ctx, capsys):
    # 135-point zero set = weight-2 + weight-4 orbits, all twelve tetrad
    # points external, and the uniqueness scan over 256 forms leaves one
    with criterion(capsys, 2, "quadric-and-uniqueness"):
        check_quadric_points(ctx)
        check_quadric_unique(ctx)


def test_03_stabilizer(ctx, capsys):
    # enumerated order 31104, normal diagonal subgroup, quadric preserved
    # by every element
    with criterion(capsys, 3, "stabilizer-group"):
        check_stabilizer(ctx)


def test_04_invariant_polynomials(ctx, capsys):
    # orbit value table, the sextic's zero set, the coefficient-level
    # identity with the explicit symmetric sums, and its polarization
    with criterion(capsys, 4, "invariant-polynomials"):
        check_invariants(ctx)


def test_05_spreads(ctx, capsys):
    # eight spreads of 85 lines through the tetrad; distinct-line counts
    # 8/4/2/1 per orbit
    with criterion(capsys, 5, "spreads"):
        check_spreads(ctx)


def test_06_generator_solids(ctx, capsys):
    # 270 solids in two systems of 135 under the parity relation (an
    # equivalence); each weight-4 point's solid pair meets in a plane,
    # opposite systems
    with criterion(capsys, 6, "generator-solids"):
        check_solids(ctx)


def test_07_subspace_taxonomy(ctx, capsys):
    # 40 planes in classes 8/16/12/4 and 130 lines in classes
    # 6/24/16/12/16/48/8, geometric tags = conjugation orbits
    with criterion(capsys, 7, "subspace-taxonomy"):
        check_gf3(ctx)


def test_08_denizen_classification(ctx, capsys):
    # 120 denizens split 24/48/36/12; Segre and C2/C3 structural
    # signatures; the 36 weight-2 lines with regulus pairing
    with criterion(capsys, 8, "denizen-classification"):
        check_denizens(ctx)
        check_c2(ctx)


def test_09_sections(ctx, capsys):
    # all 24 Segre denizens section as 3 grids / 6 three-generator / 4
    # fans matching the direction line kinds
    with criterion(capsys, 9, "segre-sections"):
        check_sections(ctx)


def test_10_fans_and_recovery(ctx, capsys):
    # every fan splits into three troikas with a common tetrad-line
    # centre; the four fan triplets recover the tetrad
    with criterion(capsys, 10, "fans-and-tetrad-recovery"):
        check_fans(ctx)
        check_recovery(ctx)


def test_11_caps(ctx, capsys):
    # eight 9-caps with all 36 pairwise products 1; translates partition
    # the weight-4 orbit
    with criterion(capsys, 11, "nine-caps"):
        check_caps(ctx)


def test_12_weight_lemmas(ctx, capsys):
    # orthogonality = even standard-basis Hamming distance over all 81 x 81;
    # the exact two-basis weight census; the weight-4 line criterion over
    # all 40 direction pairs
    with criterion(capsys, 12, "weight-lemmas"):
        check_weights(ctx)
        check_orbit4_lines(ctx)

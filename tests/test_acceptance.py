"""Acceptance gate.

Ten numbered criteria, each with an exactness requirement and a wall-clock
budget.  Expected values are either published reference data, frozen
derived values, or defining identities; nothing here is tuned to the
implementation.  Budgets are asserted with time.monotonic around just the
computation under test.  Criteria 03, 08, 09 and 10 read the fixture rows
of one `virlog report --json` run, made once for the module, so no fixture
is computed twice.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest

from virlog.cli import main
from virlog.errors import DomainError
from virlog.fixtures import fixture_ids
from virlog.fusion import (
    EulerOperator,
    LogSeries,
    determine_b,
    fixture_polynomial,
    fusion_indicial,
    ope_level2_coefficient,
    solve_euler,
)
from virlog.linalg import ExactMatrix
from virlog.modules import (
    JordanVermaModule,
    ModuleVector,
    basis_vector,
    check_hom_pair,
    level_basis,
    shapovalov_determinant,
    shapovalov_matrix,
    singular_vectors,
)
from virlog.polynomial import sym
from virlog.wlog import wlog_deviations, wlog_pairing

H, C, B = sym("h"), sym("c"), sym("b")


def timed(fn):
    start = time.monotonic()
    out = fn()
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def report():
    """(exit code, elapsed seconds, rows) of one `virlog report --json`."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code, elapsed = timed(lambda: main(["report", "--json"]))
    return code, elapsed, json.loads(buffer.getvalue())


def fixture_rows(report, ids):
    rows = {row["id"]: row for row in report[2]}
    return [rows[fid] for fid in ids]


def reference_diag_level3():
    return [
        [24 * H * (H + 1) * (1 + 2 * H), 36 * H * (H + 1), 24 * H],
        [36 * H * (H + 1), (H + 2) * (8 * H + C) + 18 * H, 16 * H + 2 * C],
        [24 * H, 16 * H + 2 * C, 6 * H + 2 * C],
    ]


def vector_from_coeffs(mod, level, coeffs):
    return ModuleVector(
        mod,
        level,
        {
            lab: Fraction(q)
            for lab, q in zip(level_basis(mod, level), coeffs)
            if q != 0
        },
    )


def in_span(vectors, candidate):
    labels = sorted(set(candidate.terms).union(*(set(v.terms) for v in vectors)))
    rows = [[v.terms.get(lab, Fraction(0)) for lab in labels] for v in vectors]
    rank = ExactMatrix(rows).rank()
    rows.append([candidate.terms.get(lab, Fraction(0)) for lab in labels])
    return ExactMatrix(rows).rank() == rank


def test_criterion_01_level3_matrix():
    mod = JordanVermaModule("c", "h", 2)
    got, elapsed = timed(lambda: shapovalov_matrix(mod, 3))
    s = reference_diag_level3()
    ds = [[e.derivative("h") for e in row] for row in s]
    want = ExactMatrix(
        [s[i] + ds[i] for i in range(3)]
        + [[Fraction(0)] * 3 + s[i] for i in range(3)]
    )
    assert got == want
    assert elapsed < 1.0


def test_criterion_02_level3_determinant():
    mod = JordanVermaModule("c", "h", 2)
    got, elapsed = timed(lambda: shapovalov_determinant(mod, 3))
    a = 16 * H * H + 2 * H * C - 10 * H + C
    b = 3 * H * H + H * C - 7 * H + 2 + C
    assert got == 48 * 48 * H**4 * a * a * b * b
    assert elapsed < 5.0


def test_criterion_03_square_law_levels_1_to_5(report):
    (row,) = fixture_rows(report, ["03-block-square-law"])
    assert row["status"] == "pass", row["computed"]
    assert float(row["seconds"]) < 600.0


def test_criterion_04_singular_fixtures():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    found, elapsed = timed(lambda: singular_vectors(mod, 3))
    assert elapsed < 1.0
    assert len(found) == 2
    s1 = vector_from_coeffs(mod, 3, (1, -4, 6, 0, 0, 0))
    s2 = vector_from_coeffs(mod, 3, (0, -2, 5, 1, -4, 6))
    assert in_span(found, s1)
    assert in_span(found, s2)
    certified, elapsed = timed(lambda: check_hom_pair(s1, s2))
    assert certified
    assert elapsed < 1.0

    degenerate = JordanVermaModule(Fraction(0), Fraction(0), 2)
    found, elapsed = timed(lambda: singular_vectors(degenerate, 1))
    assert found == [basis_vector(degenerate, (1,), 1)]
    assert elapsed < 1.0


def test_criterion_05_fusion_triples():
    data, elapsed = timed(
        lambda: fusion_indicial(Fraction(0), Fraction(5, 8), Fraction(5, 8))
    )
    assert data.roots == [(Fraction(0), 1), (Fraction(2), 1)]
    assert not data.logarithmic
    assert elapsed < 1.0

    data, elapsed = timed(
        lambda: fusion_indicial(Fraction(-2), Fraction(-1, 8), Fraction(-1, 8))
    )
    assert data.roots == [(Fraction(0), 2)]
    assert data.logarithmic
    assert elapsed < 1.0

    for m, n in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        data, elapsed = timed(
            lambda m=m, n=n: fusion_indicial(
                Fraction(1), Fraction(m * m, 4), Fraction(n * n, 4)
            )
        )
        want_roots = {Fraction(i * i, 4) for i in range(m - n, m + n + 1, 2)}
        assert {r for r, _ in data.roots} == want_roots
        assert all(mult == 1 for _, mult in data.roots)
        assert data.fusion.monic() == fixture_polynomial("c1", m, n)
        assert elapsed < 1.0


def test_criterion_06_euler_resonance_and_b():
    op = EulerOperator(
        {
            (0, 2): Fraction(1),
            (1, 1): Fraction(3, 2),
            (2, 0): Fraction(-15, 16),
        }
    )
    rhs = LogSeries({(Fraction(-5, 4), 0): Fraction(2, 3) * B})
    (particular, _), elapsed = timed(lambda: solve_euler(op, rhs))
    assert particular == LogSeries({(Fraction(3, 4), 1): Fraction(1, 3) * B})
    assert elapsed < 1.0

    value, elapsed = timed(lambda: determine_b(Fraction(5, 8)))
    assert value == Fraction(5, 2)
    assert elapsed < 1.0


def test_criterion_07_ope_coefficient():
    import random

    rng = random.Random(20260822)

    def sweep():
        for _ in range(20):
            c = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            if rng.random() < 0.5:
                c = -c
            h = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert ope_level2_coefficient(c, h) == 2 * h / c
        with pytest.raises(DomainError):
            ope_level2_coefficient(Fraction(0), Fraction(1))

    _, elapsed = timed(sweep)
    assert elapsed < 1.0


def test_criterion_08_property_suites(report):
    total = 0.0
    for row in fixture_rows(report, [
        "08a-virasoro-jacobi",
        "08b-module-commutator",
        "08c-density-consistency",
        "08d-singular-count-bound",
    ]):
        assert row["status"] == "pass", (row["id"], row["computed"])
        total += float(row["seconds"])
    assert total < 120.0


def test_criterion_09_wlog_suite(report):
    total = 0.0
    for row in fixture_rows(report, [
        "09a-wlog-jacobi",
        "09b-wlog-cocycle-identity",
        "09c-wlog-horizontal",
    ]):
        assert row["status"] == "pass", (row["id"], row["computed"])
        total += float(row["seconds"])

    (value, deviations), elapsed = timed(
        lambda: (wlog_pairing([(-1, -2)], [(0, -2)], "residue"), wlog_deviations(3))
    )
    total += elapsed
    # magnitude identity as a polynomial in b
    assert value == Fraction(2, 3) * B or value == Fraction(-2, 3) * B
    assert deviations, "orientation deviation report must be populated"
    assert any(e["pair"] == [[-1, 2], [0, -2]] for e in deviations)
    for entry in deviations:
        assert Fraction(entry["closed"]) == -Fraction(entry["residue"])
    assert total < 300.0


def test_criterion_10_report_end_to_end(report):
    code, elapsed, rows = report
    assert code == 0
    assert elapsed < 900.0
    assert [row["id"] for row in rows] == fixture_ids()
    assert any(row["provenance"] == "published" for row in rows)
    deviations = {row["id"] for row in rows if row["status"] == "known-deviation"}
    assert deviations == {
        "09f-wlog-orientation",
        "09g-wlog-vertical-center",
        "09h-wlog-second-pairing",
    }
    assert all(row["status"] != "fail" for row in rows)

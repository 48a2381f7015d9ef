"""Reproduction fixtures and the report runner behind `virlog report`.

Each fixture freezes an expected value with a provenance tag:

  published    printed in the source material; compared verbatim
  derived      computed once through an independent route and frozen
  definitional a defining identity (bracket laws, module axioms)

Status is pass/fail except for the fixtures tied to the known cocycle
orientation and vacuum-pairing discrepancies, which report known-deviation
when the computed value matches the recorded deviating value.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .fusion import (
    EulerOperator,
    LogSeries,
    determine_b,
    fixture_polynomial,
    fusion_indicial,
    ope_level2_coefficient,
    solve_euler,
)
from .linalg import ExactMatrix
from .modules import (
    DensityModule,
    JordanVermaModule,
    ModuleVector,
    basis_vector,
    check_hom_pair,
    density_apply,
    level_basis,
    shapovalov_determinant,
    shapovalov_matrix,
    singular_vectors,
)
from .errors import DomainError
from .polynomial import accumulate, sym
from .rational import render_rational
from .virasoro import UEAElement
from .wlog import (
    check_jacobi,
    cocycle_closed_form,
    cocycle_residue,
    wlog_bracket,
    wlog_deviations,
    wlog_pairing,
)

H = sym("h")
C = sym("c")
B = sym("b")


@dataclass
class FixtureResult:
    fixture_id: str
    provenance: str
    status: str
    expected: str
    computed: str
    seconds: float

    def to_json(self) -> dict:
        return {
            "id": self.fixture_id,
            "provenance": self.provenance,
            "status": self.status,
            "expected": self.expected,
            "computed": self.computed,
            "seconds": f"{self.seconds:.3f}",
        }


# -- frozen expected values -------------------------------------------------


def _diag_block_level3():
    rows = [
        [24 * H * (H + 1) * (1 + 2 * H), 36 * H * (H + 1), 24 * H],
        [36 * H * (H + 1), (H + 2) * (8 * H + C) + 18 * H, 16 * H + 2 * C],
        [24 * H, 16 * H + 2 * C, 6 * H + 2 * C],
    ]
    return ExactMatrix(rows)


def _expected_matrix_level3():
    s = _diag_block_level3()
    ds = [
        [s.entries[i][j].derivative("h") for j in range(3)]
        for i in range(3)
    ]
    rows = []
    for i in range(3):
        rows.append(list(s.entries[i]) + ds[i])
    for i in range(3):
        rows.append([Fraction(0)] * 3 + list(s.entries[i]))
    return ExactMatrix(rows)


def _expected_det_level3():
    a = 16 * H * H + 2 * H * C - 10 * H + C
    b = 3 * H * H + H * C - 7 * H + 2 + C
    return 48 * 48 * H**4 * a * a * b * b


PUBLISHED_SINGULAR_TOP = (1, -4, 6, 0, 0, 0)
PUBLISHED_SINGULAR_LOG = (0, -2, 5, 1, -4, 6)


def _vector_from_coeffs(mod, level, coeffs):
    terms = {
        label: Fraction(c)
        for label, c in zip(level_basis(mod, level), coeffs)
        if c != 0
    }
    return ModuleVector(mod, level, terms)


def _span_contains(vectors, candidate):
    if not vectors:
        return candidate.is_zero()
    labels = set(candidate.terms)
    for v in vectors:
        labels |= set(v.terms)
    basis = sorted(labels)
    rows = [[v.terms.get(lab, Fraction(0)) for lab in basis] for v in vectors]
    base_rank = ExactMatrix(rows).rank()
    rows.append([candidate.terms.get(lab, Fraction(0)) for lab in basis])
    return ExactMatrix(rows).rank() == base_rank


# -- fixture bodies ---------------------------------------------------------
# each returns (expected text, computed text, ok flag)


def _fx_appendix_matrix():
    mod = JordanVermaModule("c", "h", 2)
    got = shapovalov_matrix(mod, 3)
    want = _expected_matrix_level3()
    return want.render(), got.render(), got == want


def _fx_appendix_determinant():
    mod = JordanVermaModule("c", "h", 2)
    got = shapovalov_determinant(mod, 3)
    want = _expected_det_level3()
    return want.render(), got.render(), got == want


def _fx_block_square_law():
    failures = []
    for level in range(1, 6):
        plain = JordanVermaModule("c", "h", 1)
        jordan = JordanVermaModule("c", "h", 2)
        s = shapovalov_matrix(plain, level)
        s2 = shapovalov_matrix(jordan, level)
        p = s.rows
        for i in range(p):
            for j in range(p):
                if s2[(i, j)] != s[(i, j)]:
                    failures.append(f"level {level} diagonal block")
                if s2[(p + i, p + j)] != s[(i, j)]:
                    failures.append(f"level {level} repeated block")
                if s2[(p + i, j)] != 0:
                    failures.append(f"level {level} lower-left block")
                want = s[(i, j)].derivative("h")
                if s2[(i, p + j)] != want:
                    failures.append(f"level {level} derivative block")
        det = shapovalov_determinant(plain, level)
        det2 = shapovalov_determinant(jordan, level)
        if det2 != det * det:
            failures.append(f"level {level} square law")
    expected = "block [[S, dS/dh], [0, S]] and det = (det S)^2, levels 1-5"
    computed = expected if not failures else "; ".join(sorted(set(failures)))
    return expected, computed, not failures


def _fx_singular_pair_c1():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    found = singular_vectors(mod, 3)
    s1 = _vector_from_coeffs(mod, 3, PUBLISHED_SINGULAR_TOP)
    s2 = _vector_from_coeffs(mod, 3, PUBLISHED_SINGULAR_LOG)
    ok = (
        len(found) == 2
        and _span_contains(found, s1)
        and _span_contains(found, s2)
    )
    expected = "dimension 2 containing (1,-4,6,0,0,0) and (0,-2,5,1,-4,6)"
    computed = (
        f"dimension {len(found)}; top vector "
        f"{'in' if _span_contains(found, s1) else 'NOT in'} span; log vector "
        f"{'in' if _span_contains(found, s2) else 'NOT in'} span"
    )
    return expected, computed, ok


def _fx_hom_check():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    s1 = _vector_from_coeffs(mod, 3, PUBLISHED_SINGULAR_TOP)
    s2 = _vector_from_coeffs(mod, 3, PUBLISHED_SINGULAR_LOG)
    ok = check_hom_pair(s1, s2)
    return "certified", "certified" if ok else "rejected", ok


def _fx_singular_c0():
    mod = JordanVermaModule(Fraction(0), Fraction(0), 2)
    found = singular_vectors(mod, 1)
    want = [basis_vector(mod, (1,), 1)]
    return (
        "[L(-1)w1]",
        "[" + ", ".join(v.render() for v in found) + "]",
        found == want,
    )


def _fx_fusion_c0():
    data = fusion_indicial(Fraction(0), Fraction(5, 8), Fraction(5, 8))
    expected = "roots 0, 2 simple; not logarithmic"
    roots = ", ".join(
        f"{render_rational(r)}x{m}" for r, m in data.roots
    )
    computed = f"roots {roots}; logarithmic {data.logarithmic}"
    ok = data.roots == [
        (Fraction(0), 1),
        (Fraction(2), 1),
    ] and not data.logarithmic and data.residual.degree() == 0
    return expected, computed, ok


def _fx_fusion_cminus2():
    data = fusion_indicial(Fraction(-2), Fraction(-1, 8), Fraction(-1, 8))
    expected = "double root 0; logarithmic"
    roots = ", ".join(f"{render_rational(r)}x{m}" for r, m in data.roots)
    computed = f"roots {roots}; logarithmic {data.logarithmic}"
    ok = data.roots == [(Fraction(0), 2)] and data.logarithmic
    return expected, computed, ok


def _fx_fusion_c1_grid():
    failures = []
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        data = fusion_indicial(
            Fraction(1), Fraction(m * m, 4), Fraction(n * n, 4)
        )
        want = fixture_polynomial("c1", m, n)
        roots = {Fraction(i * i, 4) for i in range(m - n, m + n + 1, 2)}
        if (
            data.fusion.monic() != want
            or {r for r, _ in data.roots} != roots
            or any(mult != 1 for _, mult in data.roots)
        ):
            failures.append(f"({m},{n})")
    expected = "fusion roots {i^2/4 : i in J_mn} for (1,1),(2,1),(2,2),(3,1)"
    computed = expected if not failures else "mismatch at " + ", ".join(failures)
    return expected, computed, not failures


def _fx_euler_resonance():
    op = EulerOperator(
        {
            (0, 2): Fraction(1),
            (1, 1): Fraction(3, 2),
            (2, 0): Fraction(-15, 16),
        }
    )
    rhs = LogSeries({(Fraction(-5, 4), 0): Fraction(2, 3) * B})
    particular, _ = solve_euler(op, rhs)
    want = LogSeries({(Fraction(3, 4), 1): Fraction(1, 3) * B})
    return want.render(), particular.render(), particular == want


def _fx_determine_b():
    got = determine_b(Fraction(5, 8))
    return "5/2", render_rational(got), got == Fraction(5, 2)


def _fx_ope_coefficient():
    rng = random.Random(20260822)
    failures = []
    for _ in range(20):
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if c == 0:
            c = Fraction(1)
        h = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if ope_level2_coefficient(c, h) != 2 * h / c:
            failures.append(f"c={c} h={h}")
    try:
        ope_level2_coefficient(Fraction(0), Fraction(1))
        failures.append("no error at c=0")
    except DomainError:
        pass
    expected = "coefficient 2h/c on 20 sampled rational pairs; error at c=0"
    computed = expected if not failures else "mismatch at " + "; ".join(failures)
    return expected, computed, not failures


def _fx_virasoro_jacobi():
    bad = 0
    rng = range(-6, 7)
    gens = {m: UEAElement.generator(m) for m in rng}
    for m in rng:
        for n in rng:
            for p in rng:
                a, b, c = gens[m], gens[n], gens[p]
                total = (
                    a.bracket(b).bracket(c)
                    + b.bracket(c).bracket(a)
                    + c.bracket(a).bracket(b)
                )
                if not total.is_zero():
                    bad += 1
    expected = "Jacobi identity, all mode triples |m| <= 6"
    computed = expected if bad == 0 else f"{bad} violations"
    return expected, computed, bad == 0


def _fx_module_commutator():
    rng = random.Random(97)
    failures = 0
    for _ in range(100):
        mod = JordanVermaModule(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            rng.randint(1, 3),
        )
        level = rng.randint(0, 4)
        basis = level_basis(mod, level)
        vec = ModuleVector(
            mod,
            level,
            {rng.choice(basis): Fraction(rng.randint(1, 5))},
        )
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = vec.apply_mode(n).apply_mode(m) - vec.apply_mode(m).apply_mode(n)
        rhs = vec.apply_mode(m + n).scale(Fraction(m - n))
        if m + n == 0:
            rhs = rhs + vec.scale(Fraction(m**3 - m, 12) * mod.c_value())
        if lhs != rhs:
            failures += 1
    expected = "defining commutation relations on 100 random vectors"
    computed = expected if failures == 0 else f"{failures} failures"
    return expected, computed, failures == 0


def _fx_density_consistency():
    mod = DensityModule("lam", "mu", "beta", depth=1)
    bad = 0
    for m in range(-4, 5):
        for n in range(-4, 5):
            for r in range(-1, 2):
                for i in (0, 1):
                    e = {(r, i): Fraction(1)}
                    lhs = density_apply(mod, m, density_apply(mod, n, e))
                    rhs = density_apply(mod, n, density_apply(mod, m, e))
                    diff = accumulate(((lab, -q) for lab, q in rhs.items()), dict(lhs))
                    want = (
                        {}
                        if m == n
                        else {
                            lab: Fraction(m - n) * q
                            for lab, q in density_apply(mod, m + n, e).items()
                        }
                    )
                    if diff != want:
                        bad += 1
    expected = "Witt bracket on density modules, |m|,|n| <= 4, symbolic"
    computed = expected if bad == 0 else f"{bad} failures"
    return expected, computed, bad == 0


def _fx_singular_count_bound():
    rng = random.Random(3511)
    worst = 0
    for _ in range(200):
        mod = JordanVermaModule(
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
            2,
        )
        for level in range(1, 5):
            worst = max(worst, len(singular_vectors(mod, level)))
    expected = "at most 2 independent singular vectors per level"
    computed = f"largest count {worst}"
    return expected, computed, worst <= 2


def _fx_wlog_jacobi_uncentered():
    report = check_jacobi(3, "none")
    expected = "no violations, |i|,|m| <= 3"
    computed = (
        expected
        if not report["violations"]
        else f"{len(report['violations'])} violations"
    )
    return expected, computed, not report["violations"]


def _fx_wlog_jacobi_residue():
    # the central component of this scan is the 2-cocycle identity
    report = check_jacobi(3, "residue")
    expected = "no violations with the residue cocycle, |i|,|m| <= 3"
    computed = (
        expected
        if not report["violations"]
        else f"{len(report['violations'])} violations"
    )
    return expected, computed, not report["violations"]


def _fx_wlog_horizontal():
    bad = [
        (m, n)
        for m in range(-6, 7)
        for n in range(-6, 7)
        if cocycle_residue((0, m), (0, n)) != 0
    ]
    expected = "horizontal family centerless, |m|,|n| <= 6"
    computed = expected if not bad else f"nonzero at {bad[:3]}"
    return expected, computed, not bad


def _fx_wlog_vev_magnitude():
    got = wlog_pairing([(-1, -2)], [(0, -2)], "residue")
    ok = got == Fraction(2, 3) * B or got == Fraction(-2, 3) * B
    return "(2/3)*b up to sign", got.render(), ok


def _fx_wlog_orientation():
    closed = cocycle_closed_form((-1, 2), (0, -2))
    residue = cocycle_residue((-1, 2), (0, -2))
    deviations = wlog_deviations(3)
    # recorded deviation: the closed form is the residue with flipped sign
    ok = (
        closed == Fraction(2, 3)
        and residue == Fraction(-2, 3)
        and all(
            Fraction(e["closed"]) == -Fraction(e["residue"]) for e in deviations
        )
    )
    expected = "2/3 (printed closed-form value on the flagship pair)"
    computed = (
        f"closed {render_rational(closed)}, residue {render_rational(residue)}; "
        f"{len(deviations)} sign-flipped pairs with |i|,|m| <= 3"
    )
    return expected, computed, ok


def _fx_wlog_vertical_center():
    f = ((3, 0), (-1, 0))
    got = cocycle_residue(*f)
    # recorded deviation: the vertical family carries a nonzero cocycle
    return "0 (trivial vertical central charge)", render_rational(got), got == Fraction(1, 2)


def _fx_wlog_second_pairing():
    got = wlog_pairing([(-1, -2)], [(1, -2)], "residue")
    # recorded deviation: computes to +/- b, not 0
    ok = got == B or got == -B
    return "0", got.render(), ok


def _fx_wlog_bracket_example():
    got = wlog_bracket((-1, 2), (1, -2), "residue")
    expected = "2*t^(-1)(0) + 4*t^(0)(0) - b"
    return expected, got.render(), got.render() == expected


# -- registry ---------------------------------------------------------------

_DEVIATION_IDS = {
    "09f-wlog-orientation",
    "09g-wlog-vertical-center",
    "09h-wlog-second-pairing",
}

_REGISTRY = {
    "01-appendix-matrix": ("published", _fx_appendix_matrix),
    "02-appendix-determinant": ("published", _fx_appendix_determinant),
    "03-block-square-law": ("derived", _fx_block_square_law),
    "04a-singular-pair-c1": ("published", _fx_singular_pair_c1),
    "04b-hom-check": ("published", _fx_hom_check),
    "04c-singular-c0": ("published", _fx_singular_c0),
    "05a-fusion-c0": ("published", _fx_fusion_c0),
    "05b-fusion-cminus2": ("published", _fx_fusion_cminus2),
    "05c-fusion-c1-grid": ("published", _fx_fusion_c1_grid),
    "06a-euler-resonance": ("published", _fx_euler_resonance),
    "06b-determine-b": ("published", _fx_determine_b),
    "07-ope-coefficient": ("derived", _fx_ope_coefficient),
    "08a-virasoro-jacobi": ("definitional", _fx_virasoro_jacobi),
    "08b-module-commutator": ("definitional", _fx_module_commutator),
    "08c-density-consistency": ("definitional", _fx_density_consistency),
    "08d-singular-count-bound": ("derived", _fx_singular_count_bound),
    "09a-wlog-jacobi": ("definitional", _fx_wlog_jacobi_uncentered),
    "09b-wlog-cocycle-identity": ("definitional", _fx_wlog_jacobi_residue),
    "09c-wlog-horizontal": ("published", _fx_wlog_horizontal),
    "09d-wlog-vev-magnitude": ("published", _fx_wlog_vev_magnitude),
    "09e-wlog-bracket": ("derived", _fx_wlog_bracket_example),
    "09f-wlog-orientation": ("published", _fx_wlog_orientation),
    "09g-wlog-vertical-center": ("published", _fx_wlog_vertical_center),
    "09h-wlog-second-pairing": ("published", _fx_wlog_second_pairing),
}


def fixture_ids() -> list:
    return sorted(_REGISTRY)


def run_fixture(fixture_id: str) -> FixtureResult:
    if fixture_id not in _REGISTRY:
        raise DomainError(f"unknown fixture {fixture_id!r}")
    provenance, body = _REGISTRY[fixture_id]
    start = time.monotonic()
    expected, computed, ok = body()
    seconds = time.monotonic() - start
    if fixture_id in _DEVIATION_IDS:
        status = "known-deviation" if ok else "fail"
    else:
        status = "pass" if ok else "fail"
    return FixtureResult(fixture_id, provenance, status, expected, computed, seconds)


def run_all() -> list:
    return [run_fixture(fid) for fid in fixture_ids()]


def report_exit_code(results) -> int:
    return 2 if any(r.status == "fail" for r in results) else 0


def report_table(results) -> str:
    width = max(len(r.fixture_id) for r in results)
    lines = [
        f"{'fixture'.ljust(width)}  {'provenance':<12} {'status':<15} seconds",
        f"{'-' * width}  {'-' * 12} {'-' * 15} -------",
    ]
    for r in results:
        lines.append(
            f"{r.fixture_id.ljust(width)}  {r.provenance:<12} {r.status:<15} "
            f"{r.seconds:7.3f}"
        )
        if r.status != "pass":
            lines.append(f"{' ' * width}    expected: {r.expected}")
            lines.append(f"{' ' * width}    computed: {r.computed}")
    counts = {}
    for r in results:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(summary)
    return "\n".join(lines)

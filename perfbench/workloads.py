"""The three benchmark workloads: job lists made from a seed, job
execution, and the checks every output must pass.

A workload turns a seed into a list of Jobs (its inputs), runs one job
at a time, and afterwards checks every output.  Checks use routes that
do not share the code path under test wherever one exists
(square law with plain dict polynomials, numeric Gram determinants,
annihilation of singular vectors through ModuleVector.apply_mode, root
factorisation of fusion polynomials, vanishing cyclic sums), plus
sha256 digests of the rendered outputs frozen for the default seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

DEFAULT_SEED = 1
DIGEST_DIR = Path(__file__).resolve().parent / "digests"


@dataclass(frozen=True)
class Job:
    key: str  # stable name of the inputs; digests are stored under it
    kind: str
    args: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests(workload: str) -> dict:
    path = DIGEST_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# -- exact helpers for the checks, independent of virlog's polynomial code ----


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _poly_eval(p: dict, point: tuple) -> Fraction:
    total = Fraction(0)
    for exps, coeff in p.items():
        term = coeff
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def _poly_from_json(doc, names=("c", "h")) -> dict:
    """{(exponent of c, exponent of h): Fraction} from a MultiPoly JSON doc
    or a rational string."""
    if isinstance(doc, str):
        q = Fraction(doc)
        return {(0,) * len(names): q} if q else {}
    pos = [names.index(v) for v in doc["vars"]]
    out = {}
    for term in doc["terms"]:
        exps = [0] * len(names)
        for p, e in zip(pos, term["exps"]):
            exps[p] = e
        out[tuple(exps)] = Fraction(term["coeff"])
    return out


def _uni_parse(text: str, var: str) -> list:
    """Coefficient list (index = power) of a rendered univariate polynomial."""
    coeffs: dict = {}
    parts = re.split(r" ([+-]) ", text.strip())
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    bodies = [parts[0].lstrip("-")] + parts[2::2]
    for sign, body in zip(signs, bodies):
        if var in body:
            head, _, mono = body.rpartition("*")
            coeff = Fraction(head) if head else Fraction(1)
            power = 1 if mono == var else int(mono[len(var) + 1:])
        else:
            coeff, power = Fraction(body), 0
        coeffs[power] = coeffs.get(power, 0) + (-coeff if sign == "-" else coeff)
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def _uni_trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _uni_divmod(p: list, d: list):
    p, d = _uni_trim(p), _uni_trim(d)
    q = [Fraction(0)] * max(len(p) - len(d) + 1, 0)
    while len(p) >= len(d):
        f = p[-1] / d[-1]
        k = len(p) - len(d)
        q[k] = f
        for i, dc in enumerate(d):
            p[k + i] -= f * dc
        p = _uni_trim(p)
    return q, p


def _uni_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _uni_has_repeated_factor(p: list) -> bool:
    a, b = _uni_trim(p), _uni_trim([k * c for k, c in enumerate(p)][1:])
    while b:
        a, b = b, _uni_divmod(a, b)[1]
    return len(a) > 1


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""

    def jobs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def render(self, job: Job, out):
        """Text whose digest is frozen, or None when a check pins the
        whole output already."""
        raise NotImplementedError

    def check(self, jobs: list, outs: list, seed: int) -> dict:
        """{job index: reason} for every output that fails a check."""
        raise NotImplementedError


class SymbolicDet(Workload):
    """Shapovalov determinants over Q[c, h]; the inputs never change."""

    name = "symbolic-det"
    LEVELS = {1: range(1, 6), 2: range(1, 5)}

    def jobs(self, seed):
        from virlog import JordanVermaModule

        return [
            Job(f"det jordan={rank} level={level}", "det",
                (JordanVermaModule("c", "h", rank), level))
            for rank, levels in self.LEVELS.items()
            for level in levels
        ]

    def run(self, job):
        from virlog import shapovalov_determinant

        return shapovalov_determinant(*job.args)

    def render(self, job, out):
        return out.render()

    def check(self, jobs, outs, seed):
        from virlog import JordanVermaModule, shapovalov_matrix
        from virlog.polynomial import coeff_to_json

        bad = {}
        dets = {}
        for i, (job, out) in enumerate(zip(jobs, outs)):
            mod, level = job.args
            dets[(mod.jordan, level)] = (i, _poly_from_json(coeff_to_json(out)))
        for (rank, level), (i, det) in dets.items():
            if rank == 2 and (1, level) in dets:
                plain = dets[(1, level)][1]
                if _poly_mul(plain, plain) != det:
                    bad[i] = f"square law fails at level {level}"
        # the published appendix determinant of the rank-2 level-3 form
        a = {(0, 2): 16, (1, 1): 2, (0, 1): -10, (1, 0): 1}
        b = {(0, 2): 3, (1, 1): 1, (0, 1): -7, (0, 0): 2, (1, 0): 1}
        want = {(0, 4): Fraction(48 * 48)}
        for factor in (a, a, b, b):
            want = _poly_mul(want, {e: Fraction(v) for e, v in factor.items()})
        if (2, 3) in dets and dets[(2, 3)][1] != want:
            bad[dets[(2, 3)][0]] = "level 3 differs from the published determinant"
        # every level against the numeric Gram determinant at seeded points
        rng = random.Random(seed)
        for (rank, level), (i, det) in dets.items():
            c0 = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            h0 = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            numeric = shapovalov_matrix(JordanVermaModule(c0, h0, rank), level).determinant()
            if _poly_eval(det, (c0, h0)) != numeric:
                bad.setdefault(i, f"differs from the numeric determinant at c={c0}, h={h0}")
        return bad


def _kac(t: Fraction, r: int, s: int):
    """(c, h_{r,s}) on the Kac table with c = 13 - 6(t + 1/t)."""
    c = 13 - 6 * (t + 1 / t)
    h = Fraction(r * r - 1, 4) * t - Fraction(r * s - 1, 2) + Fraction(s * s - 1, 4) / t
    return c, h


class NumericSweep(Workload):
    """Seeded CLI jobs on fresh numeric modules, run in-process."""

    name = "numeric-sweep"
    T_VALUES = tuple(Fraction(p, q) for p, q in
                     [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3)])
    # modules per (verb, level, jordan, Kac or generic) cell; level 6 has
    # more, so that the eleventh-slowest job, job_tail_ms, falls inside the
    # dense band of level-6 jordan-3 radicals and not on a seed-dependent gap
    REPEATS = {3: 5, 4: 5, 5: 5, 6: 8}
    # fused with the degenerate fields phi_{1,2} and phi_{2,1}; see README
    FUSION_PARTNERS = ((1, 2), (2, 1))
    FUSION_KAC_JOBS = 60
    DETERMINE_B_JOBS = 10

    def jobs(self, seed):
        import virlog.cli  # noqa: F401  the front end loads during set-up

        rng = random.Random(seed)
        jobs = []

        def add(kind, argv, meta=()):
            argv = [kind] + [str(a) for a in argv] + ["--json"]
            jobs.append(Job(" ".join(argv), kind, (tuple(argv),) + tuple(meta)))

        def generic():
            return (Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)))

        for verb, jordans in (("singular", (1, 2, 3)), ("radical", (1, 2, 3)),
                              ("hom-check", (1, 2))):
            for level, repeats in self.REPEATS.items():
                labels = [(r, level // r) for r in range(1, level + 1) if level % r == 0]
                for jordan in jordans:
                    for _ in range(repeats):
                        for on_kac in (True, False):
                            if on_kac:
                                c, h = _kac(rng.choice(self.T_VALUES), *rng.choice(labels))
                            else:
                                c, h = generic()
                            add(verb, ["--c", c, "--h", h, "--level", level,
                                       "--jordan", jordan], (on_kac,))
        for m in range(1, 5):
            for n in range(1, m + 1):
                add("fusion", ["--c", 1, "--h1", Fraction(m * m, 4),
                               "--h2", Fraction(n * n, 4)], ((m, n),))
        labels = [(r, s) for r in range(1, 7) for s in range(1, 7) if 2 <= r * s <= 6]
        for _ in range(self.FUSION_KAC_JOBS):
            t = rng.choice(self.T_VALUES)
            c, h2 = _kac(t, *rng.choice(labels))
            h1 = _kac(t, *rng.choice(self.FUSION_PARTNERS))[1]
            add("fusion", ["--c", c, "--h1", h1, "--h2", h2], (None,))
        for _ in range(self.DETERMINE_B_JOBS):
            add("determine-b", ["--h", "5/8"])
        rng.shuffle(jobs)
        # one fixed heavy case, always first so that its transient memory
        # does not land on a seed-dependent memo size: rational_roots
        # enumerates the divisors of this sextic's coefficients for ~0.6 s
        t = Fraction(3)
        add("fusion", ["--c", _kac(t, 6, 1)[0], "--h1", _kac(t, 1, 3)[1],
                       "--h2", _kac(t, 6, 1)[1]], (None,))
        jobs.insert(0, jobs.pop())
        return jobs

    def run(self, job):
        from virlog.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(job.args[0]))
        return code, buf.getvalue()

    def render(self, job, out):
        return out[1]

    def check(self, jobs, outs, seed):
        bad = {}
        for i, (job, (code, text)) in enumerate(zip(jobs, outs)):
            if code != 0:
                bad[i] = f"exit code {code}"
                continue
            try:
                reason = getattr(self, "_check_" + job.kind.replace("-", "_"))(job, json.loads(text))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason:
                bad[i] = reason
        return bad

    @staticmethod
    def _module_args(job):
        argv = job.args[0]
        opt = {argv[k]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}
        return Fraction(opt["--c"]), Fraction(opt["--h"]), int(opt["--level"]), int(opt["--jordan"])

    def _check_singular(self, job, doc):
        from virlog import ModuleVector

        c, h, level, jordan = self._module_args(job)
        if job.args[1] and not doc:
            return "no singular vector at a Kac-table weight"
        weight = h + level
        for vec_doc in doc:
            vec = ModuleVector.from_json(vec_doc)
            mod = vec.module
            if (mod.c, mod.h, mod.jordan, vec.level) != (c, h, jordan, level) or vec.is_zero():
                return "vector from the wrong module or level, or zero"
            if not vec.apply_mode(1).is_zero() or not vec.apply_mode(2).is_zero():
                return "returned vector is not annihilated by L(1) and L(2)"
            nil = vec
            for _ in range(jordan):
                nil = nil.apply_mode(0) - nil.scale(weight)
            if not nil.is_zero():
                return "L(0) - (h + level) is not nilpotent of the Jordan order on a vector"
        return None

    def _check_radical(self, job, doc):
        from virlog import JordanVermaModule, level_basis

        c, h, level, jordan = self._module_args(job)
        dim = int(doc)
        size = len(level_basis(JordanVermaModule(c, h, jordan), level))
        if not 0 <= dim <= size:
            return f"radical dimension {dim} outside 0..{size}"
        if job.args[1] and jordan == 1 and dim < 1:
            return "empty radical at a Kac-table weight"
        return None

    def _check_hom_check(self, job, doc):
        jordan = self._module_args(job)[3]
        certified, found = doc["certified"], int(doc["singular-dimension"])
        if certified and (jordan != 2 or found < 2):
            return "certified without a Jordan pair of singular vectors"
        return None

    def _check_fusion(self, job, doc):
        from virlog import fixture_polynomial

        poly = _uni_parse(doc["fusion_h3"], "h3")
        rest = poly
        for root, mult in doc["roots"]:
            root, mult = Fraction(root), int(mult)
            for _ in range(mult):
                rest, rem = _uni_divmod(rest, [-root, Fraction(1)])
                if rem:
                    return f"root {root} does not have multiplicity {mult}"
            if _uni_eval(rest, root) == 0:
                return f"root {root} has multiplicity above {mult}"
        if doc["logarithmic"] != _uni_has_repeated_factor(poly):
            return "logarithmic flag disagrees with the squarefree test"
        grid = job.args[1]
        if grid is not None:
            want = fixture_polynomial("c1", *grid).coeffs
            monic = [x / poly[-1] for x in poly]
            if monic != want:
                return f"c = 1 fusion polynomial differs from the closed form at {grid}"
        return None

    def _check_determine_b(self, job, doc):
        return None if Fraction(doc) == Fraction(5, 2) else f"b = {doc}, published 5/2"


class WlogScan(Workload):
    """Jacobi scans of the logarithmic Witt and Virasoro algebras, the
    closed-vs-residue deviation list, and seeded vacuum expectations."""

    name = "wlog-scan"
    WLOG_BOUND = 2
    VIRASORO_BOUND = 6
    DEVIATION_BOUND = 3
    # words of length 5 and 6 cost up to 17 and 40 ms, spread so widely
    # that the seed alone would move job_tail_ms by a quarter, and the
    # heaviest words of length 4 still reach the fixed Jacobi jobs that set
    # it; at length 3 and below every word stays under them
    VEV_LENGTHS = range(2, 4)
    VEV_PER_LENGTH = 100

    def jobs(self, seed):
        from virlog import UEAElement, WLogElement

        gens = [(i, m) for i in range(-self.WLOG_BOUND, self.WLOG_BOUND + 1)
                for m in range(-self.WLOG_BOUND, self.WLOG_BOUND + 1)]
        jobs = [
            Job(f"wlog-jacobi {x} {y} {z}", "wlog-jacobi",
                tuple((g, WLogElement.generator(*g)) for g in (x, y, z)))
            for x, y, z in combinations_with_replacement(gens, 3)
        ]
        modes = range(-self.VIRASORO_BOUND, self.VIRASORO_BOUND + 1)
        virasoro = {m: UEAElement.generator(m) for m in modes}
        jobs += [
            Job(f"virasoro-jacobi {m} {n} {p}", "virasoro-jacobi",
                (virasoro[m], virasoro[n], virasoro[p]))
            for m in modes for n in modes for p in modes
        ]
        jobs.append(Job(f"wlog-deviations {self.DEVIATION_BOUND}", "wlog-deviations",
                        (self.DEVIATION_BOUND,)))
        rng = random.Random(seed)
        for length in self.VEV_LENGTHS:
            for _ in range(self.VEV_PER_LENGTH):
                word = self._vev_word(rng, length)
                jobs.append(Job("wlog-vev " + " ".join(f"{i}:{m}" for i, m in word),
                                "wlog-vev", (word,)))
        return jobs

    @staticmethod
    def _vev_word(rng, length):
        """Annihilators (mode 0..2) left of creators (mode -2..-1), modes
        summing to 0, so that many words pair to a nonzero value."""
        while True:
            creators = [(rng.randint(-1, 2), -rng.randint(1, 2))
                        for _ in range(rng.randint(1, length - 1))]
            keep = [(rng.randint(-1, 2), rng.randint(0, 2))
                    for _ in range(length - len(creators) - 1)]
            last = -sum(m for _, m in creators + keep)
            if 0 <= last <= 2:
                keep.append((rng.randint(-1, 2), last))
                rng.shuffle(keep)
                return tuple(keep + creators)

    def run(self, job):
        from virlog import vacuum_expectation, wlog_bracket, wlog_deviations

        if job.kind == "wlog-jacobi":
            (x, ex), (y, ey), (z, ez) = job.args
            return (
                wlog_bracket(wlog_bracket(x, y, "residue"), ez, "residue")
                + wlog_bracket(wlog_bracket(y, z, "residue"), ex, "residue")
                + wlog_bracket(wlog_bracket(z, x, "residue"), ey, "residue")
            )
        if job.kind == "virasoro-jacobi":
            a, b, c = job.args
            return a.bracket(b).bracket(c) + b.bracket(c).bracket(a) + c.bracket(a).bracket(b)
        if job.kind == "wlog-deviations":
            return wlog_deviations(*job.args)
        return vacuum_expectation(list(job.args[0]), "residue")

    def render(self, job, out):
        from virlog import serialize

        if job.kind.endswith("jacobi"):
            return None
        return serialize(out, "json")

    def check(self, jobs, outs, seed):
        from virlog.polynomial import MultiPoly

        bad = {}
        for i, (job, out) in enumerate(zip(jobs, outs)):
            if job.kind.endswith("jacobi"):
                if not out.is_zero():
                    bad[i] = "cyclic sum is not zero"
            elif job.kind == "wlog-deviations":
                if not out:
                    bad[i] = "no deviations listed"
                for row in out:
                    closed, residue = Fraction(row["closed"]), Fraction(row["residue"])
                    if closed == 0 or closed != -residue:
                        bad[i] = f"deviation at {row['pair']} is not a sign flip"
            else:
                # the residue cocycle vanishes unless a log index is
                # negative, and each power of b uses up one creator
                word = job.args[0]
                poly = out if isinstance(out, MultiPoly) else MultiPoly.const(out)
                creators = sum(1 for _, m in word if m < 0)
                if set(poly.vars) - {"b"} or poly.degree_in("b") > creators:
                    bad[i] = "expectation is not a polynomial in b of degree <= creators"
                elif min(log for log, _ in word) >= 0 and not poly.is_zero():
                    bad[i] = "nonzero expectation without a negative log index"
        return bad


WORKLOADS = {w.name: w for w in (SymbolicDet(), NumericSweep(), WlogScan())}

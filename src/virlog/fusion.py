"""Descent of singular vectors to Euler operators and what follows from
them: indicial polynomials, fusion polynomials in the third weight,
logarithmic resonance solving, and two derived structure constants.

An Euler operator here is a finite sum of monomials x^(-k) (d/dx)^j with
exact coefficients, stored as {(k, j): coeff}.  The ones coming from
singular vectors are homogeneous: every monomial has the same weight
N = k + j, so the operator maps x^s to q(s) x^(s-N) with q the indicial
polynomial.  Logarithmic terms appear exactly when the resonance exponent
hits a multiple root of q.

The indicial polynomial is multiplicative on homogeneous operators: if A
sends x^s to a(s) x^(s-n) and B sends it to b(s) x^(s-m), then A B sends it
to a(s - m) b(s) x^(s-n-m).  So fusion_indicial does not build the Euler
operator of a singular vector: descent_indicial reads q from its words, as
sums of products of linear factors in ints, and so does determine_b.
descent_operator and its indicial polynomial are the tests' reference:
descent_operator, descent_word, descent_factor, EulerOperator.compose and
falling have no other caller here, and stay until the benchmark's
fusion.descent span, which wraps descent_operator, is retargeted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError
from .modules import JordanVermaModule, ModuleVector, shapovalov_matrix, singular_vectors
from .polynomial import (
    Coeff,
    Combination,
    MultiPoly,
    UniPoly,
    accumulate,
    as_fraction,
    coeff_from_json,
    coeff_to_json,
    is_squarefree,
    rational_roots,
    render_terms,
)
from .rational import _integer, parse_rational, render_rational, require_printable


def falling(a, n: int):
    """a (a-1) ... (a-n+1) for exact scalar a."""
    out = Fraction(1)
    for t in range(n):
        out *= a - t
    return out


def _falling_poly(var: str, n: int) -> UniPoly:
    out = UniPoly.const(var, Fraction(1))
    for t in range(n):
        out = out * UniPoly(var, (Fraction(-t), Fraction(1)))
    return out


class EulerOperator(Combination):
    __slots__ = ()

    def __init__(self, terms=None):
        clean: dict = {}
        for (k, j), coeff in (terms or {}).items():
            k, j = _integer(k, "operator index k"), _integer(j, "dorder")
            if j < 0:
                raise DomainError("negative derivative order in Euler operator")
            if coeff:
                clean[(k, j)] = (
                    coeff if isinstance(coeff, MultiPoly) else Fraction(coeff)
                )
        self.terms = clean

    @classmethod
    def identity(cls) -> "EulerOperator":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, k: int, j: int, coeff=Fraction(1)) -> "EulerOperator":
        return cls({(k, j): coeff})

    def compose(self, other: "EulerOperator") -> "EulerOperator":
        """Operator product self . other (self applied last)."""
        # d^j1 x^(-k2) = sum_i C(j1,i) (-k2)(-k2-1)... x^(-k2-i) d^(j1-i)
        return self._of(accumulate(
            ((k1 + k2 + i, j1 + j2 - i), c1 * c2 * math.comb(j1, i) * fall)
            for (k1, j1), c1 in self.terms.items()
            for (k2, j2), c2 in other.terms.items()
            for i in range(j1 + 1)
            if (fall := falling(Fraction(-k2), i))
        ))

    __mul__ = compose

    def weight(self):
        """Common k + j over all monomials, or None if mixed or zero."""
        degrees = {k + j for (k, j) in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def require_homogeneous(self) -> int:
        w = self.weight()
        if w is None:
            raise DomainError(
                "operator is zero or inhomogeneous; no indicial polynomial"
            )
        return w

    def indicial(self) -> UniPoly:
        """q with op x^s = q(s) x^(s-N)."""
        self.require_homogeneous()
        out = UniPoly.zero("s")
        for (_k, j), coeff in self.terms.items():
            out = out + _falling_poly("s", j) * coeff
        return out

    def apply(self, series: "LogSeries") -> "LogSeries":
        n = self.require_homogeneous()
        derivs = _derivative_chain(self.indicial())
        return LogSeries._of(accumulate(
            ((r - n, p - i), amp * math.comb(p, i) * val)
            for (r, p), amp in series.terms.items()
            for i in range(min(p, len(derivs) - 1) + 1)
            if (val := derivs[i].evaluate(r))
        ))

    def _ordered(self):
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][1], kv[0][0]))

    def render(self) -> str:
        terms = []
        for (k, j), coeff in self._ordered():
            bits = []
            if k > 0:
                bits.append(f"x^-{k}" if k > 1 else "x^-1")
            elif k < 0:
                bits.append(f"x^{-k}" if k < -1 else "x")
            if j == 1:
                bits.append("d")
            elif j > 1:
                bits.append(f"d^{j}")
            terms.append((coeff, "*".join(bits)))
        return render_terms(terms)

    __repr__ = render

    def to_json(self) -> dict:
        return {
            "terms": [
                {"xpow": -k, "dorder": j, "coeff": coeff_to_json(c)}
                for (k, j), c in self._ordered()
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EulerOperator":
        try:
            return cls(
                {
                    (-_integer(t["xpow"], "xpow"), t["dorder"]): coeff_from_json(t["coeff"])
                    for t in obj["terms"]
                }
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed operator object: {exc}") from exc


def _derivative_chain(q: UniPoly) -> list:
    chain = [q]
    while not chain[-1].is_zero():
        chain.append(chain[-1].derivative())
    return chain


# -- descent ----------------------------------------------------------------


def descent_factor(part: int, h1) -> EulerOperator:
    """The operator replacing L(-part):  -(x^(1-part) d/dx + (1-part) h1 x^(-part))."""
    if not isinstance(part, int) or part < 1:
        raise DomainError(f"descent factor needs a positive part, got {part!r}")
    return EulerOperator({(part - 1, 1): Fraction(-1), (part, 0): (part - 1) * h1})


def descent_word(parts, h1) -> EulerOperator:
    """Descend an attached word B(lam); smallest part first means leftmost
    factor outermost."""
    acc = EulerOperator.identity()
    for p in sorted(parts):
        acc = acc.compose(descent_factor(p, h1))
    return acc


def descent_operator(vec: ModuleVector, h1) -> EulerOperator:
    """Replace each L(-p) in a singular vector by its descent factor."""
    if vec.is_zero():
        raise DomainError("descent of the zero vector")
    acc = EulerOperator()
    for (lam, top), coeff in vec.terms.items():
        if top != 1:
            raise DomainError("descent needs a bottom-layer (ordinary) vector")
        acc = acc + descent_word(lam, h1).scale(coeff)
    return acc


def descent_indicial(vec: ModuleVector, h1, at=0) -> UniPoly:
    """q(s + at), with q the indicial polynomial of descent_operator(vec, h1),
    read from the words of vec without building the operator.

    The factor of L(-p) sends x^s to -(s + (1-p) h1) x^(s-p), and the
    largest part of a word acts first, so the word with parts
    p_1 >= p_2 >= ... contributes its coefficient times the product of
    -(s - t_i + (1-p_i) h1), t_i = p_1 + ... + p_(i-1).  With b the common
    denominator of h1 and at, D that of the coefficients and N the level,
    the sum is taken in ints times D b^N.  vec, h1 and at are rational.
    """
    if vec.is_zero():
        raise DomainError("descent of the zero vector")
    if any(top != 1 for (_lam, top) in vec.terms):
        raise DomainError("descent needs a bottom-layer (ordinary) vector")
    h1, at = as_fraction(h1), as_fraction(at)
    level, coeffs = vec.level, [as_fraction(c) for c in vec.terms.values()]
    b = math.lcm(h1.denominator, at.denominator)
    bh, ba = h1.numerator * (b // h1.denominator), at.numerator * (b // at.denominator)
    den = math.lcm(*(c.denominator for c in coeffs))
    total = [0] * (level + 1)
    for (lam, _top), coeff in zip(vec.terms, coeffs):
        word = [coeff.numerator * (den // coeff.denominator) * b ** (level - len(lam))]
        shift = ba
        for p in lam:
            # times b, the factor is -b s + (p - 1) b h1 - b (at - t_i)
            u = (p - 1) * bh - shift
            word = [u * lo - b * hi for lo, hi in zip(word + [0], [0] + word)]
            shift -= b * p
        for k, c in enumerate(word):
            total[k] += c
    if not any(total):
        raise DomainError("operator is zero or inhomogeneous; no indicial polynomial")
    scale = den * b**level
    return UniPoly("s", [Fraction(c, scale) for c in total])


# -- indicial and fusion polynomials ----------------------------------------


@dataclass
class IndicialData:
    level: int
    indicial: UniPoly  # in s
    fusion: UniPoly  # in h3
    roots: list  # [(Fraction, multiplicity)], ascending
    residual: UniPoly  # monic factor of fusion with no rational roots

    @property
    def logarithmic(self) -> bool:
        # a repeated irrational root counts too
        return not is_squarefree(self.fusion)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "indicial": self.indicial.render(),
            "fusion_h3": self.fusion.render(),
            "roots": [[render_rational(r), m] for r, m in self.roots],
            "logarithmic": self.logarithmic,
        }


# the highest level fusion_indicial scans for a singular vector, and the
# CLI's cap on --level
MAX_LEVEL = 8


def indicial_data(vec: ModuleVector, h1, h2) -> IndicialData:
    """The indicial data of a singular vector of M(c, h2) fused with weight
    h1: q(s), and the fusion polynomial q(h3 - h1 - h2) with its roots."""
    h1, h2 = as_fraction(h1), as_fraction(h2)
    # both polynomials are printed: one that cannot be is refused before
    # the next step, and before root finding
    q = descent_indicial(vec, h1)
    require_printable(q.coeffs)
    fus = descent_indicial(vec, h1, -(h1 + h2)).rename("h3")
    require_printable(fus.coeffs)
    roots, residual = rational_roots(fus)
    return IndicialData(vec.level, q, fus, roots, residual)


def fusion_indicial(c, h1, h2, level=None) -> IndicialData:
    """Full pipeline: lowest singular vector of M(c, h2) at level, or up to
    MAX_LEVEL if level is None, descend with weight h1, read off the
    indicial data."""
    c, h1, h2 = as_fraction(c), as_fraction(h1), as_fraction(h2)
    mod = JordanVermaModule(c, h2)
    for lv in range(1, MAX_LEVEL + 1) if level is None else (level,):
        found = singular_vectors(mod, lv)
        if found:
            return indicial_data(found[0], h1, h2)
    where = f"up to level {MAX_LEVEL}" if level is None else f"at level {level}"
    raise DomainError(f"no singular vector in {mod.describe()} {where}")


# -- logarithmic series and the resonance solve -----------------------------


class LogSeries(Combination):
    """Finite combination of x^r log(x)^p with rational exponents r."""

    __slots__ = ()

    def __init__(self, terms=None):
        clean: dict = {}
        for (r, p), coeff in (terms or {}).items():
            if isinstance(r, str):
                r = parse_rational(r)
            try:
                r = Fraction(r)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"series exponent must be rational, got {r!r}") from exc
            p = _integer(p, "logpower")
            if p < 0:
                raise DomainError("negative log power")
            if coeff:
                clean[(r, p)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, r, p: int = 0, coeff=Fraction(1)) -> "LogSeries":
        return cls({(Fraction(r), p): coeff})

    def coeff(self, r, p: int = 0) -> Coeff:
        return self.terms.get((Fraction(r), p), Fraction(0))

    def _ordered(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def render(self) -> str:
        terms = []
        for (r, p), coeff in self._ordered():
            bits = []
            if r != 0:
                bits.append(f"x^({render_rational(r)})" if r.denominator != 1 or r < 0 else ("x" if r == 1 else f"x^{r}"))
            if p == 1:
                bits.append("log(x)")
            elif p > 1:
                bits.append(f"log(x)^{p}")
            terms.append((coeff, "*".join(bits)))
        return render_terms(terms)

    __repr__ = render

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "exponent": render_rational(r),
                    "logpower": p,
                    "coeff": coeff_to_json(c),
                }
                for (r, p), c in self._ordered()
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LogSeries":
        try:
            return cls(
                {
                    (parse_rational(t["exponent"]), t["logpower"]): coeff_from_json(
                        t["coeff"]
                    )
                    for t in obj["terms"]
                }
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed series object: {exc}") from exc


def solve_euler(op: EulerOperator, rhs: LogSeries):
    """Particular solution of op u = rhs plus a basis of the rational-root
    homogeneous solutions.

    Each rhs term A x^(s0) log(x)^p forces exponent s = s0 + N.  With mu the
    multiplicity of s in the indicial polynomial, the ansatz runs from
    log^mu up to log^(p+mu) and the coefficients solve a triangular system;
    the free homogeneous components below log^mu are set to zero.
    """
    n = op.require_homogeneous()
    q = op.indicial()
    if not q.all_rational():
        raise DomainError("resonance solve needs a rational indicial polynomial")
    roots, _residual = rational_roots(q)
    mult = dict(roots)
    derivs = _derivative_chain(q)
    pairs = []
    for (s0, p), amp in rhs.terms.items():
        s = s0 + n
        mu = mult.get(s, 0)
        lead = derivs[mu].evaluate(s)
        beta: dict = {}
        for k in range(p, -1, -1):
            j = k + mu
            target = amp if k == p else Fraction(0)
            for jj in range(j + 1, p + mu + 1):
                # derivatives past the degree of q are the zero polynomial
                target = target - beta[jj] * math.comb(jj, jj - k) * derivs[
                    min(jj - k, len(derivs) - 1)
                ].evaluate(s)
            beta[j] = target / (math.comb(j, mu) * lead)
        pairs.extend(((s, j), val) for j, val in beta.items() if val)
    homogeneous = [
        LogSeries.monomial(r, j) for r, m in roots for j in range(m)
    ]
    return LogSeries._of(accumulate(pairs)), homogeneous


# -- derived constants ------------------------------------------------------


def determine_b(h) -> Fraction:
    """Fix the two-point normalization b from the logarithmic resonance at
    central charge 0 and weight h; only weights carrying a level-2 singular
    vector qualify."""
    h = as_fraction(h)
    if h == 0:
        raise DomainError("degenerate weight 0: the level-1 singular vector collapses the descent")
    mod = JordanVermaModule(Fraction(0), h)
    found = singular_vectors(mod, 2)
    if not found:
        raise DomainError(
            "case outside the implemented family: no level-2 singular vector at central charge 0"
        )
    # an rhs A x^(-2h) resonates at s = 2 - 2h; the solve's log x term is
    # A / q'(s), present exactly when s is a simple root of q
    q = descent_indicial(found[0], h, 2 - 2 * h)
    if q.coeff(0) or not q.coeff(1):
        raise DomainError("no logarithmic resonance at this weight")
    return 2 * h * q.coeff(1)


def ope_level2_coefficient(c, h) -> Fraction:
    """Coefficient of the level-2 descendant of the vacuum in the product of
    two weight-h primaries, at central charge c != 0."""
    c, h = as_fraction(c), as_fraction(h)
    if c == 0:
        raise DomainError("central term degenerate at c = 0")
    raising = EulerOperator({(-3, 1): Fraction(1), (-2, 0): 3 * h})
    norm = shapovalov_matrix(JordanVermaModule(c, Fraction(0)), 2)[1, 1]
    return raising.indicial().evaluate(-2 * h) / as_fraction(norm)


# -- reference products for the fusion fixtures -----------------------------


def fixture_polynomial(family: str, m: int = None, n: int = None, p: int = None) -> UniPoly:
    """Closed-form fusion polynomial for one of the three checked families,
    monic in h3."""
    x = UniPoly.x("h3")
    if family == "c1":
        if m is None or n is None or m < n or n < 1:
            raise DomainError("family c1 needs integers m >= n >= 1")
        out = UniPoly.const("h3", Fraction(1))
        for i in range(m - n, m + n + 1, 2):
            out = out * (x - Fraction(i * i, 4))
        return out
    if family == "cminus2":
        return x * x
    if family == "c0":
        if p is None or p < 2 or p % 2:
            raise DomainError("family c0 needs an even integer p >= 2")
        out = UniPoly.const("h3", Fraction(1))
        for twice in range(1, p, 2):
            nu = Fraction(twice, 2)
            a = Fraction((3 * p - 1 - 6 * nu) * (3 * p - 3 - 6 * nu), 24)
            b = Fraction((3 * p - 1 + 6 * nu) * (3 * p - 3 + 6 * nu), 24)
            out = out * (UniPoly.const("h3", a) - x) * (UniPoly.const("h3", b) - x)
        return out
    raise DomainError(f"unknown fixture family {family!r}")

"""Sparse multivariate and dense univariate polynomials over exact rationals.

MultiPoly is a sparse polynomial over a fixed symbol registry:

    terms: dict mapping exponent tuples to nonzero Fraction coefficients
    vars:  the symbols in play, always kept in registry order

All arithmetic is exact; there is no floating point anywhere in this package.
The canonical term order is graded lexicographic (total degree first, then
lexicographic on the exponent vector, most significant variable first), used
for deterministic serialization.  Exact division takes leading terms in a
graded order of its own (see divexact_terms).

UniPoly is a dense univariate polynomial (coefficient list indexed by power)
whose coefficients are Fractions or MultiPolys.  Root finding requires
Fraction coefficients.

Coefficients elsewhere in the package are "Coeff" = Fraction | MultiPoly; the
operator overloads below make the two interoperate (Fraction op MultiPoly
falls back to the reflected MultiPoly method).

Every object in the package is a sparse {key: Coeff} combination, and
accumulate and render_terms below are the one place where such terms are
summed and printed.  Combination holds the vector-space operations (+, -,
negation, scale, ==) of the combinations that have no extra fields:
LaurentField, EulerOperator, LogSeries, UEAElement and WLogElement (whose
central coefficient is one more basis key).  Their results, and their own
products, are built with Combination._of from terms accumulate has cleaned,
without a second pass through the checking __init__.  A sum whose
coefficients are mostly integral can run in ints: as_int turns each
integral Fraction into an int, and rational_terms turns the ints of the
result back into Fractions, so no int is left in a Coeff.

The ring operations of MultiPoly work on bare term dicts through
accumulate, mul_terms and divexact_terms.  linalg does no polynomial
arithmetic of its own: it evaluates term dicts to integers and
interpolates the results back.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add, sub
from typing import Iterable, Union

from .errors import DomainError, ParseError, SymbolError
from .intpoly import (
    content_free,
    divexact_int,
    is_squarefree_int,
    squarefree_rational_roots,
    sturm_chain,
)
from .rational import _integer, parse_rational, render_rational

# The fixed symbol registry.  Order matters: it is the significance order for
# the graded-lex term order, and vars tuples are always subsequences of it.
REGISTRY = ("c", "h", "h1", "t", "b", "lam", "mu", "beta", "s")
_REG_INDEX = {name: i for i, name in enumerate(REGISTRY)}

Coeff = Union[Fraction, "MultiPoly"]


def _check_vars(vars: tuple) -> tuple:
    idx = -1
    for v in vars:
        if v not in _REG_INDEX:
            raise SymbolError(f"unknown symbol {v!r}; registry is {REGISTRY}")
        if _REG_INDEX[v] <= idx:
            raise SymbolError(f"vars not in registry order: {vars}")
        idx = _REG_INDEX[v]
    return tuple(vars)


def merge_vars(a: tuple, b: tuple) -> tuple:
    if a == b:
        return a
    merged = sorted(set(a) | set(b), key=_REG_INDEX.__getitem__)
    return tuple(merged)


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: dict | None = None):
        self.vars = _check_vars(tuple(vars))
        clean = []
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width or any(e < 0 for e in exps):
                    raise SymbolError(f"bad exponent tuple {exps} for vars {self.vars}")
                clean.append((exps, coeff if isinstance(coeff, Fraction) else Fraction(coeff)))
        self.terms = accumulate(clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "MultiPoly":
        q = Fraction(value)
        if q == 0:
            return cls((), {})
        return cls((), {(): q})

    @classmethod
    def symbol(cls, name: str) -> "MultiPoly":
        if name not in _REG_INDEX:
            raise SymbolError(f"unknown symbol {name!r}; registry is {REGISTRY}")
        return cls((name,), {(1,): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise SymbolError(f"not a constant: {self.render()}")
        return next(iter(self.terms.values()))

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical listing)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _aligned(self, vars: tuple) -> dict:
        """Re-express terms over a superset variable tuple."""
        if vars == self.vars:
            return self.terms
        pos = [vars.index(v) for v in self.vars]
        width = len(vars)
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * width
            for p, e in zip(pos, exps):
                new[p] = e
            out[tuple(new)] = coeff
        return out

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vars = merge_vars(self.vars, other.vars)
        out = accumulate(other._aligned(vars).items(), dict(self._aligned(vars)))
        return MultiPoly(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vars = merge_vars(self.vars, other.vars)
        neg = ((e, -c) for e, c in other._aligned(vars).items())
        return MultiPoly(vars, accumulate(neg, dict(self._aligned(vars))))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_constant():
            q = other.constant_value()
            if q == 0:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars, {e: c * q for e, c in self.terms.items()})
        if self.is_constant():
            return other * self
        vars = merge_vars(self.vars, other.vars)
        return MultiPoly(vars, mul_terms(self._aligned(vars), other._aligned(vars)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"polynomial power must be a nonnegative int, got {n!r}")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        # scalar division only; polynomial division goes through divexact
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / q)
        return NotImplemented

    def divexact(self, other) -> "MultiPoly":
        """Exact polynomial division; raises DomainError if not divisible."""
        other = self._coerce(other)
        if other is None or other.is_zero():
            raise DomainError("division by zero polynomial")
        if other.is_constant():
            return self / other.constant_value()
        vars = merge_vars(self.vars, other.vars)
        quot = divexact_terms(self._aligned(vars), other._aligned(vars))
        return MultiPoly(vars, quot)

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        if var not in _REG_INDEX:
            raise SymbolError(f"unknown symbol {var!r}")
        if var not in self.vars:
            return MultiPoly(self.vars, {})
        i = self.vars.index(var)
        out = accumulate(
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], coeff * exps[i])
            for exps, coeff in self.terms.items()
            if exps[i]
        )
        return MultiPoly(self.vars, out)

    def subs(self, mapping: dict) -> Coeff:
        """Substitute symbols by Coeff values; unmapped symbols stay symbolic."""
        acc: Coeff = Fraction(0)
        for exps, coeff in self.sorted_terms():
            factor: Coeff = coeff
            for v, e in zip(self.vars, exps):
                if e == 0:
                    continue
                val = mapping.get(v)
                if val is None:
                    val = MultiPoly.symbol(v)
                if isinstance(val, int):
                    val = Fraction(val)
                factor = factor * val ** e
            acc = acc + factor
        return acc

    def evaluate(self, mapping: dict) -> Fraction:
        """Full numeric evaluation; all variables must be mapped to rationals."""
        missing = [v for v in self.vars if self.degree_in(v) > 0 and v not in mapping]
        if missing:
            raise SymbolError(f"unassigned symbols in evaluation: {missing}")
        result = self.subs({k: Fraction(v) for k, v in mapping.items()})
        return as_fraction(result)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars = merge_vars(self.vars, other.vars)
        return self._aligned(vars) == other._aligned(vars)

    def __hash__(self):
        # hash must agree with == across different vars paddings: reduce to
        # the support variables only
        used = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        key = frozenset(
            (tuple(e[i] for i in used), c) for e, c in self.terms.items()
        )
        if not key:
            return hash(Fraction(0))
        if self.is_constant():
            return hash(self.constant_value())
        return hash((tuple(self.vars[i] for i in used), key))

    def __bool__(self):
        return bool(self.terms)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        return render_terms(
            (coeff, "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exps) if e))
            for exps, coeff in self.sorted_terms()
        )

    __repr__ = render

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"coeff": render_rational(c), "exps": list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MultiPoly":
        try:
            vars = tuple(obj["vars"])
            terms = {
                tuple(_integer(e, "exponent") for e in t["exps"]): parse_rational(t["coeff"])
                for t in obj["terms"]
            }
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed polynomial object: {exc}") from exc
        return cls(vars, terms)


def sym(name: str) -> MultiPoly:
    return MultiPoly.symbol(name)


def as_fraction(x) -> Fraction:
    """Collapse a Coeff known to be constant to a Fraction."""
    if isinstance(x, MultiPoly):
        return x.constant_value()
    if isinstance(x, int):
        return Fraction(x)
    return x


def coeff_to_json(x):
    """Rational -> "p/q" string; polynomial -> schema object."""
    if isinstance(x, MultiPoly):
        return x.to_json()
    return render_rational(x)


def coeff_from_json(obj) -> Coeff:
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, dict):
        return MultiPoly.from_json(obj)
    raise ParseError(f"expected rational string or polynomial object, got {obj!r}")


def render_coeff(x) -> str:
    return x.render() if isinstance(x, MultiPoly) else render_rational(x)


def accumulate(pairs, out: dict | None = None) -> dict:
    """Sum (key, coeff) pairs into out (a fresh dict by default) and return
    out with every entry whose sum is zero removed.  A key's first coeff is
    stored as given, so int, Fraction and MultiPoly sums keep their type."""
    if out is None:
        out = {}
    get = out.get
    cancelled = []
    for key, coeff in pairs:
        total = get(key)
        out[key] = total = coeff if total is None else total + coeff
        if not total:
            cancelled.append(key)
    for key in cancelled:
        # a key can cancel more than once, or cancel and come back
        if key in out and not out[key]:
            del out[key]
    return out


def as_int(c):
    """An integral Fraction as its numerator, so that products and sums
    with it run in ints; anything else as it is."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def rational_terms(terms: dict) -> dict:
    """Turn every int value of terms back into a Fraction, in place, and
    return terms: the last step of a sum run through as_int."""
    for key, c in terms.items():
        if type(c) is int:
            terms[key] = Fraction(c)
    return terms


class Combination:
    """Finite linear combination: terms maps basis keys to nonzero Coeffs.

    Subclasses check and convert outside input in their own __init__.  The
    vector-space operations below, and the subclasses' own products, build
    their results with _of from terms that are already clean.  Mixing two
    subclasses in +, - or == is NotImplemented.
    """

    __slots__ = ("terms",)

    @classmethod
    def _of(cls, terms: dict):
        """An instance over terms with valid keys and no zero coefficient."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return self._of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        neg = ((key, -c) for key, c in other.terms.items())
        return self._of(accumulate(neg, dict(self.terms)))

    def scale(self, factor):
        if not factor:
            return self._of({})
        return self._of({key: c * factor for key, c in self.terms.items()})


def mul_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts {exps: coeff} over one vars tuple.

    The sum runs inline rather than through accumulate, which measured
    10-15% slower here, and zeros are dropped once at the end.
    """
    out: dict = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


def divexact_terms(num: dict, den: dict) -> dict:
    """Quotient of two term dicts {exps: Fraction} over one vars tuple.

    The remainder is one dict updated in place.  A heap of (-degree, exps)
    keys yields its leading term: highest total degree first, ties broken
    towards the lexicographically smallest exponent tuple.  That is a
    monomial order, so every key a step adds sorts below the key it
    removes; keys whose coefficient has cancelled are skipped when popped.
    Raises DomainError if den does not divide num.
    """
    if not den:
        raise DomainError("division by zero polynomial")
    lead = min(den, key=lambda e: (-sum(e), e))
    lc = den[lead]
    rest = [(e, c) for e, c in den.items() if e != lead]
    rem = dict(num)
    heap = [(-sum(e), e) for e in rem]
    heapify(heap)
    get = rem.get
    quot = {}
    while heap:
        _, exps = heappop(heap)
        coeff = rem.pop(exps)
        if not coeff:
            continue
        q = tuple(map(sub, exps, lead))
        if q and min(q) < 0:
            raise DomainError("inexact polynomial division")
        qc = quot[q] = coeff / lc
        for e, c in rest:
            key = tuple(map(add, q, e))
            old = get(key)
            if old is None:
                heappush(heap, (-sum(key), key))
                old = 0
            rem[key] = old - qc * c
    return quot


def render_terms(items) -> str:
    """Signed sum of (coeff, body) terms in display order; body "" marks the
    constant term and zero coefficients are skipped.

    A non-constant polynomial coefficient prints as (p)*body, or is spliced
    in as p when there is no body.  Any other coefficient q prints as
    q*body, as body or -body when q is 1 or -1, and as q alone with no
    body.  A term that starts with a minus joins the sum as " - ".
    """
    text = ""
    for coeff, body in items:
        if not coeff:
            continue
        if isinstance(coeff, MultiPoly) and not coeff.is_constant():
            term = f"({coeff.render()})*{body}" if body else coeff.render()
        else:
            term = render_coeff(coeff)
            if body:
                term = body if term == "1" else "-" + body if term == "-1" else f"{term}*{body}"
        if not text:
            text = term
        elif term[0] == "-":
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text or "0"


# ---------------------------------------------------------------------------
# dense univariate polynomials


class UniPoly:
    """Dense univariate polynomial; coeffs[k] is the coefficient of var**k."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        self.var = str(var)
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = [
            c if isinstance(c, (Fraction, MultiPoly)) else Fraction(c) for c in cs
        ]

    @classmethod
    def zero(cls, var: str) -> "UniPoly":
        return cls(var, ())

    @classmethod
    def const(cls, var: str, value) -> "UniPoly":
        return cls(var, (value,))

    @classmethod
    def x(cls, var: str) -> "UniPoly":
        return cls(var, (0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def all_rational(self) -> bool:
        return all(not isinstance(c, MultiPoly) for c in self.coeffs)

    def _same_var(self, other: "UniPoly"):
        if self.var != other.var:
            raise SymbolError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = UniPoly.const(self.var, other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._same_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.var, [self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = UniPoly.const(self.var, other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return UniPoly(self.var, [c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._same_var(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("power must be a nonnegative int")
        result = UniPoly.const(self.var, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = UniPoly.const(self.var, other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.var, tuple(self.coeffs)))

    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [k * c for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, point):
        """Horner evaluation; point may be a Fraction or MultiPoly."""
        acc: Coeff = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def rename(self, var: str) -> "UniPoly":
        return UniPoly(var, self.coeffs)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        if isinstance(lead, MultiPoly):
            raise DomainError("monic normalization needs rational coefficients")
        return self * (1 / lead)

    def render(self) -> str:
        return render_terms(
            (self.coeffs[k], "" if k == 0 else self.var if k == 1 else f"{self.var}^{k}")
            for k in range(len(self.coeffs) - 1, -1, -1)
        )

    __repr__ = render

    def to_json(self) -> dict:
        # same schema as MultiPoly: a single-variable term list
        return {
            "vars": [self.var],
            "terms": [
                {"coeff": coeff_to_json(c), "exps": [k]}
                for k in range(len(self.coeffs) - 1, -1, -1)
                if (c := self.coeffs[k])
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UniPoly":
        try:
            (var,) = obj["vars"]
            pairs = [(_integer(t["exps"][0], "exponent"), coeff_from_json(t["coeff"]))
                     for t in obj["terms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed univariate polynomial object: {exc}") from exc
        if any(k < 0 for k, _ in pairs):
            raise ParseError("univariate polynomial exponents must be nonnegative")
        coeffs = [Fraction(0)] * (max((k for k, _ in pairs), default=-1) + 1)
        for k, c in pairs:
            coeffs[k] = coeffs[k] + c
        return cls(var, coeffs)


def _integer_coeffs(p: UniPoly) -> list:
    """The coefficients of p times the lcm of their denominators, made
    primitive: an int polynomial with the roots of p."""
    if p.is_zero():
        raise DomainError("root finding on the zero polynomial")
    if not p.all_rational():
        raise DomainError("root finding needs rational coefficients")
    den = lcm(*(c.denominator for c in p.coeffs))
    return content_free([c.numerator * (den // c.denominator) for c in p.coeffs])


def is_squarefree(p: UniPoly) -> bool:
    """Whether p, nonzero with rational coefficients, has no repeated root
    over the complex numbers."""
    return is_squarefree_int(_integer_coeffs(p))


def rational_roots(p: UniPoly):
    """All rational roots with multiplicities, plus the rootless residual.

    Returns (roots, residual) with roots a list of (Fraction, multiplicity)
    sorted by value and residual monic with no rational roots, so that
    p = lc * prod (x - r)^m * residual.

    The work is exact and in ints: the real roots of the squarefree part
    are isolated by Sturm sequences (see intpoly), and each rational one is
    divided out of p as often as it goes.
    """
    f = _integer_coeffs(p)
    k = next(i for i, c in enumerate(f) if c)
    roots = [(Fraction(0), k)] if k else []
    f = f[k:]
    if len(f) > 1:
        for r in squarefree_rational_roots(sturm_chain(f)):
            factor, mult = [-r.numerator, r.denominator], 0
            while (q := divexact_int(f, factor)) is not None:
                f, mult = q, mult + 1
            roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, UniPoly(p.var, [Fraction(c, f[-1]) for c in f])

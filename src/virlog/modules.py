"""Generalized Verma modules with Jordan top level, their Shapovalov forms,
singular vectors, radicals, homomorphism certificates, and density modules.

M_n(c,h) has top vectors v_1..v_n with

    L(k).v_i = 0 for k > 0,
    L(0).v_1 = h v_1,
    L(0).v_i = h v_i + v_{i-1} for i >= 2,

and C acting by the scalar c.  A basis vector at level N is labeled by a
partition of N (a weakly decreasing tuple) and a top index; the attached
vector multiplies mode operators smallest part first:

    B((2,1)) v_i = L(-1) L(-2) v_i

Basis order at a level: partitions listed in lexicographic order of their
decreasing part tuples, so (1,1,1) < (2,1) < (3), all paired with top index 1
first, then top index 2, etc.  This exact order (and the B convention above)
is what makes the jordan-size-2 level-3 Gram matrix come out block
upper-triangular with the L(-1)^3 norm 24h(h+1)(1+2h) in the corner.

The mode action is computed by a straightening recursion on the label, not
through the enveloping algebra; the two routes agree (tested).  It runs
once, on the generic module M(c, h), and memoizes per (mode, label): every
coefficient there is affine in (c, h).  M_n(c, h) is M(c, h) with h read
as h + N, N the nilpotent part of L(0) on the top level, so a module only
evaluates these structure constants.  For a matrix between levels that
gives the Taylor-block rule: block (i, j) of the top indices holds
(d/dh)^k P / k!, k = j - i, of each entry P over Q[c, h], and 0 for j < i.
The Gram matrices and the L(1), L(2) matrices over Q[c, h] are built once
per level, as tables of ints over a common denominator.

A module evaluates a table block by block (_blocks).  The rows reach the
linalg layer as ints: numeric rows times one common denominator, and
symbolic rows as {(a, b): int} term dicts of c^a h^b over the table's
denominator, with no MultiPoly or Fraction per entry.  The determinant
takes the assembled block upper-triangular Toeplitz matrix (_toeplitz);
the kernel behind the radical, the singular vectors and the hom-check
(_kernel) takes block row 0 alone, each row's Taylor blocks side by side,
as block row i is block row 0 moved i blocks right.  The diagonal block
is the matrix on the jordan-1 module, and a block upper-triangular matrix
whose diagonal block has full column rank has full column rank; so at
jordan >= 2 the kernel first reduces that block alone mod a prime, and
only when that does not prove full rank are the other blocks evaluated
and block row 0 reduced, carried through the other block rows
(linalg._echelon_mod), and lifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Union

from .errors import DomainError, ParseError, ShapeError, SymbolError
from .linalg import ExactMatrix, _full_column_rank, _int_determinant, _modular_rref
from .polynomial import (
    Coeff,
    MultiPoly,
    accumulate,
    as_int,
    coeff_from_json,
    coeff_to_json,
    rational_terms,
    render_terms,
    sym,
)
from .rational import parse_rational, render_rational

Param = Union[Fraction, str]


def _check_param(value, allowed_symbols) -> Param:
    if isinstance(value, str):
        if value not in allowed_symbols:
            raise SymbolError(
                f"symbolic parameter must be one of {allowed_symbols}, got {value!r}"
            )
        return value
    return Fraction(value)


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n as weakly decreasing tuples."""
    if n < 0:
        raise DomainError("partitions of a negative integer")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class JordanVermaModule:
    c: Param
    h: Param
    jordan: int = 1

    def __post_init__(self):
        if self.jordan < 1:
            raise DomainError("jordan size must be at least 1")
        object.__setattr__(self, "c", _check_param(self.c, ("c",)))
        object.__setattr__(self, "h", _check_param(self.h, ("h",)))

    @property
    def symbolic(self) -> bool:
        return isinstance(self.c, str) or isinstance(self.h, str)

    def c_value(self) -> Coeff:
        return sym(self.c) if isinstance(self.c, str) else self.c

    def h_value(self) -> Coeff:
        return sym(self.h) if isinstance(self.h, str) else self.h

    def require_numeric(self, what: str):
        if self.symbolic:
            raise DomainError(f"{what} needs numeric parameters")

    def require_unmixed(self):
        # either fully symbolic or fully numeric inside one Gram computation
        if isinstance(self.c, str) != isinstance(self.h, str):
            raise SymbolError(
                "mixing symbolic and numeric module parameters is not supported here"
            )

    def describe(self) -> str:
        c = self.c if isinstance(self.c, str) else render_rational(self.c)
        h = self.h if isinstance(self.h, str) else render_rational(self.h)
        base = f"M_{self.jordan}" if self.jordan > 1 else "M"
        return f"{base}({c},{h})"

    def to_json(self) -> dict:
        return {
            "c": self.c if isinstance(self.c, str) else render_rational(self.c),
            "h": self.h if isinstance(self.h, str) else render_rational(self.h),
            "jordan": self.jordan,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JordanVermaModule":
        def param(text):
            if text in ("c", "h"):
                return text
            return parse_rational(text)

        try:
            return cls(param(obj["c"]), param(obj["h"]), obj.get("jordan", 1))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed module object: {exc}") from exc


def level_basis(mod: JordanVermaModule, level: int) -> list:
    """Ordered basis labels (partition, top_index) at the given level."""
    if level < 0:
        raise DomainError("negative level")
    parts = sorted(partitions(level))
    return [(lam, i) for i in range(1, mod.jordan + 1) for lam in parts]


# -- mode action ------------------------------------------------------------

# Exponents (of c, of h) of the monomials 1, c and h.
_ONE, _C, _H = (0, 0), (1, 0), (0, 1)

# L(-p)·B(mu) expanded over basis words; pure structure constants, so the
# cache is global and the values are ints.
_PREPEND_MEMO: dict = {}


def _prepend(p: int, mu: tuple) -> dict:
    if p < 1:
        raise DomainError("prepend needs a positive part")
    key = (p, mu)
    cached = _PREPEND_MEMO.get(key)
    if cached is not None:
        return cached
    if not mu or p <= mu[-1]:
        result = {mu + (p,): 1}
    else:
        s2, rho2 = mu[-1], mu[:-1]
        result = accumulate(
            ((nu, (s2 - p) * q) for nu, q in _prepend(p + s2, rho2).items()),
            {nu + (s2,): q for nu, q in _prepend(p, rho2).items()},
        )
    _PREPEND_MEMO[key] = result
    return result


# L(k)·B(lam)v on the generic module M(c, h), keyed by (k, lam) alone, so
# it holds one entry per mode and label in use whatever the number of
# modules.  Values are {(mu, exps): q}: the coefficient of B(mu)v is the
# sum of q c^a h^b over its exps (a, b), one of _ONE, _C and _H, since a
# single mode reaches the top level at most once.  q is an int, or a
# Fraction where the central term (k^3 - k)/12 leaves one, so that the sums
# over the memo run in ints.
_ACTION_MEMO: dict = {}


def _apply_single(k: int, lam: tuple) -> dict:
    """L(k) on B(lam)v in M(c, h): {(mu, exps): int or Fraction}."""
    key = (k, lam)
    cached = _ACTION_MEMO.get(key)
    if cached is not None:
        return cached
    pairs = []
    if lam == ():
        if k == 0:
            pairs.append((((), _H), 1))
        elif k < 0:
            pairs.append((((-k,), _ONE), 1))
        # k > 0 annihilates the top level
    else:
        s, rho = lam[-1], lam[:-1]
        # L(k) L(-s) = L(-s) L(k) + (k+s) L(k-s) + delta_{k,s} (k^3-k)/12 C
        pairs.extend(
            ((nu, e), q * w)
            for (mu, e), q in _apply_single(k, rho).items()
            for nu, w in _prepend(s, mu).items()
        )
        if k + s != 0:
            pairs.extend(
                ((mu, e), (k + s) * q) for (mu, e), q in _apply_single(k - s, rho).items()
            )
        if k == s:
            central = Fraction(k**3 - k, 12)
            if central != 0:
                pairs.append(((rho, _C), as_int(central)))
    out = accumulate(pairs)
    _ACTION_MEMO[key] = out
    return out


@dataclass
class ModuleVector:
    module: JordanVermaModule
    level: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (lam, top), coeff in self.terms.items():
            lam = tuple(lam)
            if sum(lam) != self.level or any(
                lam[i] < lam[i + 1] for i in range(len(lam) - 1)
            ):
                raise ShapeError(f"label {lam} is not a partition of level {self.level}")
            if not 1 <= top <= self.module.jordan:
                raise ShapeError(f"top index {top} outside 1..{self.module.jordan}")
            if coeff:
                clean[(lam, top)] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def _same_home(self, other: "ModuleVector"):
        # the zero vector is shared between levels, so only nonzero vectors
        # pin the level
        if self.module != other.module:
            raise ShapeError("vectors from different modules")
        if self.level != other.level and self.terms and other.terms:
            raise ShapeError("vectors at mismatched levels")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._same_home(other)
        if not self.terms:
            return ModuleVector(other.module, other.level, dict(other.terms))
        if not other.terms:
            return ModuleVector(self.module, self.level, dict(self.terms))
        out = accumulate(other.terms.items(), dict(self.terms))
        return ModuleVector(self.module, self.level, out)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(Fraction(-1))

    def scale(self, factor) -> "ModuleVector":
        if not factor:
            return ModuleVector(self.module, self.level, {})
        return ModuleVector(
            self.module, self.level, {k: c * factor for k, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        if self.module != other.module:
            return False
        if not self.terms and not other.terms:
            return True
        return self.level == other.level and self.terms == other.terms

    def coeff(self, label) -> Coeff:
        return self.terms.get((tuple(label[0]), label[1]), Fraction(0))

    def coefficients(self) -> list:
        return [
            self.terms.get(label, Fraction(0))
            for label in level_basis(self.module, self.level)
        ]

    def apply_mode(self, k: int) -> "ModuleVector":
        new_level = self.level - k
        if new_level < 0:
            return ModuleVector(self.module, 0, {})
        # h acts on the top level as h + N, N lowering the top index, and the
        # coefficients are affine in h, so N leaves the h term's q on top - 1
        c, h = self.module.c_value(), self.module.h_value()
        pairs = []
        for (lam, top), coeff in self.terms.items():
            for (mu, e), q in _apply_single(k, lam).items():
                q = coeff * q
                if e == _H:
                    pairs.append(((mu, top), q * h))
                    if top > 1:
                        pairs.append(((mu, top - 1), q))
                else:
                    pairs.append(((mu, top), q * c if e == _C else q))
        return ModuleVector(self.module, new_level, rational_terms(accumulate(pairs)))

    def top_projection(self, top: int) -> "ModuleVector":
        """Keep only the terms with the given top index, relabeled into the
        ordinary Verma module with the same parameters."""
        target = JordanVermaModule(self.module.c, self.module.h, 1)
        return ModuleVector(
            target,
            self.level,
            {(lam, 1): c for (lam, t), c in self.terms.items() if t == top},
        )

    def normalize_leading(self) -> "ModuleVector":
        """Scale so the first nonzero coefficient in basis order is 1."""
        for label in level_basis(self.module, self.level):
            coeff = self.terms.get(label)
            if coeff:
                if isinstance(coeff, MultiPoly):
                    raise DomainError("cannot normalize a symbolic vector")
                return self.scale(Fraction(1) / coeff)
        return self

    def render(self) -> str:
        names = (
            {1: "v"}
            if self.module.jordan == 1
            else {1: "v", 2: "w"}
            if self.module.jordan == 2
            else {i: f"v{i}" for i in range(1, self.module.jordan + 1)}
        )
        terms = []
        for lam, top in level_basis(self.module, self.level):
            if (lam, top) in self.terms:
                factors = "".join(
                    f"L(-{part})" if lam.count(part) == 1 else f"L(-{part})^{lam.count(part)}"
                    for part in sorted(set(lam))
                )
                terms.append((self.terms[(lam, top)], factors + names[top]))
        return render_terms(terms)

    __repr__ = render

    def to_json(self) -> dict:
        ordered = [
            (label, self.terms[label])
            for label in level_basis(self.module, self.level)
            if label in self.terms
        ]
        return {
            "module": self.module.to_json(),
            "level": self.level,
            "terms": [
                {"word": list(lam), "top": top, "coeff": coeff_to_json(c)}
                for (lam, top), c in ordered
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModuleVector":
        try:
            mod = JordanVermaModule.from_json(obj["module"])
            terms = {
                (tuple(t["word"]), t["top"]): coeff_from_json(t["coeff"])
                for t in obj["terms"]
            }
            return cls(mod, obj["level"], terms)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed module vector: {exc}") from exc


def basis_vector(mod: JordanVermaModule, lam, top: int = 1) -> ModuleVector:
    lam = tuple(lam)
    return ModuleVector(mod, sum(lam), {(lam, top): Fraction(1)})


# -- matrices over Q[c, h] --------------------------------------------------

# A matrix over Q[c, h] is kept as a table of ints (_table) and evaluated
# on a module by the Taylor-block rule of the module docstring, the term
# q c^a h^b of an entry giving q C(b, k) c^a h^(b-k) in block k.


def _table(rows) -> tuple:
    """(den, A, B, rows) for a matrix of {(a, b): int or Fraction} term
    dicts: den the lcm of the denominators, A and B the largest exponents
    of c and of h, and each entry a tuple of (q * den, a, b)."""
    terms = [(e, q) for row in rows for entry in row for e, q in entry.items()]
    den = lcm(*(q.denominator for _, q in terms))
    amax = max((a for (a, _), _ in terms), default=0)
    bmax = max((b for (_, b), _ in terms), default=0)
    ints = [
        [tuple((q.numerator * (den // q.denominator), a, b) for (a, b), q in entry.items())
         for entry in row]
        for row in rows
    ]
    return den, amax, bmax, ints


def _poly(terms: dict) -> Coeff:
    """{(a, b): Fraction} as a sum of q c^a h^b: a Fraction when constant,
    else a MultiPoly over the symbols it uses."""
    if not terms:
        return Fraction(0)
    used = [i for i in (0, 1) if any(e[i] for e in terms)]
    if not used:
        return terms[_ONE]
    return MultiPoly(
        tuple("ch"[i] for i in used), {tuple(e[i] for i in used): q for e, q in terms.items()}
    )


def _blocks(table, mod: JordanVermaModule, ks) -> tuple:
    """(blocks, scale): the Taylor blocks k in ks of the table on mod,
    numeric or fully symbolic, each a list of rows, times scale.  Symbolic
    entries are {(a, b): int} term dicts of c^a h^b and scale is den.
    Numeric entries are summed in ints and scale is the common denominator
    den * cd^A * hd^B, c = cn/cd and h = hn/hd.  Block k takes C(b, k) from
    one binomial row.
    """
    den, amax, bmax, rows = table
    if mod.symbolic:
        scale = den

        def block(k):
            binom = [comb(b, k) for b in range(bmax + 1)]
            return [[{(a, b - k): num * binom[b] for num, a, b in entry if b >= k}
                     for entry in row] for row in rows]
    else:
        cn, cd = mod.c.numerator, mod.c.denominator
        hn, hd = mod.h.numerator, mod.h.denominator
        cpow = [cn**a * cd ** (amax - a) for a in range(amax + 1)]
        hpow = [hn**b * hd ** (bmax - b) for b in range(bmax + 1)]
        scale = den * cd**amax * hd**bmax

        def block(k):
            # C(b, k) h^(b - k) hd^B, by the power b of h
            weight = [comb(b, k) * hpow[b - k] if b >= k else 0 for b in range(bmax + 1)]
            return [[sum(num * cpow[a] * weight[b] for num, a, b in entry) for entry in row]
                    for row in rows]

    return [block(k) for k in ks], scale


def _toeplitz(blocks, zero) -> list:
    """Rows of the block upper-triangular Toeplitz matrix with blocks[k]
    on its k-th block superdiagonal: block (i, j) of the top indices is
    blocks[j - i], and zero below the diagonal."""
    n, size = len(blocks), len(blocks[0])
    zeros = [zero] * len(blocks[0][0])
    return [zeros * i + [x for k in range(n - i) for x in blocks[k][r]]
            for i in range(n)
            for r in range(size)]


def _kernel(tables, mod: JordanVermaModule) -> tuple:
    """(cols, pivots, lifted) of the certified reduced form of the stacked
    tables on mod, grouped by top index: its column count, its pivot
    columns and {free column f: the Fraction entries of f in the pivot rows
    before f} (linalg._modular_rref).  Each table's rows are times its own
    scale, which leaves the reduced form as it is.

    Grouped by top index, the matrix is block upper-triangular Toeplitz:
    block row i is block row 0 moved i blocks right, and its diagonal
    block is the top block, the stacked block 0 of the tables, their
    matrix on the jordan-1 module.  If the top block has full column rank,
    so does the whole matrix, its last block column first, and the answer
    is every column a pivot.  At jordan >= 2 the top block is reduced alone
    mod the first prime, which can only prove full rank; otherwise the
    remaining blocks are evaluated and block row 0, each row's blocks side
    by side, goes to the certified kernel.  At jordan 1 the top block is
    the whole matrix, and the kernel's first prime makes the same test.
    """
    top = [row for table in tables for row in _blocks(table, mod, range(1))[0][0]]
    n = len(top[0])
    cols = n * mod.jordan
    if mod.jordan > 1:
        if _full_column_rank(top, n):
            return cols, list(range(cols)), {}
        # each row's blocks 1 .. jordan - 1, in the order of top
        tails = [tail for table in tables
                 for tail in zip(*_blocks(table, mod, range(1, mod.jordan))[0])]
        top = [row + [x for block in tail for x in block] for row, tail in zip(top, tails)]
    return (cols, *_modular_rref(top, cols, mod.jordan))


@lru_cache(maxsize=None)
def _generic_gram(level: int) -> dict:
    """{(lam, mu): {(a, b): int or Fraction}}, the Gram entries of M(c, h).

    The word of lam applies its smallest part k first, then the word of
    rest, lam without that part; so the (lam, mu) entry sums the
    (rest, nu) entries at level - k against L(k) B(mu)v.
    """
    parts = partitions(level)
    if level == 0:
        return {((), ()): {_ONE: 1}}
    out = {}
    for lam in parts:
        k, rest = lam[-1], lam[:-1]
        lower = _generic_gram(level - k)
        for mu in parts:
            out[lam, mu] = accumulate(
                ((e[0] + e2[0], e[1] + e2[1]), q * q2)
                for (nu, e), q in _apply_single(k, mu).items()
                for e2, q2 in lower[rest, nu].items()
            )
    return out


@lru_cache(maxsize=None)
def _gram_table(level: int) -> tuple:
    parts = sorted(partitions(level))
    gram = _generic_gram(level)
    return _table([[gram[lam, mu] for mu in parts] for lam in parts])


@lru_cache(maxsize=None)
def _lowering_tables(level: int) -> tuple:
    """The tables of L(1) and, from level 2 on, L(2) from the level of
    M(c, h): L(gen) to level - gen, one row per partition of level - gen."""
    if level < 1:
        raise DomainError("singular vectors live at positive levels")
    parts = sorted(partitions(level))
    tables = []
    for gen in range(1, min(level, 2) + 1):
        index = {mu: r for r, mu in enumerate(sorted(partitions(level - gen)))}
        rows = [[{} for _ in parts] for _ in index]
        for col, lam in enumerate(parts):
            for (mu, e), q in _apply_single(gen, lam).items():
                rows[index[mu]][col][e] = q
        tables.append(_table(rows))
    return tuple(tables)


# -- Shapovalov form --------------------------------------------------------


def shapovalov_matrix(mod: JordanVermaModule, level: int) -> ExactMatrix:
    """Gram matrix of (a, b) = coefficient of the paired top vector in
    (transpose word of a) applied to b, on the level basis order."""
    mod.require_unmixed()
    blocks, scale = _blocks(_gram_table(level), mod, range(mod.jordan))
    if mod.symbolic:
        rows = _toeplitz(blocks, {})
        return ExactMatrix([[_poly({e: Fraction(q, scale) for e, q in x.items()}) for x in row]
                            for row in rows])
    return ExactMatrix([[Fraction(x, scale) for x in row] for row in _toeplitz(blocks, 0)])


def shapovalov_determinant(mod: JordanVermaModule, level: int) -> Coeff:
    """Determinant of the Shapovalov form at the given level: a Fraction
    on a numeric module, and on the symbolic one a MultiPoly over the
    symbols the Gram entries use (level 1 is over h alone) or Fraction(1)
    at level 0.

    The Gram table's Taylor blocks reach the determinant as int rows over
    the table's denominator, {(a, b): int} term dicts when symbolic, with
    no MultiPoly or Fraction per entry.
    """
    mod.require_unmixed()
    table = _gram_table(level)
    blocks, scale = _blocks(table, mod, range(mod.jordan))
    if not mod.symbolic:
        return _int_determinant(_toeplitz(blocks, 0), scale, None)
    # over the symbols the entries use: none at level 0, h alone at level 1
    used = [i for i, d in enumerate(table[1:3]) if d]
    rows = _toeplitz(blocks, {})
    if not used:
        rows = [[x.get(_ONE, 0) for x in row] for row in rows]
    elif len(used) == 1:
        (i,) = used
        rows = [[{(e[i],): q for e, q in x.items()} for x in row] for row in rows]
    return _int_determinant(rows, scale, tuple("ch"[i] for i in used) or None)


def radical_dimension(mod: JordanVermaModule, level: int) -> int:
    """Dimension of the right radical of the form at the given level.

    The Gram matrix is block upper-triangular Toeplitz in the top index
    with the jordan-1 Gram matrix on its diagonal, so full rank of that
    block mod a prime settles the answer at 0 (_kernel); otherwise it is
    the number of free columns of the certified reduced form of block row
    0 of the int rows, whose elimination mod p reduces block row 0 once
    and carries it through the others, updating only the rows the diagonal
    block leaves zero.
    """
    mod.require_numeric("radical computation")
    cols, pivots, _ = _kernel([_gram_table(level)], mod)
    return cols - len(pivots)


def singular_vectors(mod: JordanVermaModule, level: int) -> list:
    """Basis of the joint kernel of L(1) and L(2) at the given level,
    each vector scaled so its first nonzero coefficient is 1.

    L(1), L(2) generate all positive modes under bracketing, so this kernel
    is exactly the space of singular vectors.  The stacked L(1), L(2)
    matrix is block upper-triangular Toeplitz in the top index with the
    jordan-1 stacked matrix on its diagonal, so full column rank of that
    block mod a prime settles the answer as [] (_kernel); otherwise the
    basis is read from the certified kernel of block row 0 of the int rows,
    reduced mod p as in radical_dimension, each vector checked exactly:
    for each free column f, minus its entries at the pivots before it and
    1 at f.
    """
    mod.require_numeric("singular vector computation")
    _, pivots, lifted = _kernel(_lowering_tables(level), mod)
    basis = level_basis(mod, level)
    out = []
    for f, column in lifted.items():
        terms = {basis[pc]: -q for pc, q in zip(pivots, column)}
        terms[basis[f]] = Fraction(1)
        out.append(ModuleVector(mod, level, terms).normalize_leading())
    return out


def _hom_certificate(mod: JordanVermaModule, level: int) -> tuple:
    """(certified, singular dimension) of the hom-check verb, jordan <= 2.

    s1 = (L(0) - h - level) s2 is the top-2 part of a singular vector s2
    moved onto top index 1, so it is singular ([L(k), L(0)] = k L(k)) and
    an L(0) eigenvector, and check_hom_pair(s1, s2) holds exactly when s1
    is nonzero.  A kernel basis vector is supported on the columns up to
    its free column, top index 1 first, so that happens exactly when a
    free column is in the top-2 half.
    """
    free = _kernel(_lowering_tables(level), mod)[2]
    return any(f >= len(partitions(level)) for f in free), len(free)


def check_hom_pair(s1: ModuleVector, s2: ModuleVector) -> bool:
    """Certify that v' -> s1, w' -> s2 extends to a homomorphism
    M_2(c, h+N) -> M_2(c, h).

    Conditions: both vectors annihilated by L(1) and L(2); L(0)s1 = (h+N)s1;
    L(0)s2 = (h+N)s2 + s1.  This is the library certificate behind fixture
    04b and the test oracle of the hom-check verb, which reads its answer
    from the kernel instead (_hom_certificate).
    """
    if s1.module != s2.module:
        raise ShapeError("target vectors live in different modules")
    if s1.level != s2.level:
        raise ShapeError("target vectors at mismatched levels")
    mod = s1.module
    if mod.jordan != 2:
        raise DomainError("homomorphism certificate needs a jordan-size-2 target")
    mod.require_numeric("homomorphism certificate")
    weight = mod.h_value() + s1.level
    for s in (s1, s2):
        if not s.apply_mode(1).is_zero() or not s.apply_mode(2).is_zero():
            return False
    if s1.apply_mode(0) != s1.scale(weight):
        return False
    if s2.apply_mode(0) != s2.scale(weight) + s1:
        return False
    return True


# -- density modules --------------------------------------------------------


@dataclass(frozen=True)
class DensityModule:
    lam: Param
    mu: Param
    beta: Param
    depth: int = 0

    def __post_init__(self):
        if self.depth < 0:
            raise DomainError("log depth must be nonnegative")
        object.__setattr__(self, "lam", _check_param(self.lam, ("lam",)))
        object.__setattr__(self, "mu", _check_param(self.mu, ("mu",)))
        object.__setattr__(self, "beta", _check_param(self.beta, ("beta",)))

    def _coeffs(self):
        conv = lambda v: sym(v) if isinstance(v, str) else v
        return conv(self.lam), conv(self.mu), conv(self.beta)


def density_action(mod: DensityModule, m: int, label) -> dict:
    """L_m on u_r^(i): {(r-m, i): mu+r+lam(m+1)} plus the beta shift term.

    Labels are (r, i) pairs with 0 <= i <= depth; the result maps labels to
    coefficients.
    """
    r, i = label
    if not 0 <= i <= mod.depth:
        raise DomainError(f"log layer {i} outside 0..{mod.depth}")
    lam, mu, beta = mod._coeffs()
    out = {}
    main = mu + r + lam * (m + 1)
    if main:
        out[(r - m, i)] = main
    if i > 0:
        shift = beta * i
        if shift:
            out[(r - m, i - 1)] = shift
    return out


def density_apply(mod: DensityModule, m: int, vec: dict) -> dict:
    """Extend density_action linearly to {label: Coeff} combinations."""
    return accumulate(
        (lab2, coeff * q)
        for label, coeff in vec.items()
        for lab2, q in density_action(mod, m, label).items()
    )

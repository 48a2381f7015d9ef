"""Virasoro enveloping-algebra calculus: PBW words, normal ordering,
and the transpose anti-involution.

Generators L(n), n an integer, with the relation

    [L(m), L(n)] = (m - n) L(m+n) + delta_{m+n,0} (m^3 - m)/12 C

and C central.  A word is a tuple of mode indices read left to right as an
operator product; the canonical (PBW) form has nondecreasing indices, so
creation modes L(-n) sit leftmost.  Straightening rewrites any word into
canonical form by repeated swaps; each swap either removes an inversion or
shortens the word, so the rewriting terminates.  Two tables memoize this
work, since the structure constants do not depend on any module:
_STRAIGHTEN_MEMO maps a raw word to its canonical expansion, and
_COMMUTATOR_MEMO maps a pair of canonical words (w1, w2) to the commutator
[w1, w2] = straighten(w1 w2) - straighten(w2 w1), with the terms the two
orders share already cancelled.

An UEAElement keeps only canonical words (the constructor straightens), which
makes multiplication automatically canonical.  The bracket of two elements
sums coefficient products over the commutator table, so [L(m), L(n)] costs
one or two terms rather than two products and a subtraction.

The bracket's coefficients run as ints where they are integral and come
back as Fractions: _COMMUTATOR_MEMO stores integral values as ints (all but
some central values (m^3 - m)/12), the bracket turns its integral
coefficients into ints (polynomial.as_int), and the ints of the result
become Fractions again (polynomial.rational_terms).  _STRAIGHTEN_MEMO keeps
Fractions, and no element holds an int.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterable

from .errors import ParseError
from .polynomial import (
    Combination,
    accumulate,
    as_int,
    coeff_from_json,
    coeff_to_json,
    rational_terms,
    render_terms,
)

Word = tuple  # tuple of mode indices


def bracket_modes(m: int, n: int):
    """[L(m), L(n)] as a list of (word, cpow, Fraction) triples."""
    out = []
    if m != n:
        out.append(((m + n,), 0, Fraction(m - n)))
    if m + n == 0:
        central = Fraction(m**3 - m, 12)
        if central != 0:
            out.append(((), 1, central))
    return out


_STRAIGHTEN_MEMO: dict = {}


def straighten_word(word: Word) -> dict:
    """Expand a raw word over canonical words: {(word, cpow): Fraction}."""
    word = tuple(word)
    cached = _STRAIGHTEN_MEMO.get(word)
    if cached is not None:
        return cached
    descent = next(
        (i for i in range(len(word) - 1) if word[i] > word[i + 1]), None
    )
    if descent is None:
        result = {(word, 0): Fraction(1)}
    else:
        i = descent
        a, b = word[i], word[i + 1]
        result = accumulate(
            (
                ((w, p + dpow), q * scale)
                for mid, dpow, scale in bracket_modes(a, b)
                for (w, p), q in straighten_word(word[:i] + mid + word[i + 2:]).items()
            ),
            dict(straighten_word(word[:i] + (b, a) + word[i + 2:])),
        )
    _STRAIGHTEN_MEMO[word] = result
    return result


_COMMUTATOR_MEMO: dict = {}


def _word_commutator(w1: Word, w2: Word) -> dict:
    """[w1, w2] over canonical words: {(word, cpow): coefficient}, where an
    integral coefficient is stored as an int and any other as a Fraction.

    The result is the memo's own dict; callers copy what they keep.  The
    empty word (1, or a power of C) commutes with everything and gives {}.
    """
    key = (w1, w2)
    cached = _COMMUTATOR_MEMO.get(key)
    if cached is not None:
        return cached
    result = accumulate(
        ((w, -q) for w, q in straighten_word(w2 + w1).items()),
        dict(straighten_word(w1 + w2)),
    )
    for w, q in result.items():
        result[w] = as_int(q)
    _COMMUTATOR_MEMO[key] = result
    return result


class UEAElement(Combination):
    """Linear combination of canonical PBW words with Coeff coefficients.

    Keys are (word, central_power); the central element stays symbolic until
    a module specializes it.
    """

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        self.terms = accumulate(
            ((w, p + cpow), coeff * q)
            for (word, cpow), coeff in terms.items()
            if coeff
            for (w, p), q in straighten_word(word).items()
        ) if terms else {}

    @classmethod
    def from_word(cls, modes: Iterable[int], coeff=Fraction(1), cpow: int = 0):
        return cls({(tuple(modes), cpow): coeff})

    @classmethod
    def generator(cls, n: int) -> "UEAElement":
        return cls.from_word((n,))

    @classmethod
    def central(cls) -> "UEAElement":
        return cls({((), 1): Fraction(1)})

    @classmethod
    def one(cls) -> "UEAElement":
        return cls({((), 0): Fraction(1)})

    def __mul__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return UEAElement(accumulate(
            ((w1 + w2, p1 + p2), c1 * c2)
            for (w1, p1), c1 in self.terms.items()
            for (w2, p2), c2 in other.terms.items()
        ))

    def bracket(self, other: "UEAElement") -> "UEAElement":
        """self * other - other * self, summed over the commutator table;
        central powers add.  Integral coefficients multiply and add as
        ints, and come back as Fractions at the end."""
        right = [(w2, p2, as_int(c2)) for (w2, p2), c2 in other.terms.items()]
        pairs = []
        for (w1, p1), c1 in self.terms.items():
            c1 = as_int(c1)
            for w2, p2, c2 in right:
                table = _word_commutator(w1, w2)
                if table:
                    c = c1 * c2
                    pairs.extend(((w, p1 + p2 + p), c * q) for (w, p), q in table.items())
        return UEAElement._of(rational_terms(accumulate(pairs)))

    def transpose(self) -> "UEAElement":
        """Anti-involution: L(n) -> L(-n), words reversed, C fixed."""
        return UEAElement(accumulate(
            ((tuple(-m for m in reversed(word)), p), coeff)
            for (word, p), coeff in self.terms.items()
        ))

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (len(kv[0][0]), kv[0][0], kv[0][1])
        )

    def render(self) -> str:
        terms = []
        for (word, cpow), coeff in self._sorted_terms():
            runs = [(m, len(list(group))) for m, group in groupby(word)]
            body = "".join(f"L({m})" if k == 1 else f"L({m})^{k}" for m, k in runs)
            if cpow:
                body += "C" if cpow == 1 else f"C^{cpow}"
            terms.append((coeff, body))
        return render_terms(terms)

    __repr__ = render

    def to_json(self) -> list:
        return [
            {"word": list(word), "cpow": cpow, "coeff": coeff_to_json(coeff)}
            for (word, cpow), coeff in self._sorted_terms()
        ]

    @classmethod
    def from_json(cls, obj: list) -> "UEAElement":
        try:
            raw = {
                (tuple(t["word"]), t.get("cpow", 0)): coeff_from_json(t["coeff"])
                for t in obj
            }
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed enveloping-algebra element: {exc}") from exc
        return cls(raw)

"""Per-module straightening: the reference the tests check the mode action,
Gram matrices and singular vectors of virlog.modules against.

It straightens L(k) B(lam) v_top on one given module, in that module's own
coefficient arithmetic (Fraction for numeric parameters, MultiPoly for
symbolic ones), so the Jordan block enters through the L(0) rule on the
top level rather than through Taylor coefficients in h.  Of the
package's mode action it shares only the module-independent _prepend.
"""

from fractions import Fraction

from virlog.linalg import ExactMatrix
from virlog.modules import ModuleVector, _prepend, level_basis, partitions
from virlog.polynomial import accumulate

_MEMO: dict = {}


def apply_single(mod, k, lam, top):
    """L(k) on the basis vector (lam, top) of mod: {(mu, j): Coeff}."""
    key = (mod, k, lam, top)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    pairs = []
    if lam == ():
        if k == 0:
            pairs.append((((), top), mod.h_value()))
            if top > 1:
                pairs.append((((), top - 1), Fraction(1)))
        elif k < 0:
            pairs.append((((-k,), top), Fraction(1)))
        # k > 0 annihilates the top level
    else:
        s, rho = lam[-1], lam[:-1]
        # L(k) L(-s) = L(-s) L(k) + (k+s) L(k-s) + delta_{k,s} (k^3-k)/12 C
        pairs.extend(
            ((nu, j), q * w)
            for (mu, j), q in apply_single(mod, k, rho, top).items()
            for nu, w in _prepend(s, mu).items()
        )
        if k + s != 0:
            pairs.extend(
                ((mu, j), (k + s) * q)
                for (mu, j), q in apply_single(mod, k - s, rho, top).items()
            )
        if k == s:
            central = Fraction(k**3 - k, 12)
            if central != 0:
                pairs.append(((rho, top), central * mod.c_value()))
    out = accumulate(pairs)
    _MEMO[key] = out
    return out


def apply_mode(vec, k):
    new_level = vec.level - k
    if new_level < 0:
        return ModuleVector(vec.module, 0, {})
    out = accumulate(
        (label, coeff * q)
        for (lam, top), coeff in vec.terms.items()
        for label, q in apply_single(vec.module, k, lam, top).items()
    )
    return ModuleVector(vec.module, new_level, out)


def gram(mod, level):
    """Gram matrix: entry (a, b) is the coefficient of the top vector paired
    with a in the transpose word of a applied to b."""
    parts = sorted(partitions(level))
    basis = level_basis(mod, level)
    p = len(parts)
    size = mod.jordan * p
    entries = [[Fraction(0)] * size for _ in range(size)]
    for li, lam in enumerate(parts):
        for col, (mu, top) in enumerate(basis):
            vec = ModuleVector(mod, level, {(mu, top): Fraction(1)})
            for k in sorted(lam):
                vec = apply_mode(vec, k)
            for i in range(1, mod.jordan + 1):
                entries[(i - 1) * p + li][col] = vec.coeff(((), i))
    return ExactMatrix(entries)


def singular_vectors(mod, level):
    """Joint kernel of L(1) and L(2) at the level, each vector scaled so its
    first nonzero coefficient is 1."""
    basis = level_basis(mod, level)
    rows = []
    for gen in (1, 2):
        if level - gen < 0:
            continue
        images = [apply_mode(ModuleVector(mod, level, {b: Fraction(1)}), gen) for b in basis]
        for t in level_basis(mod, level - gen):
            rows.append([img.terms.get(t, Fraction(0)) for img in images])
    kernel = ExactMatrix(rows).null_space() if rows else []
    return [
        ModuleVector(mod, level, {b: q for b, q in zip(basis, vec) if q != 0}).normalize_leading()
        for vec in kernel
    ]

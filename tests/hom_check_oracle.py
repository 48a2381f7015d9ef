"""The hom-check verb's answer by Fraction arithmetic on module vectors:
the reference the tests check the kernel reading of the verb against.

It takes the singular basis from singular_vectors, applies the nilpotent
part of L(0) to each vector s2 by the mode action, s1 = L(0) s2 - w s2
with w = h + level, and asks check_hom_pair, which applies L(0), L(1) and
L(2) again, whether the pair certifies the embedding.  It shares the
singular basis with the verb but none of its reading of the free columns.
"""

from virlog.modules import check_hom_pair, singular_vectors


def hom_check(mod, level) -> dict:
    """{"certified", "singular-dimension"} as the verb reports them, for a
    numeric module of jordan size 1 or 2."""
    found = singular_vectors(mod, level)
    weight = mod.h_value() + level
    certified = False
    for s2 in found:
        s1 = s2.apply_mode(0) - s2.scale(weight)
        if not s1.is_zero() and check_hom_pair(s1, s2):
            certified = True
            break
    return {"certified": certified, "singular-dimension": len(found)}

"""One table of rendered strings for every type that prints a sparse sum.

All of them go through polynomial.render_terms, so the same rules hold
everywhere: the leading term carries its own minus sign, coefficients of
+-1 are left out before a body, a constant term prints its magnitude, a
non-constant polynomial coefficient prints in parentheses before a body
and spliced in without one, and an empty sum prints as 0.
"""

from fractions import Fraction as F

import pytest

from virlog.fusion import EulerOperator, LogSeries
from virlog.modules import JordanVermaModule, ModuleVector
from virlog.polynomial import MultiPoly, UniPoly, sym
from virlog.virasoro import UEAElement
from virlog.wlog import WLogElement

c, h, b = sym("c"), sym("h"), sym("b")
L = UEAElement.generator
M2 = JordanVermaModule("c", "h", 2)

CASES = [
    # MultiPoly
    (lambda: -h * h + 2 * c - 1, "-h^2 + 2*c - 1"),
    (lambda: c - h, "c - h"),
    (lambda: MultiPoly.const(F(-3, 2)), "-3/2"),
    (lambda: MultiPoly.const(0), "0"),
    # UniPoly: a constant polynomial coefficient prints like a rational
    (lambda: UniPoly("s", [MultiPoly.const(3), -1]), "-s + 3"),
    (lambda: UniPoly("s", [F(-1, 2), 0, c, -1]), "-s^3 + (c)*s^2 - 1/2"),
    (lambda: UniPoly("s", [c - 1, 1]), "s + c - 1"),
    (lambda: UniPoly("s", []), "0"),
    # EulerOperator
    (lambda: EulerOperator({(0, 2): 1, (1, 1): -1, (2, 0): F(3, 2)}), "d^2 - x^-1*d + 3/2*x^-2"),
    (lambda: EulerOperator({(0, 0): -1, (-1, 1): h}), "(h)*x*d - 1"),
    (lambda: EulerOperator(), "0"),
    # LogSeries: a symbolic constant term is spliced into the sum
    (
        lambda: LogSeries({(F(-1), 0): F(-1), (F(0), 0): b - 1, (F(1, 2), 1): F(1)}),
        "-x^(-1) + b - 1 + x^(1/2)*log(x)",
    ),
    (lambda: LogSeries({(F(-1), 0): F(1), (F(0), 0): 1 - b}), "x^(-1) - b + 1"),
    (lambda: LogSeries({(F(2), 2): F(1, 3) * b}), "(1/3*b)*x^2*log(x)^2"),
    (lambda: LogSeries(), "0"),
    # ModuleVector
    (lambda: ModuleVector(M2, 1, {((1,), 1): F(-1), ((1,), 2): 2 * c}), "-L(-1)v + (2*c)*L(-1)w"),
    (lambda: ModuleVector(M2, 2, {((1, 1), 2): F(1), ((2,), 1): F(5)}), "5*L(-2)v + L(-1)^2w"),
    (lambda: ModuleVector(M2, 2, {}), "0"),
    # UEAElement: the empty word has an empty body
    (lambda: L(2) * L(-2), "1/2*C + 4*L(0) + L(-2)L(2)"),
    (lambda: (L(2) * L(-2)).specialize_central(c), "1/2*c + 4*L(0) + L(-2)L(2)"),
    (lambda: UEAElement.from_word((-1, -1), F(-1), cpow=2), "-L(-1)^2C^2"),
    (lambda: UEAElement.one().scale(F(-1)), "-1"),
    (lambda: UEAElement(), "0"),
    # WLogElement: the central term has body b
    (lambda: WLogElement({(0, 1): F(-1), (1, -1): F(1)}, F(-1, 2)), "-t^(0)(1) + t^(1)(-1) - 1/2*b"),
    (lambda: WLogElement({(0, 0): F(2)}, c), "2*t^(0)(0) + (c)*b"),
    (lambda: WLogElement.central_element(F(-1)), "-b"),
    (lambda: WLogElement(), "0"),
]


@pytest.mark.parametrize("make,want", CASES, ids=[want for _, want in CASES])
def test_render(make, want):
    assert make().render() == want

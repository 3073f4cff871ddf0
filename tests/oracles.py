"""Fraction routes kept as test oracles for the library's integer ones.

Lagrange interpolation through sampled values, and the Fraction Horner
scheme and antiderivative that Polynomial evaluated and integrated with
before it moved to integer numerators over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from toricstab.volume_fn import Polynomial


def fit_polynomial(xs: Sequence, ys: Sequence) -> Polynomial:
    """Exact Lagrange interpolation through distinct rational nodes."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    result = Polynomial(())
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Polynomial.of(1)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = term * Polynomial.of(-xj, 1)
            denom *= xi - xj
        result = result + term.scale(yi / denom)
    return result


def fraction_horner(poly: Polynomial, x) -> Fraction:
    """poly(x) by Horner's scheme on the Fraction coefficients."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def antiderivative(poly: Polynomial) -> Polynomial:
    """The antiderivative vanishing at 0, coefficient by coefficient in Fractions."""
    return Polynomial((Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(poly.coeffs)))


def antiderivative_integral(poly: Polynomial, a, b) -> Fraction:
    """The integral from a to b as the difference of the antiderivative's Fraction Horner values."""
    anti = antiderivative(poly)
    return fraction_horner(anti, b) - fraction_horner(anti, a)

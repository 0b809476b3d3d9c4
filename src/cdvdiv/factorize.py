"""Factorization of sparse x,y,z,t-polynomials over Q.

The input's denominators are cleared with their lcm and it is factored over Z
by sympy's dense multivariate routine (`dmp_factor_list`), in only the
variables that occur in its support.  Every returned factor is normalized to
integer content 1 with a positive leading coefficient in grlex order, and the
factorization is re-multiplied and compared against the input before it is
returned, so a wrong answer cannot slip through silently.  Monomial content
can be split off first with `strip_monomial_content`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Tuple

from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list

from cdvdiv.poly import ExponentVector, Polynomial, ZERO_EXPONENT, grlex_key


def monomial_content(f: Polynomial) -> ExponentVector:
    """Componentwise minimum exponent over the support (the monomial gcd)."""
    if f.is_zero():
        return ZERO_EXPONENT
    support = f.support()
    return tuple(min(v[i] for v in support) for i in range(4))


def strip_monomial_content(f: Polynomial) -> Tuple[ExponentVector, Polynomial]:
    content = monomial_content(f)
    if content == ZERO_EXPONENT:
        return content, f
    stripped = Polynomial(
        {
            tuple(e - c for e, c in zip(exps, content)): coeff
            for exps, coeff in f.items()
        }
    )
    return content, stripped


def normalize_integer_primitive(f: Polynomial) -> Tuple[Fraction, Polynomial]:
    """Write f = scalar * g with g of integer content 1, positive grlex lead."""
    if f.is_zero():
        return Fraction(1), f
    denominators = 1
    for _exps, coeff in f.items():
        denominators = denominators * coeff.denominator // gcd(
            denominators, coeff.denominator
        )
    numerators = 0
    for _exps, coeff in f.items():
        numerators = gcd(numerators, abs(coeff.numerator * (denominators // coeff.denominator)))
    scalar = Fraction(numerators, denominators)
    lead = max(f.support(), key=grlex_key)
    if f.coefficient(lead) < 0:
        scalar = -scalar
    return scalar, f.scale(1 / scalar)


def rational_factors(f: Polynomial) -> Tuple[Fraction, List[Tuple[Polynomial, int]]]:
    """Irreducible factors of f over Q with multiplicities.

    Returns (constant, [(factor, multiplicity), ...]) with each factor
    integer-primitive with positive leading coefficient; the product of
    constant * prod(factor^multiplicity) is verified to reproduce f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    denominator = lcm(*(coeff.denominator for _exps, coeff in f.items()))
    # A constant has no variable in its support; it is factored as a
    # polynomial of degree 0 in x.
    used = [i for i in range(4) if any(exps[i] for exps, _coeff in f.items())] or [0]
    level = len(used) - 1
    integral = {
        tuple(exps[i] for i in used): ZZ(coeff.numerator * (denominator // coeff.denominator))
        for exps, coeff in f.items()
    }
    content, raw = dmp_factor_list(dmp_from_dict(integral, level, ZZ), level, ZZ)
    constant = Fraction(int(content), denominator)
    factors: List[Tuple[Polynomial, int]] = []
    for dense_factor, mult in raw:
        terms = {}
        for short, coeff in dmp_to_dict(dense_factor, level).items():
            exps = [0, 0, 0, 0]
            for i, e in zip(used, short):
                exps[i] = e
            terms[tuple(exps)] = Fraction(int(coeff))
        scalar, primitive = normalize_integer_primitive(Polynomial(terms))
        constant *= scalar**mult
        factors.append((primitive, mult))
    factors.sort(
        key=lambda pair: (pair[0].degree(), sorted(exps for exps, _coeff in pair[0].items()))
    )
    check = Polynomial.constant(constant)
    for factor, mult in factors:
        check = check * factor**mult
    if check != f:
        raise AssertionError("factorization failed to reproduce the input")
    return constant, factors

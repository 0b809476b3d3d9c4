"""Factorization of sparse x,y,z,t-polynomials over Q.

`rational_factors` splits off the monomial content x^c first: each variable
with c_i > 0 is the factor (x_i, c_i).  The cofactor f is then settled by the
first rule that applies:

- **Constant.**  f has one term: it is the constant.
- **Binomial** c1*X^a + c2*X^b.  With g the gcd of the entries of a - b,
  Ostrowski's theorem (Newt(pq) = Newt(p) + Newt(q)) reduces f to
  u^g - r, r = -c2/c1, and Capelli's theorem makes that irreducible over Q
  iff r is not a p-th power in Q for any prime p | g and, when 4 | g, r is
  not in -4*Q^4.
- **Linear in one variable** v: one term holds v, with exponent 1.
- **Primitive simplex.**  The support is affinely independent and the
  differences v_i - v_0 have coordinate gcd 1, so Newt(f) is integrally
  indecomposable (Gao, "Absolute irreducibility of polynomials via Newton
  polytopes", J. Algebra 2001).
- **Non-degenerate polygon.**  The support has affine rank 2, and
  `newton.polygon_nondegeneracy` certifies f and every edge polynomial of
  its Newton polygon non-degenerate (an edge with two points is a binomial
  and a vertex a monomial, both smooth on the torus, so it tests the edges
  with three or more).  A unimodular monomial change moves the saturated
  lattice of the polygon's plane onto two coordinates, so Z_f is
  (C*)^2 x Z_f' in the torus.  The closure of Z_f' in the projective toric
  surface of the polygon, which is normal, is an ample effective divisor,
  so it is connected (Hartshorne III.7.9).  It is smooth, because f' is
  non-degenerate on the polygon, on its edges and at its vertices, and it
  meets the boundary only in finitely many points.  A connected smooth
  curve is irreducible, so Z_f is irreducible and reduced, and f is
  irreducible over C, so over Q (Khovanskii, "Newton polyhedra and the
  genus of complete intersections", 1978).  The edges matter:
  (x+y+z)(x+y+2z) is non-degenerate on its whole polygon, but its edge
  (x+y)^2 is not.

Each rule proves f irreducible, so f is its own single factor.  When no rule
applies, the cofactor's denominators are cleared with their lcm and it is
factored over Z by sympy's dense multivariate routine (`dmp_factor_list`), in
only the variables that occur in its support; sympy is imported on that first
fallback, not with this module.  Every returned factor is normalized to
integer content 1 with a positive leading coefficient in grlex order, and the
factorization is re-multiplied and compared against the input before it is
returned, so a wrong product cannot slip through silently.  A wrong
irreducibility claim would reproduce the input, so the rules are guarded by
oracle tests against sympy instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple

from cdvdiv.newton import NONDEGENERATE_CERTIFIED, _affine_rank, polygon_nondegeneracy
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


def _integer_root(n: int, p: int) -> Optional[int]:
    """The integer m with m**p == n, or None; exact integer Newton steps."""
    if n < 0:
        if p % 2 == 0:
            return None
        m = _integer_root(-n, p)
        return None if m is None else -m
    if n < 2:
        return n
    # 2^ceil(bits/p) >= n^(1/p); the iteration falls to floor(n^(1/p)).
    m = 1 << -(-n.bit_length() // p)
    while True:
        step = ((p - 1) * m + n // m ** (p - 1)) // p
        if step >= m:
            break
        m = step
    return m if m**p == n else None


def _is_power(r: Fraction, p: int) -> bool:
    """Whether r is a p-th power in Q: its coprime numerator and denominator are."""
    return (
        _integer_root(r.numerator, p) is not None
        and _integer_root(r.denominator, p) is not None
    )


def _prime_divisors(n: int) -> List[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _difference_gcd(points) -> int:
    """gcd of all coordinates of v - points[0] over the points v."""
    g = 0
    for v in points[1:]:
        for vi, bi in zip(v, points[0]):
            g = gcd(g, vi - bi)
    return g


def _binomial_irreducible(f: Polynomial) -> bool:
    """c1*X^a + c2*X^b without monomial content, by Ostrowski and Capelli.

    With g = gcd(a - b) and e = (a - b)/g, f = X^b * P(X^e) for
    P(u) = c1*u^g + c2.  By Ostrowski's theorem (Newt(pq) = Newt(p) +
    Newt(q)) every factor of f has a Newton polytope on a segment parallel
    to e, so it is X^b' * Q(X^e) for a factor Q of P; a factor with a point
    polytope is a monomial, which f lacks.  As e is primitive, a unimodular
    monomial change sends X^e to one variable, so f is irreducible iff
    u^g - r is, r = -c2/c1.  Capelli's theorem: u^g - r is irreducible over
    Q iff r is not a p-th power in Q for any prime p | g and, when 4 | g,
    r is not in -4*Q^4.
    """
    (a, c1), (b, c2) = f.items()
    g = _difference_gcd((a, b))
    r = -c2 / c1
    if any(_is_power(r, p) for p in _prime_divisors(g)):
        return False
    return g % 4 != 0 or not _is_power(-r / 4, 4)


def _linear_in_one_variable(f: Polynomial) -> bool:
    """f = m*v + b with m a monomial and v absent from b != 0.

    A factor of f free of v divides m, so it is a monomial; f has no monomial
    content, so that factor is a constant and f is irreducible.
    """
    for i in range(4):
        holding = [exps[i] for exps, _coeff in f.items() if exps[i]]
        if holding == [1]:
            return True
    return False


def _primitive_simplex(f: Polynomial) -> bool:
    """Affinely independent support v_0..v_k with gcd(v_i - v_0) = 1.

    Newt(f) is then a simplex that is integrally indecomposable (Gao 2001,
    the pyramid theorem applied to v_0 over the opposite facet), so by
    Ostrowski's theorem one factor of f has a point polytope: a monomial,
    which f without monomial content only has as a constant.
    """
    support = f.support()
    return _affine_rank(support) == len(support) - 1 and _difference_gcd(support) == 1


def _nondegenerate_polygon(f: Polynomial) -> bool:
    """Support of affine rank 2, with f and its edges certified non-degenerate.

    The closure of the zero set in the toric surface of the polygon is then
    a smooth, connected ample divisor, so f is irreducible (module
    docstring).
    """
    return (
        _affine_rank(f.support()) == 2
        and polygon_nondegeneracy(f).status == NONDEGENERATE_CERTIFIED
    )


def _proved_irreducible(f: Polynomial) -> bool:
    """Whether a Newton-polytope rule proves f (no monomial content) irreducible."""
    if len(f) == 2:
        return _binomial_irreducible(f)
    return _linear_in_one_variable(f) or _primitive_simplex(f) or _nondegenerate_polygon(f)


def _sympy_factors(f: Polynomial) -> Tuple[Fraction, List[Tuple[Polynomial, int]]]:
    """Factor f over Z with sympy's `dmp_factor_list`, imported on first use.

    Returns (constant, [(factor, multiplicity), ...]) with each factor
    integer-primitive with positive leading coefficient, unsorted.
    """
    from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dmp_factor_list

    denominator = lcm(*(coeff.denominator for _exps, coeff in f.items()))
    used = [i for i in range(4) if any(exps[i] for exps, _coeff in f.items())]
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
    return constant, factors


def rational_factors(f: Polynomial) -> Tuple[Fraction, List[Tuple[Polynomial, int]]]:
    """Irreducible factors of f over Q with multiplicities.

    Returns (constant, [(factor, multiplicity), ...]) with each factor
    integer-primitive with positive leading coefficient; the product of
    constant * prod(factor^multiplicity) is verified to reproduce f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    content, cofactor = strip_monomial_content(f)
    if len(cofactor) == 1:
        constant, factors = cofactor.coefficient(ZERO_EXPONENT), []
    elif _proved_irreducible(cofactor):
        constant, primitive = normalize_integer_primitive(cofactor)
        factors = [(primitive, 1)]
    else:
        constant, factors = _sympy_factors(cofactor)
    for i, c in enumerate(content):
        if c:
            unit = [0, 0, 0, 0]
            unit[i] = 1
            factors.append((Polynomial.monomial(unit), c))
    factors.sort(
        key=lambda pair: (pair[0].degree(), sorted(exps for exps, _coeff in pair[0].items()))
    )
    check = Polynomial.constant(constant)
    for factor, mult in factors:
        check = check * factor**mult
    if check != f:
        raise AssertionError("factorization failed to reproduce the input")
    return constant, factors

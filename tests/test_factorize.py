"""rational_factors against the expression route through sympy.factor_list.

The oracle builds a sympy expression term by term, factors it with
`sympy.factor_list`, parses every factor back through `sympy.Poly` and then
normalizes and sorts exactly as `rational_factors` does, so both must return
the same (constant, factors).
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.densebasic import dmp_from_dict

from cdvdiv import factorize
from cdvdiv.factorize import normalize_integer_primitive, rational_factors
from cdvdiv.poly import Polynomial, parse_polynomial

P = parse_polynomial

SYMBOLS = sympy.symbols("x y z t")


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def oracle_factors(f: Polynomial):
    expr = sympy.Integer(0)
    for exps, coeff in f.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for symbol, e in zip(SYMBOLS, exps):
            term *= symbol**e
        expr += term
    const, raw = sympy.factor_list(expr)
    constant = _fraction(const)
    factors = []
    for factor_expr, mult in raw:
        poly = sympy.Poly(factor_expr, *SYMBOLS)
        factor = Polynomial(
            {tuple(int(e) for e in monom): _fraction(c) for monom, c in poly.terms()}
        )
        scalar, primitive = normalize_integer_primitive(factor)
        constant *= scalar ** int(mult)
        factors.append((primitive, int(mult)))
    factors.sort(key=lambda pair: (pair[0].degree(), sorted(pair[0].terms)))
    return constant, factors


def _random_factor(rng: random.Random, variables) -> Polynomial:
    """A polynomial with 1-3 terms in the given variable indices."""
    terms = {}
    for _ in range(rng.choice([1, 2, 2, 3])):
        exps = [0, 0, 0, 0]
        for i in variables:
            exps[i] = rng.randint(0, 2)
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    factor = Polynomial(terms)
    return factor if not factor.is_zero() else Polynomial.constant(1)


def _seeded_products(count: int, seed: int = 20240):
    rng = random.Random(seed)
    products = []
    for _ in range(count):
        # 1-4 variables drawn from x, y, z, t, so unused ones fall in between.
        variables = sorted(rng.sample(range(4), rng.randint(1, 4)))
        f = Polynomial.constant(Fraction(rng.choice([-7, -1, 1, 4]), rng.choice([1, 3, 6])))
        for _ in range(rng.randint(1, 3)):
            f = f * _random_factor(rng, variables) ** rng.choice([1, 1, 1, 2])
        products.append(f)
    return products


FIXED = [
    "t^12 - 1",
    "y^2 - 4*z^2*t^2",
    "x^2 - 9*t^4",
    "y^4 - z^4",
    "y^2*t^2 - x^2*z^2",
    "-1/2*z^6 + 1/2",
    "x^3 + y^3 + z^3 + t^3",
    "y^3*z - y*z^3",
    "6",
    "-3/4",
]

INPUTS = [P(s) for s in FIXED] + _seeded_products(50)


@pytest.mark.parametrize("f", INPUTS, ids=[f"input{i}" for i in range(len(INPUTS))])
def test_matches_the_expression_route(f):
    assert rational_factors(f) == oracle_factors(f)


def test_inputs_cover_the_required_shapes():
    used = {sum(1 for i in range(4) if any(e[i] for e in f.support())) for f in INPUTS}
    assert used == {0, 1, 2, 3, 4}
    assert any(
        not any(e[1] for e in f.support()) and any(e[2] for e in f.support())
        for f in INPUTS
    )
    assert any(c.denominator > 1 for f in INPUTS for _e, c in f.items())
    assert any(mult > 1 for f in INPUTS for _g, mult in rational_factors(f)[1])


@pytest.mark.parametrize("text", ["y^2 - 4*z^2*t^2", "6"])
def test_wrong_factor_is_caught(monkeypatch, text):
    real = factorize.dmp_factor_list

    def with_extra_factor(f, level, domain):
        content, factors = real(f, level, domain)
        one = (0,) * (level + 1)
        first_variable = (1,) + one[1:]
        extra = dmp_from_dict({one: domain(1), first_variable: domain(1)}, level, domain)
        return content, [*factors, (extra, 1)]

    monkeypatch.setattr(factorize, "dmp_factor_list", with_extra_factor)
    with pytest.raises(AssertionError, match="failed to reproduce"):
        rational_factors(P(text))

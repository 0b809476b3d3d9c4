"""rational_factors against the expression route through sympy.factor_list.

The oracle builds a sympy expression term by term, factors it with
`sympy.factor_list`, parses every factor back through `sympy.Poly` and then
normalizes and sorts exactly as `rational_factors` does, so both must return
the same (constant, factors).  The inputs include seeded polynomials of each
shape that `rational_factors` proves irreducible without sympy (binomials,
polynomials linear in one variable, primitive simplices) and the boundary
cases of those rules that must fall back to sympy.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

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


def _random_monomial(rng: random.Random, top: int = 2):
    return tuple(rng.randint(0, top) for _ in range(4))


def _with_content(rng: random.Random, f: Polynomial) -> Polynomial:
    """f times a random monomial, often the trivial one."""
    return f * Polynomial.monomial(_random_monomial(rng) if rng.random() < 0.5 else (0, 0, 0, 0))


def _random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.choice([1, 2, 3, 4]))


def _seeded_binomials(count: int, seed: int = 20241):
    """c*(X^a - r*X^b) with lattice length g and r often at a Capelli boundary."""
    rng = random.Random(seed)
    products = []
    while len(products) < count:
        e = [rng.randint(-2, 2) for _ in range(4)]
        step = 0
        for ei in e:
            step = math.gcd(step, ei)
        if not step:
            continue
        g = rng.choice([1, 2, 3, 4, 6, 8, 12])
        a = tuple(g * max(ei, 0) // step for ei in e)
        b = tuple(g * max(-ei, 0) // step for ei in e)
        s = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        r = rng.choice([_random_coeff(rng), s**2, s**3, s**4, -4 * s**4, -(s**2)])
        c = _random_coeff(rng)
        products.append(_with_content(rng, Polynomial({a: c, b: -c * r})))
    return products


def _seeded_linear(count: int, seed: int = 20242):
    """m*v + b with v absent from b."""
    rng = random.Random(seed)
    products = []
    for _ in range(count):
        v = rng.randrange(4)
        head = list(_random_monomial(rng))
        head[v] = 1
        terms = {tuple(head): _random_coeff(rng)}
        for _ in range(rng.randint(1, 3)):
            exps = list(_random_monomial(rng, 4))
            exps[v] = 0
            terms[tuple(exps)] = _random_coeff(rng)
        products.append(_with_content(rng, Polynomial(terms)))
    return products


def _seeded_simplices(count: int, seed: int = 20243):
    """2-4 random support points, scaled by 2 in a third of the draws."""
    rng = random.Random(seed)
    products = []
    for _ in range(count):
        scale = rng.choice([1, 1, 2])
        terms = {
            tuple(scale * e for e in _random_monomial(rng, 4)): _random_coeff(rng)
            for _ in range(rng.randint(2, 4))
        }
        products.append(_with_content(rng, Polynomial(terms)))
    return products


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
    "3*x^2*y",
    "x*z^2 + y^2*z",
]

# Faces at the edge of a rule: each is reducible, or lies outside every rule,
# so it must reach sympy.
FALLBACK = [
    "x^4 + 4*y^4",  # r = -4 in -4*Q^4 with 4 | g
    "x^6 - 8*t^6",  # r = 8 a cube, 3 | 6
    "x^3 + 8/27*z^3",  # r = -8/27 = (-2/3)^3
    "y^2 - 4*z^2*t^2",  # r = 4 a square
    "t^60 - 32",  # g = 60, r = 32 a 5th power but no square or cube
    "x^2 + 9/2*z^12 + 5*t^12",  # affinely independent, coordinate gcd 2
]

# Faces that a rule proves irreducible (or a constant times content), so they
# never reach sympy.  The first is the face sympy's Wang lifting stalls on for
# tens of seconds under `sympy.core.random.rng.seed(2)`; the linear ones are
# corpus faces.
CERTIFIED = [
    "x^2 + y^2*z + 3/4*t^22",
    "y^2*z + z^3",
    "x*z^2 + y^2*z",
    "6",
    "3*x^2*y",
    "x^2 + 3*t^6",
    "x^2 + y^3 + y*z^3",
    "-2*t^12 + 5/2*y*t^7 + y^2*z + x^2",
    "-1/2*z^6 - 8*z*t^5 - 7/3*t^6 + y*z^3 + x^2",
    "-7*y*t^3 + 3*t^4 + y^2*z + x^2",
    "t^60 - 3",
]

SHAPES = _seeded_binomials(40) + _seeded_linear(25) + _seeded_simplices(25)

INPUTS = [P(s) for s in FIXED + FALLBACK + CERTIFIED] + _seeded_products(50) + SHAPES


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


def _refuse_sympy(f):
    raise AssertionError(f"sympy was called on {f}")


@pytest.mark.parametrize("text", CERTIFIED)
def test_certified_shapes_skip_sympy(monkeypatch, text):
    monkeypatch.setattr(factorize, "_sympy_factors", _refuse_sympy)
    rational_factors(P(text))


@pytest.mark.parametrize("text", FALLBACK)
def test_rule_boundaries_fall_back(monkeypatch, text):
    monkeypatch.setattr(factorize, "_sympy_factors", _refuse_sympy)
    with pytest.raises(AssertionError, match="sympy was called"):
        rational_factors(P(text))


def test_seeded_shapes_cover_every_rule():
    rules = {"fallback": 0, "binomial": 0, "linear": 0, "simplex": 0, "content": 0}
    for f in SHAPES:
        _content, g = factorize.strip_monomial_content(f)
        rules["content"] += g != f
        if len(g) == 2 and factorize._binomial_irreducible(g):
            rules["binomial"] += 1
        elif factorize._linear_in_one_variable(g):
            rules["linear"] += 1
        elif factorize._primitive_simplex(g):
            rules["simplex"] += 1
        else:
            rules["fallback"] += 1
    assert min(rules.values()) >= 5, rules


def test_importing_the_cli_does_not_import_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, cdvdiv, cdvdiv.cli; "
        "print('sympy' in sys.modules, 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("text", ["y^2 - 4*z^2*t^2", "x^4 + 4*y^4"])
def test_wrong_factor_is_caught(monkeypatch, text):
    real = factorize._sympy_factors
    calls = []

    def with_extra_factor(f):
        calls.append(f)
        constant, factors = real(f)
        return constant, [*factors, (P("x + 1"), 1)]

    monkeypatch.setattr(factorize, "_sympy_factors", with_extra_factor)
    with pytest.raises(AssertionError, match="failed to reproduce"):
        rational_factors(P(text))
    assert calls


def test_wrong_fast_path_constant_is_caught(monkeypatch):
    real = factorize.normalize_integer_primitive

    def doubled(f):
        scalar, primitive = real(f)
        return 2 * scalar, primitive

    monkeypatch.setattr(factorize, "normalize_integer_primitive", doubled)
    monkeypatch.setattr(factorize, "_sympy_factors", _refuse_sympy)
    with pytest.raises(AssertionError, match="failed to reproduce"):
        rational_factors(P("x*z^2 + y^2*z"))

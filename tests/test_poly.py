import random
from fractions import Fraction

import pytest

from cdvdiv.poly import (
    ParseError,
    Polynomial,
    Substitution,
    apply_substitution,
    parse_polynomial,
    pretty,
)


def P(text):
    return parse_polynomial(text)


def random_polynomial(rng, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(4))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if coeff:
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Polynomial(terms)


class TestParse:
    def test_example_1_support(self):
        f = P("x^2 + y^2*z + z^3 + t^3")
        assert set(f.terms) == {(2, 0, 0, 0), (0, 2, 1, 0), (0, 0, 3, 0), (0, 0, 0, 3)}
        assert all(c == 1 for c in f.terms.values())

    def test_zero(self):
        assert P("0").is_zero()
        assert P("0").terms == {}

    def test_rational_coefficients(self):
        f = P("x^2 - 1/2*z*t^4")
        assert f.coefficient((2, 0, 0, 0)) == 1
        assert f.coefficient((0, 0, 1, 4)) == Fraction(-1, 2)

    def test_like_terms_merge(self):
        assert P("x + x") == P("2*x")
        assert P("x - x").is_zero()

    def test_leading_minus_and_constants(self):
        assert P("-x + 1") == Polynomial.constant(1) - Polynomial.variable("x")
        assert P("3/4") == Polynomial.constant(Fraction(3, 4))

    def test_whitespace_insignificant(self):
        assert P(" x ^ 2 +  y^2 * z ") == P("x^2+y^2*z")

    @pytest.mark.parametrize(
        "bad",
        ["", "x +", "x^0", "x^-2", "w^2", "2 2", "x*", "x^", "*x", "1/0"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            P(bad)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as err:
            P("x^2 + w")
        assert err.value.position == 6


class TestPrinting:
    def test_roundtrip_fixed_point(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_polynomial(rng)
            text = pretty(f)
            again = parse_polynomial(text)
            assert again == f
            assert pretty(again) == text

    def test_zero_prints_as_zero(self):
        assert pretty(Polynomial.zero()) == "0"

    def test_grlex_descending(self):
        assert pretty(P("x^2 + t^3 + z^3 + y^2*z")) == "y^2*z + z^3 + t^3 + x^2"


class TestRingLaws:
    def test_randomized_laws(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_polynomial(rng)
            b = random_polynomial(rng)
            c = random_polynomial(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Polynomial.zero()

    def test_exactness(self):
        third = Polynomial.constant(Fraction(1, 3))
        assert third + third + third == Polynomial.constant(1)

    def test_power(self):
        f = P("x + y")
        assert f**3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert f**0 == Polynomial.constant(1)


class TestSubstitution:
    def test_completing_square_example(self):
        f = P("x^2 + 2*x*t^3")
        s = Substitution.single("x", P("x - t^3"), truncation_degree=12)
        assert apply_substitution(f, s) == P("x^2 - t^6")

    def test_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_polynomial(rng)
            s = Substitution.identity(truncation_degree=40)
            assert apply_substitution(f, s) == f

    def test_binomial_expansion(self):
        f = P("y^2")
        s = Substitution.single("y", P("y + z"), truncation_degree=8)
        assert apply_substitution(f, s) == P("y^2 + 2*y*z + z^2")

    def test_truncation_drops_high_degree(self):
        f = P("x^2")
        s = Substitution.single("x", P("x + t^3"), truncation_degree=4)
        assert apply_substitution(f, s) == P("x^2 + 2*x*t^3")

    def test_constant_replacement_is_exact(self):
        # Replacements of degree 0 disable intermediate pruning, so terms
        # whose degree only drops below the cutoff after substitution survive.
        f = P("y*t^5")
        s = Substitution.single("t", P("1"), truncation_degree=3)
        assert apply_substitution(f, s) == P("y")

    def test_rejects_zero_replacement(self):
        with pytest.raises(ValueError):
            Substitution.single("x", Polynomial.zero(), truncation_degree=4)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            Substitution.identity(truncation_degree=0)


class TestCalculus:
    def test_derivative(self):
        f = P("x^2 + y^2*z + z^3 + t^3")
        assert f.derivative("x") == P("2*x")
        assert f.derivative("z") == P("y^2 + 3*z^2")

    def test_evaluate(self):
        f = P("x^2 - 1/2*z*t^4")
        assert f.evaluate([2, 0, 1, 1]) == Fraction(7, 2)

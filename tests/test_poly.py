import itertools
import random
from fractions import Fraction

import pytest

from cdvdiv.normalform import _binomial_half_series
from cdvdiv.poly import (
    VARS,
    ParseError,
    Polynomial,
    Substitution,
    apply_substitution,
    from_integers,
    integer_form,
    mul_graded,
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
        assert P("x + y - x") == P("y")
        assert P("x + y - x + 1/2*x - y") == P("1/2*x")

    def test_leading_minus_and_constants(self):
        assert P("-x + 1") == Polynomial.constant(1) - Polynomial.variable("x")
        assert P("3/4") == Polynomial.constant(Fraction(3, 4))

    def test_whitespace_insignificant(self):
        assert P(" x ^ 2 +  y^2 * z ") == P("x^2+y^2*z")

    @pytest.mark.parametrize(
        "bad",
        [
            "", "x +", "x^0", "x^-2", "w^2", "2 2", "x*", "x^", "*x", "1/0",
            # str.isdigit() holds for these, but only ASCII digits are read
            "x^\u00b2 + y^3 + z^5 + t^7", "x^2 + y^3 + z^5 + t^\u0667",
            "\u00b2*x", "3/\u0662*x", "\u0663",
        ],
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


# Denominators of the oracle tests' coefficients: several distinct primes and
# prime powers, so that common denominators and their powers are exercised.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9)


def random_coefficient(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(DENOMINATORS))


def random_terms(rng, count, min_degree, max_degree):
    """A polynomial with up to `count` terms of degree min_degree..max_degree."""
    terms = {}
    for _ in range(count):
        degree = rng.randint(min_degree, max_degree)
        exps = [0, 0, 0, 0]
        for _ in range(degree):
            exps[rng.randrange(4)] += 1
        terms[tuple(exps)] = random_coefficient(rng)
    return Polynomial(terms)


def expanded(f, s):
    """The composition by full expansion with `__mul__`, truncated after."""
    total = Polynomial.zero()
    for exps, coeff in f.items():
        term = Polynomial.constant(coeff)
        for repl, power in zip(s.replacements, exps):
            term = term * repl**power
        total = total + term
    return total.truncate(s.truncation_degree)


def assert_matches_expansion(f, s):
    result = apply_substitution(f, s)
    assert result == expanded(f, s)
    assert all(coeff != 0 for _exps, coeff in result.items())


def truncated_product(a, b, degree):
    (graded_a, den_a), (graded_b, den_b) = integer_form(a), integer_form(b)
    terms = {}
    for group in mul_graded(graded_a, graded_b, degree):
        terms.update(group)
    return from_integers(terms, den_a * den_b)


def series_by_powers(u, truncation):
    """(1 + u)^(-1/2) summed from whole powers of u, each truncated after."""
    series = Polynomial.constant(1)
    coeff = Fraction(1)
    power = Polynomial.constant(1)
    for j in range(1, truncation // u.min_degree() + 2):
        coeff = coeff * Fraction(-(2 * j - 1), 2 * j)
        power = (power * u).truncate(truncation)
        if power.is_zero():
            break
        series = series + power.scale(coeff)
    return series.truncate(truncation)


class TestSubstitutionOracle:
    """The truncated integer kernel against the full expansion."""

    def test_single_variable_replacements(self):
        rng = random.Random(101)
        for _ in range(60):
            f = random_terms(rng, rng.randint(1, 10), 0, 7)
            var = rng.choice(VARS)
            repl = Polynomial.variable(var) + random_terms(rng, rng.randint(1, 6), 1, 5)
            assert_matches_expansion(f, Substitution.single(var, repl, rng.randint(1, 14)))

    def test_replacement_without_the_variable_itself(self):
        rng = random.Random(102)
        for _ in range(40):
            f = random_terms(rng, rng.randint(1, 8), 0, 6)
            var = rng.choice(VARS)
            repl = random_terms(rng, rng.randint(1, 5), 1, 4)
            assert_matches_expansion(f, Substitution.single(var, repl, rng.randint(1, 12)))

    def test_all_variables_replaced(self):
        rng = random.Random(103)
        for _ in range(30):
            f = random_terms(rng, rng.randint(1, 8), 0, 6)
            repls = tuple(
                Polynomial.variable(v) + random_terms(rng, rng.randint(1, 3), 1, 3)
                for v in VARS
            )
            assert_matches_expansion(f, Substitution(repls, rng.randint(1, 10)))

    def test_two_variables_replaced(self):
        rng = random.Random(104)
        for _ in range(30):
            f = random_terms(rng, rng.randint(1, 8), 0, 6)
            repls = [Polynomial.variable(v) for v in VARS]
            for i in rng.sample(range(4), 2):
                repls[i] = repls[i] + random_terms(rng, rng.randint(1, 3), 1, 4)
            assert_matches_expansion(f, Substitution(tuple(repls), rng.randint(1, 12)))

    def test_permutations(self):
        rng = random.Random(105)
        for _ in range(30):
            f = random_terms(rng, rng.randint(1, 10), 0, 8)
            order = rng.sample(range(4), 4)
            repls = tuple(
                Polynomial.variable(VARS[order[i]]).scale(random_coefficient(rng))
                for i in range(4)
            )
            assert_matches_expansion(f, Substitution(repls, rng.randint(1, 10)))

    def test_constant_terms_disable_pruning(self):
        rng = random.Random(106)
        for _ in range(40):
            f = random_terms(rng, rng.randint(1, 6), 0, 6)
            repls = [Polynomial.variable(v) for v in VARS]
            for i in rng.sample(range(4), rng.randint(1, 2)):
                repls[i] = random_terms(rng, rng.randint(1, 3), 0, 2) + Polynomial.constant(
                    random_coefficient(rng)
                )
            assert_matches_expansion(f, Substitution(tuple(repls), rng.randint(1, 6)))

    def test_terms_above_the_cutoff_in_the_input(self):
        rng = random.Random(107)
        for _ in range(30):
            f = random_terms(rng, rng.randint(1, 8), 3, 12)
            var = rng.choice(VARS)
            repl = Polynomial.variable(var) + random_terms(rng, 2, 1, 3)
            assert_matches_expansion(f, Substitution.single(var, repl, rng.randint(1, 6)))

    def test_cancellation_to_zero(self):
        # (x - a*y - b*z*t)^k * m with x <- x + a*y + b*z*t is x^k * m exactly
        # when m is free of x.
        rng = random.Random(108)
        for _ in range(20):
            a, b = random_coefficient(rng), random_coefficient(rng)
            shear = P("y").scale(a) + P("z*t").scale(b)
            m = P("y*t").scale(random_coefficient(rng)) + P("z^2").scale(random_coefficient(rng))
            k = rng.randint(1, 4)
            f = (P("x") - shear) ** k * m
            s = Substitution.single("x", P("x") + shear, 12)
            assert apply_substitution(f, s) == ((P("x") ** k) * m).truncate(12)
            assert_matches_expansion(f, s)
        # Everything cancels: x - y - z with x <- y + z.
        s = Substitution.single("x", P("y + z"), 5)
        assert apply_substitution(P("x - y - z"), s).is_zero()
        assert apply_substitution(P("x^2 - y^2 - 2*y*z - z^2 + 1/3*x*t^5"), s).is_zero()

    def test_zero_input(self):
        s = Substitution.single("x", P("x + y^2"), 4)
        assert apply_substitution(Polynomial.zero(), s).is_zero()


class TestTruncatedProduct:
    def test_matches_product_then_truncate(self):
        rng = random.Random(201)
        for _ in range(40):
            a = random_terms(rng, rng.randint(1, 7), 0, 5)
            b = random_terms(rng, rng.randint(1, 7), 0, 5)
            for degree in range(-1, a.degree() + b.degree() + 2):
                assert truncated_product(a, b, degree) == (a * b).truncate(degree)

    def test_below_the_least_degree_is_zero(self):
        a, b = P("x^2 + 1/3*y^3"), P("z^2 - 2/5*t^4")
        for degree in range(-2, 4):
            assert truncated_product(a, b, degree).is_zero()
        assert truncated_product(a, b, 4) == P("x^2*z^2")

    def test_cancellations_are_dropped(self):
        a, b = P("1 + 1/2*x*y"), P("1 - 1/2*x*y")
        assert truncated_product(a, b, 10) == P("1 - 1/4*x^2*y^2")
        assert truncated_product(a, b, 3) == P("1")

    def test_unbounded(self):
        a, b = P("x + 2/3"), P("x - 2/3 + y^3")
        assert truncated_product(a, b, None) == a * b


class TestBinomialHalfSeries:
    def test_matches_whole_powers_then_truncate(self):
        rng = random.Random(301)
        for _ in range(25):
            u = random_terms(rng, rng.randint(1, 5), 1, 4)
            for degree in (0, 1, 2, 5, 9, 13):
                assert _binomial_half_series(u, degree) == series_by_powers(u, degree)

    def test_squares_to_the_inverse(self):
        u = P("2/3*x*y - 5/7*z^2 + 1/9*t^3")
        series = _binomial_half_series(u, 8)
        assert (series * series * (P("1") + u)).truncate(8) == P("1")


class TestCalculus:
    def test_derivative(self):
        f = P("x^2 + y^2*z + z^3 + t^3")
        assert f.derivative("x") == P("2*x")
        assert f.derivative("z") == P("y^2 + 3*z^2")

    def test_evaluate(self):
        f = P("x^2 - 1/2*z*t^4")
        assert f.evaluate([2, 0, 1, 1]) == Fraction(7, 2)


class TestRestrict:
    def test_matches_the_validating_construction(self):
        f = P("x^2 + y^2*z - 1/2*z^3 + 3*t^3")
        for size in range(len(f) + 1):
            for points in itertools.combinations(f.support(), size):
                restricted = f.restrict(points)
                assert restricted == Polynomial({v: f.coefficient(v) for v in points})
                assert restricted.terms == {v: f.coefficient(v) for v in points}

    def test_exponent_outside_the_support(self):
        with pytest.raises(KeyError):
            P("x^2 + y^3").restrict([(2, 0, 0, 0), (0, 0, 1, 0)])

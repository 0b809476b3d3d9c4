import itertools
import random
from fractions import Fraction

import pytest

from cdvdiv.blowup import (
    UnboundedWeightsError,
    Weight,
    decompose_components,
    discrepancy,
    enumerate_weights,
    exceptional_surface,
)
from cdvdiv.lp import coordinate_maxima as _coordinate_maxima
from cdvdiv.newton import build_diagram
from cdvdiv.poly import Polynomial, parse_polynomial
from weight_oracle import (
    brute_force_weights,
    literal_scan,
    lp_vertex_maxima,
    oracle_bound,
)

P = parse_polynomial

EXAMPLE_CD4 = P("x^2 + y^2*z + z^3 + t^3")
EXAMPLE_CE8 = P("x^2 + y^3 + z^5 + t^15")


class TestWeight:
    def test_validation(self):
        with pytest.raises(ValueError):
            Weight((2, 2, 2, 2))
        with pytest.raises(ValueError):
            Weight((0, 1, 1, 1))
        assert Weight((2, 1, 1, 1)).sum() == 5


class TestEnumerate:
    def test_cd4_example(self):
        d = build_diagram(EXAMPLE_CD4)
        weights = enumerate_weights(d)
        assert [w.w for w in weights] == [(1, 1, 1, 1), (2, 1, 1, 1)]

    def test_ce8_contains_the_catalog_weight(self):
        d = build_diagram(EXAMPLE_CE8)
        weights = {w.w for w in enumerate_weights(d)}
        assert (8, 5, 3, 1) in weights

    def test_smooth_input_is_empty(self):
        d = build_diagram(P("x"))
        assert enumerate_weights(d) == []

    def test_identity_verified_for_each_weight(self):
        d = build_diagram(EXAMPLE_CE8)
        for w in enumerate_weights(d):
            values = [
                sum(a * b for a, b in zip(w.w, v)) for v in EXAMPLE_CE8.support()
            ]
            assert w.sum() - 1 - min(values) == 1

    def test_invariant_under_constant_rescaling(self):
        f = EXAMPLE_CD4.scale(Fraction(7, 3))
        a = enumerate_weights(build_diagram(EXAMPLE_CD4))
        b = enumerate_weights(build_diagram(f))
        assert a == b

    @pytest.mark.parametrize(
        "text",
        ["x^2 + y^2*z + z^3 + t^3", "x^2 + y^3 + z^4 + t^4", "x^2 + y^2 + z^2 + t^2"],
        ids=["cD4", "cE6", "node"],
    )
    def test_oracle_matches_a_literal_scan(self, text):
        d = build_diagram(P(text))
        bound = oracle_bound(d.vertices)
        assert brute_force_weights(d.vertices, bound) == literal_scan(d.vertices, bound)

    @pytest.mark.parametrize(
        "f",
        [
            EXAMPLE_CD4,
            EXAMPLE_CE8,
            P("x^2 + y^3 + z^5 + t^60"),
            P("x^2 + y^2*z + z^20"),
        ],
        ids=["cD4", "cE8", "cE8_t60", "non_isolated_z20"],
    )
    def test_matches_brute_force(self, f):
        d = build_diagram(f)
        expected = brute_force_weights(d.vertices, oracle_bound(d.vertices))
        assert [w.w for w in enumerate_weights(d)] == expected

    def test_random_supports_match_brute_force(self):
        rng = random.Random(2024)
        for case in range(40):
            d = build_diagram(_random_bounded_germ(rng))
            expected = brute_force_weights(d.vertices, oracle_bound(d.vertices))
            assert [w.w for w in enumerate_weights(d)] == expected, d.vertices
            if case % 4 == 0:
                # The box comes from exact LP maxima: compare with the best
                # vertex of the candidate polyhedron (u = w - 1).
                rows = [[1 - c for c in v] for v in d.vertices]
                rhs = [sum(v) - 2 for v in d.vertices]
                assert _coordinate_maxima(rows, rhs) == lp_vertex_maxima(rows, rhs)

    @pytest.mark.parametrize("seed", range(24))
    def test_exponent_one_germs_match_a_literal_scan(self, seed):
        # Vertices x * (y, z, t-monomial) have exponent 1 on the longest axis
        # of the box, where the line scan lists a whole interval instead of
        # its end points.
        d = build_diagram(_random_exponent_one_germ(random.Random(seed)))
        expected = literal_scan(d.vertices, oracle_bound(d.vertices))
        assert [w.w for w in enumerate_weights(d)] == expected, d.vertices

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(4))), ids=str)
    def test_permuting_the_variables_permutes_the_weights(self, perm):
        # Each permutation puts the longest axis of the box on another
        # coordinate, so every choice of the scan direction is exercised.
        for text in ["x^2 + y^3 + z^5 + t^7 + x*t^3 + y*z^3", "x*y + z^3 + t^4 + x*z*t"]:
            f = P(text)
            moved = Polynomial({tuple(e[i] for i in perm): c for e, c in f.items()})
            expected = sorted(
                tuple(w.w[i] for i in perm) for w in enumerate_weights(build_diagram(f))
            )
            assert [w.w for w in enumerate_weights(build_diagram(moved))] == expected

    def test_non_isolated_supports_are_unbounded(self):
        rng = random.Random(7)
        supports = [[(2, 0, 0, 0), (0, 2, 1, 0)]]
        for _ in range(20):
            # y-degree >= 2 keeps (1, 1, 0, 0) a ray of the candidate set.
            extra = [_random_yzt_monomial(rng, 2) for _ in range(rng.randint(2, 4))]
            supports.append([(2, 0, 0, 0), (0, 2, 1, 0)] + extra)
        for exps in supports:
            d = build_diagram(Polynomial({e: Fraction(1) for e in exps}))
            with pytest.raises(UnboundedWeightsError) as info:
                enumerate_weights(d)
            ray = info.value.ray
            assert min(ray) >= 0 and max(ray) > 0
            assert all(sum(ray) <= sum(r * c for r, c in zip(ray, v)) for v in exps)


def _random_bounded_germ(rng: random.Random) -> Polynomial:
    """x^2, pure powers y^a, z^b, t^c and 2..4 random monomials in y, z, t."""
    # 1/2 + 1/a + 1/b + 1/c > 1 keeps the candidate set bounded.
    exps = [(2, 0, 0, 0), (0, rng.randint(2, 3), 0, 0)]
    exps += [(0, 0, rng.randint(2, 5), 0), (0, 0, 0, rng.randint(2, 8))]
    exps += [_random_yzt_monomial(rng, 0) for _ in range(rng.randint(2, 4))]
    return Polynomial({e: Fraction(1) for e in exps})


def _random_exponent_one_germ(rng: random.Random) -> Polynomial:
    """y^a, z^b, t^c, often x^2, and 1..3 monomials x * (y, z, t-monomial).

    Total degrees stay at most 5, so the literal scan's box has at most 24^4
    points.
    """
    exps = [(0, rng.randint(2, 3), 0, 0), (0, 0, rng.randint(2, 4), 0)]
    exps.append((0, 0, 0, rng.randint(3, 5)))
    if rng.random() < 0.7:
        exps.append((2, 0, 0, 0))
    for _ in range(rng.randint(1, 3)):
        e = [1, 0, 0, 0]
        for _ in range(rng.randint(1, 4)):
            e[rng.randint(1, 3)] += 1
        exps.append(tuple(e))
    return Polynomial({e: Fraction(1) for e in exps})


def _random_yzt_monomial(rng: random.Random, min_y: int):
    """A monomial in y, z, t of total degree 2..8 with y-degree >= min_y."""
    degree = rng.randint(max(2, min_y), 8)
    a = rng.randint(min_y, degree)
    b = rng.randint(0, degree - a)
    return (0, a, b, degree - a - b)


class TestDiscrepancy:
    def test_known_discrepancies(self):
        d = build_diagram(EXAMPLE_CD4)
        assert discrepancy(d, Weight((2, 1, 1, 1)), 1) == 1
        assert discrepancy(d, Weight((1, 1, 1, 1)), 1) == 1

    def test_linear_in_multiplicity(self):
        d = build_diagram(EXAMPLE_CD4)
        assert discrepancy(d, Weight((2, 1, 1, 1)), 2) == 2
        with pytest.raises(ValueError):
            discrepancy(d, Weight((2, 1, 1, 1)), 0)


def _is_square_in_fraction_field(A: Polynomial, C: Polynomial) -> bool:
    """Test oracle: -C/A a square in Q(z,t) needs even z-valuation of C*A."""
    va = min(e[2] for e in A.support())
    vc = min(e[2] for e in C.support())
    return (va + vc) % 2 == 0


class TestDecompose:
    def test_monomial_content_split(self):
        result = decompose_components(P("z^3 + z^2*t"))
        assert result.content == (0, 0, 2, 0)
        assert len(result.components) == 1
        assert result.components[0] == (P("z + t"), 1)

    def test_content_in_several_variables(self):
        result = decompose_components(P("3*x^2*z*t^3 + 6*x^3*y*z^2*t^3"))
        assert result.content == (2, 0, 1, 3)
        assert result.constant == 3
        assert result.components == ((P("2*x*y*z + 1"), 1),)
        monomial = decompose_components(P("-2/3*x^2*z"))
        assert monomial.constant == Fraction(-2, 3)
        assert monomial.content == (2, 0, 1, 0)
        assert monomial.components == ()

    def test_face_polynomial_irreducible(self):
        g = P("y^2*z + z^3 + t^3")
        result = decompose_components(g)
        assert result.components == ((g, 1),)
        # Independent check: g = A y^2 + C with A = z, C = z^3 + t^3 factors
        # only if -C/A is a square in Q(z,t); the z-valuation parity already
        # rules that out.
        assert not _is_square_in_fraction_field(P("z"), P("z^3 + t^3"))

    def test_difference_of_squares(self):
        result = decompose_components(P("x^2 - z^2*t^4"))
        factors = {p for p, _m in result.components}
        # factors are normalized to a positive leading grlex coefficient
        assert factors == {P("z*t^2 - x"), P("z*t^2 + x")}
        assert result.constant == -1

    def test_multiplicities(self):
        g = P("z^2 + 2*z*t + t^2")
        result = decompose_components(g)
        assert result.components == ((P("z + t"), 2),)

    def test_reconstruction(self):
        rng = random.Random(17)
        for _ in range(20):
            factors = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(rng.randint(0, 2) for _ in range(4))
                    terms[exps] = Fraction(rng.randint(-4, 4))
                p = Polynomial(terms)
                if not p.is_zero():
                    factors.append(p)
            if not factors:
                continue
            product = Polynomial.constant(1)
            for p in factors:
                product = product * p
            if product.is_zero():
                continue
            result = decompose_components(product)
            rebuilt = Polynomial.constant(result.constant)
            rebuilt = rebuilt * Polynomial.monomial(result.content)
            for p, m in result.components:
                rebuilt = rebuilt * p**m
            assert rebuilt == product


class TestExceptionalSurface:
    def test_cd4_surface(self):
        s = exceptional_surface(EXAMPLE_CD4, Weight((2, 1, 1, 1)))
        assert s.equation == P("y^2*z + z^3 + t^3")
        assert len(s.components) == 1
        assert s.components[0][1] == 1

    def test_ce8_surface(self):
        s = exceptional_surface(EXAMPLE_CE8, Weight((8, 5, 3, 1)))
        assert s.equation == P("y^3 + z^5 + t^15")
        assert len(s.components) == 1

    def test_ordinary_double_point(self):
        s = exceptional_surface(P("x^2 + y^2 + z^2 + t^2"), Weight((1, 1, 1, 1)))
        assert s.equation == P("x^2 + y^2 + z^2 + t^2")
        assert len(s.components) == 1
        assert s.components[0][1] == 1

    def test_face_polynomial_is_quasihomogeneous(self):
        d = build_diagram(EXAMPLE_CE8)
        for w in enumerate_weights(d):
            s = exceptional_surface(EXAMPLE_CE8, w)
            values = {
                sum(a * b for a, b in zip(w.w, v)) for v in s.equation.support()
            }
            assert len(values) == 1

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from cdvdiv import newton
from cdvdiv.lp import minimal_points
from cdvdiv.newton import (
    DEGENERATE,
    NONDEGENERATE_CERTIFIED,
    NONDEGENERATE_PROBABLE,
    _affine_rank,
    _derived_terms,
    _restricted_terms,
    _scan_all,
    build_diagram,
    check_nondegeneracy,
    face_polynomial,
    singular_torus_search,
    support_value,
)
from cdvdiv.poly import Polynomial, parse_polynomial

EXAMPLE_CD4 = parse_polynomial("x^2 + y^2*z + z^3 + t^3")
EXAMPLE_CE8 = parse_polynomial("x^2 + y^3 + z^5 + t^15")


def random_support_polynomial(rng, max_points=8, max_exp=6):
    terms = {}
    for _ in range(rng.randint(1, max_points)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(4))
        terms[exps] = 1
    return Polynomial(terms)


class TestBuildDiagram:
    def test_example_all_support_points_are_vertices(self):
        d = build_diagram(EXAMPLE_CD4)
        assert set(d.vertices) == {
            (2, 0, 0, 0),
            (0, 2, 1, 0),
            (0, 0, 3, 0),
            (0, 0, 0, 3),
        }
        two_faces = [f.lattice_points for f in d.faces if f.dimension == 2]
        assert ((0, 2, 1, 0), (0, 0, 3, 0), (0, 0, 0, 3)) in [
            tuple(sorted(pts)) for pts in two_faces
        ] or ((0, 0, 3, 0), (0, 0, 0, 3), (0, 2, 1, 0)) in two_faces or any(
            set(pts) == {(0, 2, 1, 0), (0, 0, 3, 0), (0, 0, 0, 3)} for pts in two_faces
        )

    def test_single_monomial(self):
        d = build_diagram(parse_polynomial("x^2"))
        assert d.vertices == ((2, 0, 0, 0),)
        assert len(d.faces) == 1
        assert d.faces[0].dimension == 0

    def test_interior_support_point_is_not_a_vertex(self):
        d = build_diagram(parse_polynomial("x^2 + x^2*y"))
        assert d.vertices == ((2, 0, 0, 0),)
        assert len(d.faces) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            build_diagram(Polynomial.zero())

    def test_witnesses_cut_out_their_faces(self):
        d = build_diagram(EXAMPLE_CD4)
        support = EXAMPLE_CD4.support()
        for face in d.faces:
            w = face.witness
            m = min(sum(a * b for a, b in zip(w, v)) for v in support)
            tight = {v for v in support if sum(a * b for a, b in zip(w, v)) == m}
            assert tight == set(face.lattice_points)

    def test_face_point_counts(self):
        # A compact face of dimension k needs at least k + 1 support points.
        rng = random.Random(5)
        for _ in range(20):
            f = random_support_polynomial(rng)
            d = build_diagram(f)
            for face in d.faces:
                assert len(face.lattice_points) >= face.dimension + 1

    def test_quasihomogeneous_support_is_one_facet(self):
        d = build_diagram(EXAMPLE_CE8)
        top = [f for f in d.faces if f.dimension == 3]
        assert len(top) == 1
        assert set(top[0].lattice_points) == set(EXAMPLE_CE8.support())


class TestMinimalPointFilter:
    """`build_diagram` over the minimal points against the unfiltered `_facets`."""

    @staticmethod
    def dominated_support(rng):
        minimal = random_support_polynomial(rng, max_points=7, max_exp=5)
        terms = dict(minimal.items())
        for exps in list(terms):
            for _ in range(rng.randint(0, 3)):
                bump = tuple(e + rng.randint(0, 2) for e in exps)
                terms.setdefault(bump, Fraction(rng.randint(1, 5)))
        return Polynomial(terms)

    def test_same_diagram_as_the_whole_support(self, monkeypatch):
        rng = random.Random(41)
        cases = [self.dominated_support(rng) for _ in range(40)]
        filtered = [build_diagram(f) for f in cases]
        monkeypatch.setattr(newton, "minimal_points", list)
        dominated = 0
        for f, d in zip(cases, filtered):
            whole = build_diagram(f)
            assert d.vertices == whole.vertices
            assert d.faces == whole.faces  # points, dimension and witness
            dominated += len(f) > len(minimal_points(f.support()))
        assert dominated >= 30

    def test_dominated_points_stay_off_the_faces(self):
        f = parse_polynomial("x^2 + y^3 + z^4 + t^5 + x^3*y + x^2*y^3*z*t")
        d = build_diagram(f)
        assert set(d.vertices) == {(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 5)}
        assert all((3, 1, 0, 0) not in face.lattice_points for face in d.faces)


class TestAffineRank:
    def test_matches_sympy_rank(self):
        rng = random.Random(17)
        for _ in range(300):
            points = [
                tuple(rng.randint(-3, 3) for _ in range(4))
                for _ in range(rng.randint(1, 6))
            ]
            if rng.random() < 0.5:  # force dependent rows
                a, b = points[0], points[-1]
                points.append(tuple(2 * y - x for x, y in zip(a, b)))
            rays = rng.sample(
                [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], rng.randint(0, 2)
            )
            rows = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
            rows += [list(r) for r in rays]
            expected = sympy.Matrix(rows).rank() if rows else 0
            assert _affine_rank(points, rays) == expected

    def test_empty_and_repeated_points(self):
        assert _affine_rank([]) == -1
        assert _affine_rank([(1, 2, 3, 4)] * 3) == 0
        assert _affine_rank([(0, 0, 0, 0), (2, 4, 0, 0), (1, 2, 0, 0)]) == 1


class TestFaceOfWeight:
    def test_witness_finds_its_face(self):
        rng = random.Random(31)
        for _ in range(30):
            d = build_diagram(random_support_polynomial(rng))
            for face in d.faces:
                assert d.face_of_weight(face.witness) is face

    def test_tight_set_that_is_not_a_listed_face(self):
        d = build_diagram(EXAMPLE_CD4)
        missing = d.faces[-1]
        trimmed = dataclasses.replace(d, faces=d.faces[:-1])
        assert trimmed.face_of_weight(missing.witness) is None
        assert d.face_of_weight(missing.witness) is missing


class TestSupportValue:
    def test_known_support_values(self):
        d = build_diagram(EXAMPLE_CD4)
        assert support_value(d, (2, 1, 1, 1)) == 3
        assert support_value(d, (1, 1, 1, 1)) == 2
        d8 = build_diagram(EXAMPLE_CE8)
        assert support_value(d8, (8, 5, 3, 1)) == 15

    def test_vertices_suffice_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            f = random_support_polynomial(rng)
            d = build_diagram(f)
            w = tuple(rng.randint(1, 9) for _ in range(4))
            brute = min(
                sum(a * b for a, b in zip(w, v)) for v in f.support()
            )
            assert support_value(d, w) == brute

    def test_rejects_nonpositive_weight(self):
        d = build_diagram(EXAMPLE_CD4)
        with pytest.raises(ValueError):
            support_value(d, (1, 0, 1, 1))


class TestFacePolynomial:
    def test_worked_example_faces(self):
        assert face_polynomial(EXAMPLE_CD4, (2, 1, 1, 1)) == parse_polynomial(
            "y^2*z + z^3 + t^3"
        )
        assert face_polynomial(EXAMPLE_CD4, (1, 1, 1, 1)) == parse_polynomial("x^2")
        assert face_polynomial(EXAMPLE_CE8, (8, 5, 3, 1)) == parse_polynomial(
            "y^3 + z^5 + t^15"
        )

    def test_invariant_under_weight_scaling(self):
        rng = random.Random(4)
        for _ in range(50):
            f = random_support_polynomial(rng)
            w = tuple(rng.randint(1, 7) for _ in range(4))
            k = rng.randint(2, 5)
            scaled = tuple(k * c for c in w)
            assert face_polynomial(f, w) == face_polynomial(f, scaled)

    def test_support_value_is_tight(self):
        rng = random.Random(9)
        for _ in range(50):
            f = random_support_polynomial(rng)
            d = build_diagram(f)
            w = tuple(rng.randint(1, 7) for _ in range(4))
            m = support_value(d, w)
            fp = face_polynomial(f, w)
            for v in f.support():
                value = sum(a * b for a, b in zip(w, v))
                assert value >= m
                assert (value == m) == (v in fp.support())


class TestNondegeneracy:
    def test_single_monomial_derivative_rule(self):
        verdict = singular_torus_search(parse_polynomial("y^2*z + z^3 + t^3"), seed=0)
        assert verdict.status == NONDEGENERATE_CERTIFIED

    def test_monomial_certified(self):
        verdict = singular_torus_search(parse_polynomial("x^2"), seed=0)
        assert verdict.status == NONDEGENERATE_CERTIFIED

    def test_degenerate_square_with_witness(self):
        verdict = singular_torus_search(parse_polynomial("z^2 - 2*z*t + t^2"), seed=0)
        assert verdict.status == DEGENERATE
        assert verdict.witness is not None
        assert verdict.witness.point == (1, 1)
        assert verdict.witness.exact_over_rationals

    def test_diagram_checker_runs_per_face(self):
        d = build_diagram(EXAMPLE_CD4)
        results = check_nondegeneracy(d, seed=0, samples_per_face=1000)
        assert len(results) == len(d.faces)
        for _face, verdict in results:
            assert verdict.status in (
                NONDEGENERATE_CERTIFIED,
                "nondegenerate_probable",
            )

    def test_deterministic_given_seed(self):
        f = parse_polynomial("x^2 + y^2 + z^2 + t^2 + x*y + z*t")
        a = singular_torus_search(f, seed=42, samples=2000)
        b = singular_torus_search(f, seed=42, samples=2000)
        assert a == b


def _oracle_first_hit(terms, k, p):
    """First singular torus point of a term list over GF(p), point by point.

    Points are visited in row-major order (the first variable is the slow
    one).  Raises ZeroDivisionError when a denominator vanishes mod p.
    """
    coeffs = []
    for exps, c in terms:
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ZeroDivisionError
        coeffs.append((exps, c.numerator * pow(c.denominator, -1, p) % p))
    partials = []
    for j in range(k):
        partials.append(
            [
                (exps[:j] + (exps[j] - 1,) + exps[j + 1 :], c * exps[j] % p)
                for exps, c in coeffs
                if exps[j]
            ]
        )

    def value(poly, point):
        total = 0
        for exps, c in poly:
            for u, e in zip(point, exps):
                c = c * pow(u, e, p) % p
            total += c
        return total % p

    for point in itertools.product(range(1, p), repeat=k):
        if value(coeffs, point) == 0 and all(value(d, point) == 0 for d in partials):
            return point
    return None


def _scan(terms, k, p):
    return _scan_all(terms, [_derived_terms(terms, j) for j in range(k)], k, p)


def _terms(g, k):
    return _restricted_terms(g, [2, 3][:k])


P = parse_polynomial


def _planted_cases():
    """Seeded 1- and 2-variable polynomials (in z, t) and their variable counts."""
    rng = random.Random(11)
    cases = []
    for _ in range(4):
        a, b = rng.randint(2, 60), rng.randint(2, 60)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        unit = P(f"{rng.randint(1, 9)} + {rng.randint(1, 9)}*z*t + t^2")
        # a squared binomial times a unit, singular along b^n z^m = a^m t^n
        cases.append((P(f"{b ** n}*z^{m} - {a ** m}*t^{n}") ** 2 * unit, 2))
        # an isolated planted point (a, b)
        cases.append((P(f"z - {a}") ** 2 + P(f"{rng.randint(1, 9)}*z") * P(f"t - {b}") ** 2, 2))
        cases.append((P(f"z - {a}") ** 2 * P(f"z^{rng.randint(1, 4)} + {rng.randint(1, 9)}"), 1))
    # random sparse polynomials, with and without hits
    for _ in range(6):
        k = rng.randint(1, 2)
        g = Polynomial.zero()
        for _ in range(rng.randint(3, 5)):
            exps = (0, 0) + tuple(rng.randint(0, 6) for _ in range(k)) + (0,) * (2 - k)
            coeff = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
            g = g + Polynomial.monomial(exps, coeff)
        cases.append((g, k))
    return cases


class TestExhaustiveScan:
    """`_scan_all` against a point-by-point evaluation over GF(p)*^k."""

    @pytest.mark.parametrize("p", [101, 257])
    @pytest.mark.parametrize("g,k", _planted_cases(), ids=lambda case: str(case))
    def test_first_hit_matches_oracle(self, g, k, p):
        terms = _terms(g, k)
        assert _scan(terms, k, p) == _oracle_first_hit(terms, k, p)

    def test_planted_points_are_found(self):
        for g, k in _planted_cases()[:12]:
            assert _scan(_terms(g, k), k, 257) is not None

    def test_hit_is_first_in_row_major_order(self):
        # Singular exactly along z = 3t: row-major meets (3, 1) first, while a
        # column-major order would meet (3, 1) only after (1, 86) = (1, 1/3).
        terms = _terms(P("z - 3*t") ** 2 * P("1 + z"), 2)
        assert _scan(terms, 2, 257) == (1, 86) == _oracle_first_hit(terms, 2, 257)

    @pytest.mark.parametrize("p", [101, 257])
    def test_constant_term_and_repeated_exponents(self, p):
        # (z - 2t)^2 + t^2 - t^2 - 4 + 4, with the cancelling monomials listed
        # separately: equal exponents must add their coefficients.
        terms = [
            ((2, 0), Fraction(1)),
            ((1, 1), Fraction(-4)),
            ((0, 2), Fraction(5)),
            ((0, 2), Fraction(-1)),
            ((0, 0), Fraction(-4)),
            ((0, 0), Fraction(4)),
        ]
        hit = _scan(terms, 2, p)
        assert hit == _oracle_first_hit(terms, 2, p) == (1, (p + 1) // 2)
        one_var = [((0,), Fraction(9)), ((2,), Fraction(1)), ((1,), Fraction(-6))]
        assert _scan(one_var, 1, p) == _oracle_first_hit(one_var, 1, p) == (3,)
        shifted = [((0,), Fraction(1)), ((0,), Fraction(1))] + one_var[1:]
        assert _scan(shifted, 1, p) == _oracle_first_hit(shifted, 1, p) is None

    @pytest.mark.parametrize("p", [101, 257])
    @pytest.mark.parametrize(
        "text,k",
        [("z^3 + t^3 + 1 + z*t", 2), ("z^2 + t^2 + 1", 2), ("z^5 + z + 1/3", 1)],
    )
    def test_no_hit(self, text, k, p):
        terms = _terms(P(text), k)
        assert _oracle_first_hit(terms, k, p) is None
        assert _scan(terms, k, p) is None

    def test_products_that_could_overflow_are_refused(self):
        # (top + 1) * (p - 1)^2 >= 2^63: refused before any table is built
        terms = [((1,), Fraction(1)), ((0,), Fraction(1))]
        with pytest.raises(OverflowError):
            _scan(terms, 1, 2**31 + 11)

    def test_vanishing_denominator_skips_the_prime(self):
        g = (P("z - 3*t") ** 2 * P("2 + z")).scale(Fraction(1, 101))
        terms = _terms(g, 2)
        with pytest.raises(ZeroDivisionError):
            _scan(terms, 2, 101)
        with pytest.raises(ZeroDivisionError):
            _oracle_first_hit(terms, 2, 101)
        skipped = singular_torus_search(g, seed=0, scan_primes=(101,))
        assert skipped.status == NONDEGENERATE_PROBABLE and skipped.witness is None
        verdict = singular_torus_search(g, seed=0, scan_primes=(101, 257))
        assert verdict.status == DEGENERATE
        assert verdict.witness.prime == 257
        assert verdict.witness.point == _oracle_first_hit(terms, 2, 257)

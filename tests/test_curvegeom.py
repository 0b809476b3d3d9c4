import random
from fractions import Fraction

import pytest

from cdvdiv import newton
from cdvdiv.blowup import Weight
from cdvdiv.curvegeom import (
    ConeStructure,
    LatticePolygon,
    NON_RATIONAL,
    RATIONAL,
    RATIONAL_BY_PLT,
    chart_polynomial,
    classify_rationality,
    detect_cone,
    is_hyperelliptic,
    is_plt_weight,
    polygon_genus,
    polygon_of,
)
from cdvdiv.factorize import strip_monomial_content
from cdvdiv.newton import UNDECIDED, FaceVerdict
from cdvdiv.poly import (
    VARS,
    VAR_INDEX,
    Polynomial,
    Substitution,
    apply_substitution,
    parse_polynomial,
)

P = parse_polynomial


class TestDetectCone:
    def test_ce8_cone(self):
        cone = detect_cone(P("y^3 + z^5 + t^15"), Weight((8, 5, 3, 1)))
        assert cone is not None
        assert cone.missing_variable == "x"
        assert cone.base_variables == ("y", "z", "t")
        assert cone.base_weights == (5, 3, 1)

    def test_cd4_cone(self):
        cone = detect_cone(P("y^2*z + z^3 + t^3"), Weight((2, 1, 1, 1)))
        assert cone.missing_variable == "x"
        assert cone.base_weights == (1, 1, 1)

    def test_no_cone_when_all_variables_present(self):
        assert detect_cone(P("x^2 + y^2 + z^2 + t^2"), Weight((1, 1, 1, 1))) is None

    def test_largest_weight_missing_variable_wins(self):
        cone = detect_cone(P("z^2 + t^4"), Weight((3, 2, 2, 1)))
        assert cone.missing_variable == "x"


class TestChart:
    def test_ce7_chart(self):
        cone = detect_cone(P("y^3 + y*z^3 + t^9"), Weight((5, 3, 2, 1)))
        chart, chart_vars = chart_polynomial(cone)
        assert chart == P("y^3 + y*z^3 + 1")
        assert chart_vars == ("y", "z")

    def test_ce8_chart(self):
        cone = detect_cone(P("y^3 + z^5 + t^15"), Weight((8, 5, 3, 1)))
        chart, _vars = chart_polynomial(cone)
        assert chart == P("y^3 + z^5 + 1")

    def test_cd_chart(self):
        cone = detect_cone(P("y^2*z + z^3 + t^3"), Weight((2, 1, 1, 1)))
        chart, _vars = chart_polynomial(cone)
        assert chart == P("y^2*z + z^3 + 1")

    def test_prefers_t_over_z(self):
        cone = detect_cone(P("y^2*z + z^3 + t^3"), Weight((2, 1, 1, 1)))
        _chart, chart_vars = chart_polynomial(cone)
        assert "t" not in chart_vars

    def test_no_weight_one_variable_is_an_error(self):
        cone = detect_cone(P("y^3 + z^3 + t^3"), Weight((5, 2, 2, 2)))
        with pytest.raises(ValueError):
            chart_polynomial(cone)


def chart_by_substitution(c, chart_vars):
    """The chart as it was first computed: substitute the constant 1 for the
    chart variable through the normal-form substitution engine."""
    (chart_var,) = set(c.base_variables) - set(chart_vars)
    sub = Substitution.single(chart_var, Polynomial.constant(1), max(1, c.base_equation.degree()))
    return strip_monomial_content(apply_substitution(c.base_equation, sub))[1]


def random_cones(rng, count, merging):
    """Seeded cones over random base weights with a weight-1 variable.

    Without `merging` the equation is a random sum of monomials of one
    weighted degree in the base variables (quasi-homogeneous, as the
    pipeline's components are).  With it, each term also gets partners
    that differ only in the chart variable, so they land on the same chart
    monomial, with coefficients that sometimes cancel it and sometimes
    only part of it.
    """
    for _ in range(count):
        missing = rng.choice(VARS)
        base = tuple(v for v in VARS if v != missing)
        weights = [rng.randint(1, 4) for _ in base]
        weights[rng.randrange(3)] = 1
        degree = rng.randint(2, 12)
        monomials = []
        for a in range(degree // weights[0] + 1):
            for b in range((degree - a * weights[0]) // weights[1] + 1):
                rest = degree - a * weights[0] - b * weights[1]
                if rest % weights[2] == 0:
                    monomials.append((a, b, rest // weights[2]))
        chart = max((i for i in range(3) if weights[i] == 1), key=lambda i: VAR_INDEX[base[i]])
        terms = {}
        for mono in rng.sample(monomials, min(len(monomials), rng.randint(1, 5))):
            coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            shifts = [0] + (rng.sample(range(1, 4), rng.randint(1, 2)) if merging else [])
            parts = [coeff] * len(shifts)
            if merging and rng.random() < 0.5:
                parts[-1] = -sum(parts[:-1])  # the merged terms cancel
            elif merging:
                parts[-1] = -coeff / 2  # they cancel in part
            for shift, c in zip(shifts, parts):
                exps = [0, 0, 0, 0]
                for i, e in enumerate(mono):
                    exps[VAR_INDEX[base[i]]] = e + shift * (i == chart)
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        equation = Polynomial(terms)
        if equation.is_zero():
            continue
        yield ConeStructure(missing, 1, base, tuple(weights), equation)


class TestChartProjection:
    def test_quasihomogeneous_components_match_the_substitution(self):
        seen = 0
        for cone in random_cones(random.Random(41), 300, merging=False):
            chart, chart_vars = chart_polynomial(cone)
            assert chart == chart_by_substitution(cone, chart_vars), cone
            seen += 1
        assert seen == 300

    def test_merged_and_cancelled_terms_match_the_substitution(self):
        sizes = []
        for cone in random_cones(random.Random(43), 300, merging=True):
            chart, chart_vars = chart_polynomial(cone)
            assert chart == chart_by_substitution(cone, chart_vars), cone
            i = VAR_INDEX[(set(cone.base_variables) - set(chart_vars)).pop()]
            groups = {e[:i] + e[i + 1 :] for e in cone.base_equation.support()}
            sizes.append((len(cone.base_equation), len(groups), len(chart)))
        # terms merge on most inputs; a group cancels beside one that does not
        # on some, and every group cancels on others
        assert sum(groups < terms for terms, groups, _ in sizes) > 200
        assert any(0 < after < groups for _, groups, after in sizes)
        assert any(after == 0 for _, _, after in sizes)


class TestPolygonGenus:
    def test_worked_example_genera(self):
        assert polygon_genus(P("y^3 + y*z^3 + 1"))[0] == 3
        assert polygon_genus(P("y^3 + z^5 + 1"))[0] == 4
        assert polygon_genus(P("y^2*z + z^3 + 1"))[0] == 1

    def test_degenerate_supports(self):
        assert polygon_genus(P("y^3 + 1"))[0] == 0
        assert polygon_genus(P("y^2"))[0] == 0

    def test_pick_identity_random_polygons(self):
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            pts = [
                (rng.randint(0, 9), rng.randint(0, 9))
                for _ in range(rng.choice([3, 4]))
            ]
            polygon = LatticePolygon.from_points(pts)
            if polygon.is_degenerate():
                continue
            # Pick: doubled_area = 2 * interior + boundary - 2
            assert polygon.doubled_area == (
                2 * len(polygon.interior_points) + polygon.boundary_count - 2
            )
            checked += 1

    def test_unimodular_invariance(self):
        rng = random.Random(12)
        base = P("y^3 + y*z^3 + 1")
        genus, _ = polygon_genus(base)
        for _ in range(20):
            # random SL2(Z) transform of the exponent lattice plus a shift
            a, b_ = 1, rng.randint(-2, 2)
            c, d_ = rng.randint(-2, 2), 1 + b_ * rng.randint(-2, 2)
            while a * d_ - b_ * c != 1:
                b_ = rng.randint(-2, 2)
                c = rng.randint(-2, 2)
                d_ = 1 + rng.randint(-1, 1)
            shift = (rng.randint(0, 3), rng.randint(0, 3))
            pts = []
            for exps in base.support():
                u, v = exps[1], exps[2]  # (y, z) exponents
                pts.append((a * u + b_ * v + shift[0], c * u + d_ * v + shift[1]))
            if any(x < 0 or y < 0 for x, y in pts):
                continue
            transformed = LatticePolygon.from_points(pts)
            assert len(transformed.interior_points) == genus


class TestHyperelliptic:
    def test_non_hyperelliptic_triangle(self):
        _genus, polygon = polygon_genus(P("y^3 + y*z^3 + 1"))
        assert set(polygon.interior_points) == {(1, 1), (1, 2), (2, 1)} or set(
            polygon.interior_points
        ) == {(1, 1), (2, 1), (1, 2)}
        assert not is_hyperelliptic(polygon)

    def test_hyperelliptic_strip(self):
        _genus, polygon = polygon_genus(P("y^2 + z^5 + 1"))
        assert len(polygon.interior_points) == 2
        assert is_hyperelliptic(polygon)

    def test_two_points_always_collinear(self):
        polygon = LatticePolygon(
            vertices=((0, 0), (3, 0), (0, 3)),
            interior_points=((1, 1),),
            boundary_count=9,
            doubled_area=9,
        )
        assert is_hyperelliptic(polygon)

    def test_degree_two_strip_always_hyperelliptic(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(3, 12)
            pts = [(0, 0), (n, 0), (rng.randint(0, n), 2)]
            polygon = LatticePolygon.from_points(pts)
            if polygon.is_degenerate():
                continue
            assert is_hyperelliptic(polygon)


class TestPlt:
    def test_plt_patterns(self):
        assert is_plt_weight("cD", Weight((3, 2, 2, 1)))
        assert is_plt_weight("cD", Weight((2, 1, 2, 1)))
        assert not is_plt_weight("cD", Weight((2, 1, 1, 1)))
        assert is_plt_weight("cE6", Weight((6, 4, 3, 1)))
        assert is_plt_weight("cE8", Weight((15, 10, 6, 1)))
        assert not is_plt_weight("cE7", Weight((6, 4, 3, 1)))


class TestClassifyRationality:
    def test_low_dimensional_face_is_rational(self):
        result = classify_rationality(
            P("x^2"), face_dimension=0, w=Weight((1, 1, 1, 1)), singularity_kind="cD"
        )
        assert result.verdict == RATIONAL
        assert result.rule == "face_dimension_le_1"

    def test_linear_variable_rule(self):
        result = classify_rationality(
            P("y*t^4 + z^3 + t^6"),
            face_dimension=2,
            w=Weight((3, 2, 2, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == RATIONAL
        assert result.rule == "linear_in_y"

    def test_plt_rule(self):
        result = classify_rationality(
            P("x^2 + y^2*z + z^2*t^2"),
            face_dimension=2,
            w=Weight((3, 2, 2, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == RATIONAL_BY_PLT

    def test_cone_positive_genus(self):
        result = classify_rationality(
            P("y^2*z + z^3 + t^3"),
            face_dimension=2,
            w=Weight((2, 1, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == NON_RATIONAL
        assert result.genus == 1
        assert result.hyperelliptic is True
        assert result.hyperelliptic_by_convention is True

    def test_cone_genus_zero_is_rational(self):
        result = classify_rationality(
            P("y^2*z + z^2*t"),
            face_dimension=2,
            w=Weight((5, 2, 2, 2)),
            singularity_kind="other",
        )
        # content-stripped chart has no interior points
        assert result.verdict in (RATIONAL, "undecided")

    def test_genus_zero_cone_rational(self):
        result = classify_rationality(
            P("y^2 + z^2 + t^2"),
            face_dimension=2,
            w=Weight((2, 1, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == RATIONAL
        assert result.rule == "cone_genus_0"
        assert result.genus == 0

    def test_degenerate_chart_downgrades_to_undecided(self):
        # The chart polygon edge carries z*(y + z^3)^2, singular at y = -z^3
        # on the torus, so the interior-point genus cannot be asserted and
        # the verdict degrades rather than claiming non-rationality.
        result = classify_rationality(
            P("y^2*z + 2*y*z^4 + z^7 + t^9"),
            face_dimension=2,
            w=Weight((5, 4, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == "undecided"
        assert result.rule == "chart_degenerate"
        assert result.chart_verdict is not None
        assert result.chart_verdict.witness is not None

    def test_undecided_chart_downgrades_to_undecided(self, monkeypatch):
        undecided = FaceVerdict(UNDECIDED, "undecided (dimension 2): ...")
        monkeypatch.setattr(newton, "singular_torus_search", lambda g: undecided)
        result = classify_rationality(
            P("y^2*z + 2*y*z^4 + z^7 + t^9"),
            face_dimension=2,
            w=Weight((5, 4, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == "undecided"
        assert result.rule == "chart_undecided"
        assert result.chart_verdict is undecided
        assert result.genus is not None
        assert result.warnings[0].startswith("non-degeneracy of the chart curve is undecided")

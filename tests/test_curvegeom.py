import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from cdvdiv import newton
from cdvdiv.blowup import Weight
from cdvdiv.curvegeom import (
    LatticePolygon,
    NON_RATIONAL,
    RATIONAL,
    RATIONAL_BY_PLT,
    classify_rationality,
    is_hyperelliptic,
    is_plt_weight,
    polygon_genus,
)
from cdvdiv.factorize import strip_monomial_content
from cdvdiv.newton import UNDECIDED, FaceVerdict, _affine_rank, _convex_hull_ccw
from cdvdiv.poly import VARS, VAR_INDEX, Polynomial, parse_polynomial

P = parse_polynomial


# ---------------------------------------------------------------------------
# The lattice polygon against a brute-force scan of Z^4
# ---------------------------------------------------------------------------


def lattice_oracle(support):
    """Points of Z^4 in aff(support) strictly inside conv(support), and the
    number of integer points strictly inside its projection.

    Every point of the bounding box is tried: it lies in the plane iff adding
    it keeps the affine rank, and strictly inside iff it lies strictly on the
    inner side of every edge line, seen in the first pair of coordinates on
    which the projection keeps rank 2.  A line through two projected support
    points is an edge line iff no support point lies strictly on each side
    of it.  A support of affine rank <= 1 has no interior.
    """
    if _affine_rank(support) < 2:
        return set(), 0
    i, j = next(
        (i, j)
        for i, j in combinations(range(4), 2)
        if _affine_rank([(p[i], p[j]) for p in support]) == 2
    )
    plane = {(p[i], p[j]) for p in support}

    def side(a, b, q):
        return (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])

    edge_lines = []
    for a, b in combinations(plane, 2):
        sides = [side(a, b, q) for q in plane]
        if min(sides) >= 0 or max(sides) <= 0:
            edge_lines.append((a, b, 1 if max(sides) > 0 else -1))
    ranges = [range(min(p[k] for p in support), max(p[k] for p in support) + 1) for k in range(4)]
    others = [k for k in range(4) if k not in (i, j)]
    inside, projected = set(), 0
    for a, b in product(ranges[i], ranges[j]):
        if any(sign * side(u, v, (a, b)) <= 0 for u, v, sign in edge_lines):
            continue
        projected += 1
        for rest in product(*(ranges[k] for k in others)):
            q = [0] * 4
            q[i], q[j] = a, b
            for k, c in zip(others, rest):
                q[k] = c
            if _affine_rank(list(support) + [tuple(q)]) == 2:
                inside.add(tuple(q))
    return inside, projected


def random_plane_supports(rng, count):
    """Seeded supports of affine rank <= 2 in Z^4_{>=0}.

    Each is a base point plus small combinations a*d + b*e of two random
    directions; b = 0 gives rank <= 1, and one point rank 0.  A variable is
    sometimes left out of every point, so cones occur beside supports that
    use all four variables.
    """
    for _ in range(count):
        d = [rng.randint(-2, 2) for _ in range(4)]
        e = [rng.randint(-2, 2) for _ in range(4)]
        size = rng.choice([1, 2, 3, 4, 4, 5, 5, 6])
        flat = rng.random() < 0.1
        coefficients = [(rng.randint(0, 2), 0 if flat else rng.randint(0, 2)) for _ in range(size)]
        points = [[a * x + b * y for x, y in zip(d, e)] for a, b in coefficients]
        lows = [min(p[k] for p in points) for k in range(4)]
        missing = rng.randrange(4) if rng.random() < 0.25 else None
        offset = [0 if k == missing else rng.randint(0, 1) for k in range(4)]
        yield sorted(
            {tuple(p[k] - lows[k] + offset[k] for k in range(4)) for p in points}
        )


class TestLatticeOracle:
    def test_interior_points_match_the_brute_force_scan(self):
        ranks, non_cones, coarse, positive = [], 0, 0, 0
        for support in random_plane_supports(random.Random(2026), 320):
            polygon = LatticePolygon.from_points(support)
            inside, projected = lattice_oracle(support)
            assert set(polygon.interior_points) == inside, support
            assert len(polygon.interior_points) == len(inside), support
            assert is_hyperelliptic(polygon) == (_affine_rank(sorted(inside)) <= 1), support
            genus, _ = polygon_genus(Polynomial({p: Fraction(1) for p in support}))
            assert genus == len(inside)
            ranks.append(_affine_rank(support))
            non_cones += all(any(p[k] for p in support) for k in range(4))
            coarse += projected > len(inside)
            positive += bool(inside)
        assert max(ranks) == 2 and ranks.count(2) >= 200
        assert ranks.count(1) >= 5 and ranks.count(0) >= 5
        assert non_cones >= 100
        # projections of index > 1: integer points inside the projected
        # polygon whose lift leaves Z^4
        assert coarse >= 50
        assert positive >= 50

    def test_rank_three_is_refused(self):
        with pytest.raises(ValueError, match="affine rank <= 2"):
            LatticePolygon.from_points([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])

    def test_segment_and_point(self):
        segment = LatticePolygon.from_points([(0, 4, 0, 0), (0, 2, 1, 0), (0, 0, 2, 0)])
        assert segment.vertices == ((0, 0, 2, 0), (0, 4, 0, 0))
        assert segment.interior_points == () and segment.is_degenerate()
        point = LatticePolygon.from_points([(1, 2, 3, 4)])
        assert point.vertices == ((1, 2, 3, 4),) and point.interior_points == ()


# ---------------------------------------------------------------------------
# The lattice polygon against the cone chart it replaces
# ---------------------------------------------------------------------------


def random_cones(rng, count):
    """Seeded cones over random base weights with a weight-1 variable.

    The equation is a random sum of monomials of one weighted degree in the
    three base variables (quasi-homogeneous, as the pipeline's components
    are).  Yields (base variables, base weights, equation).
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
        terms = {}
        for mono in rng.sample(monomials, min(len(monomials), rng.randint(1, 5))):
            exps = [0, 0, 0, 0]
            for i, e in enumerate(mono):
                exps[VAR_INDEX[base[i]]] = e
            terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        yield base, tuple(weights), Polynomial(terms)


def chart_route(base, weights, equation):
    """Genus and hyperelliptic flag as the cone chart computed them.

    The chart sets the last weight-1 base variable to 1 (summing the
    coefficients of terms that coincide) and strips the monomial content;
    the genus is the number of integer points strictly inside the chart's
    Newton polygon in the other two base variables, and the curve is
    hyperelliptic iff those points are collinear.
    """
    chart_var = max((v for v, wt in zip(base, weights) if wt == 1), key=lambda v: VAR_INDEX[v])
    i = VAR_INDEX[chart_var]
    projected = {}
    for exps, coeff in equation.items():
        key = exps[:i] + (0,) + exps[i + 1 :]
        projected[key] = projected.get(key, 0) + coeff
    _content, chart = strip_monomial_content(Polynomial(projected))
    a, b = (VAR_INDEX[v] for v in base if v != chart_var)
    hull = _convex_hull_ccw([(e[a], e[b]) for e in chart.support()])
    inside = []
    if len(hull) > 2:
        edges = list(zip(hull, hull[1:] + hull[:1]))
        xs, ys = [p[0] for p in hull], [p[1] for p in hull]
        for x, y in product(range(min(xs) + 1, max(xs)), range(min(ys) + 1, max(ys))):
            if all((x2 - x1) * (y - y1) > (y2 - y1) * (x - x1) for (x1, y1), (x2, y2) in edges):
                inside.append((x, y))
    collinear = all(
        (inside[1][0] - inside[0][0]) * (q[1] - inside[0][1])
        == (inside[1][1] - inside[0][1]) * (q[0] - inside[0][0])
        for q in inside[2:]
    )
    return len(inside), collinear


class TestChartReference:
    def test_cones_match_the_chart_genus(self):
        flags = []
        for base, weights, equation in random_cones(random.Random(41), 300):
            genus, polygon = polygon_genus(equation)
            flags.append((genus, is_hyperelliptic(polygon)))
            assert flags[-1] == chart_route(base, weights, equation)
        assert len(flags) == 300
        assert sum(genus > 0 for genus, _ in flags) >= 30
        assert any(genus >= 3 and not collinear for genus, collinear in flags)


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
        assert set(polygon.interior_points) == {(0, 1, 1, 0), (0, 1, 2, 0), (0, 2, 1, 0)}
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
        assert result.rule == "polygon_positive_genus"
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
        assert result.verdict == RATIONAL

    def test_genus_zero_cone_rational(self):
        result = classify_rationality(
            P("y^2 + z^2 + t^2"),
            face_dimension=2,
            w=Weight((2, 1, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == RATIONAL
        assert result.rule == "polygon_genus_0"
        assert result.genus == 0

    def test_no_weight_one_variable_is_decided(self):
        # cE7 at (9,6,4,1): projected to (x, y) the triangle has the interior
        # point (1, 1), but its lift has z = 3/4, so the genus is 0.
        result = classify_rationality(
            P("x^2 + y^3 + y*z^3"),
            face_dimension=2,
            w=Weight((9, 6, 4, 1)),
            singularity_kind="cE7",
        )
        assert result.verdict == RATIONAL
        assert result.rule == "polygon_genus_0"
        assert result.polygon.doubled_area == 1

    def test_component_in_all_four_variables(self):
        result = classify_rationality(
            P("x^2 + y^4 + z^4*t^4"),
            face_dimension=2,
            w=Weight((4, 2, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == NON_RATIONAL
        assert result.rule == "polygon_positive_genus"
        assert result.genus == 1
        assert result.polygon.interior_points == ((1, 1, 1, 1),)

    def test_rank_three_component_is_undecided(self):
        result = classify_rationality(
            P("x^2 + y^3 + y*z^3 + t^18"),
            face_dimension=3,
            w=Weight((9, 6, 4, 1)),
            singularity_kind="cE7",
        )
        assert result.verdict == UNDECIDED
        assert result.rule == "no_rule_applies"
        assert result.polygon is None

    def test_degenerate_chart_downgrades_to_undecided(self):
        # The polygon edge carries z*(y + z^3)^2, singular at y = -z^3 on the
        # torus, so the interior-point genus cannot be asserted and the
        # verdict degrades rather than claiming non-rationality.
        result = classify_rationality(
            P("y^2*z + 2*y*z^4 + z^7 + t^7"),
            face_dimension=2,
            w=Weight((4, 3, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == UNDECIDED
        assert result.rule == "polygon_degenerate"
        assert result.genus == 3
        assert result.chart_verdict is not None
        assert result.chart_verdict.witness is not None

    def test_undecided_chart_downgrades_to_undecided(self, monkeypatch):
        undecided = FaceVerdict(UNDECIDED, "undecided (dimension 2): ...")
        monkeypatch.setattr(newton, "singular_torus_search", lambda g: undecided)
        result = classify_rationality(
            P("y^2*z + 2*y*z^4 + z^7 + t^7"),
            face_dimension=2,
            w=Weight((4, 3, 1, 1)),
            singularity_kind="cD",
        )
        assert result.verdict == UNDECIDED
        assert result.rule == "polygon_undecided"
        assert result.chart_verdict is undecided
        assert result.genus is not None
        assert result.warnings[0].startswith(
            "non-degeneracy of the component on its polygon is undecided"
        )

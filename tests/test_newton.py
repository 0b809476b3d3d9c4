import collections
import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from cdvdiv import curvegeom, newton
from cdvdiv.lp import minimal_points
from cdvdiv.newton import (
    AXES,
    DEGENERATE,
    NONDEGENERATE_CERTIFIED,
    Face,
    FaceVerdict,
    _affine_rank,
    _cross4,
    _dot,
    _pivot_columns,
    _primitive,
    build_diagram,
    check_nondegeneracy,
    face_polynomial,
    polygon_nondegeneracy,
    singular_torus_search,
    support_value,
)
from cdvdiv.pipeline import AnalyzeOptions, analyze, generate_corpus
from cdvdiv.poly import Polynomial, grlex_key, parse_polynomial
from test_factorize import FALLBACK, PLANTED, POLYGONS

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


# ---------------------------------------------------------------------------
# Oracle: the earlier facet orientation and work-list intersection closure
# ---------------------------------------------------------------------------


def oracle_facets(support):
    """Facets of conv(support) + R^4_{>=0}, oriented by their lo/hi values."""
    facets = {}
    pts = list(support)
    n = len(pts)
    for r in range(4):  # r + 1 spanning points, 3 - r spanning rays
        for T in itertools.combinations(range(n), r + 1):
            base = pts[T[0]]
            dirs = [tuple(a - b for a, b in zip(pts[i], base)) for i in T[1:]]
            for R in itertools.combinations(range(4), 3 - r):
                vectors = dirs + [AXES[i] for i in R]
                w = _cross4(*vectors)
                if w == (0, 0, 0, 0):
                    continue
                c = _dot(w, base)
                vals = [_dot(w, p) for p in pts]
                lo = min(vals)
                hi = max(vals)
                if lo == c and hi > c:
                    pass
                elif hi == c and lo < c:
                    w = tuple(-a for a in w)
                    c = -c
                    vals = [-v for v in vals]
                elif lo == hi == c:
                    if all(a <= 0 for a in w):
                        w = tuple(-a for a in w)
                else:
                    continue
                if any(a < 0 for a in w):
                    continue
                key = _primitive(w)
                if key in facets:
                    continue
                tight_pts = frozenset(p for p, v in zip(pts, vals) if v == c)
                tight_rays = frozenset(i for i in range(4) if key[i] == 0)
                if _affine_rank(sorted(tight_pts), [AXES[i] for i in tight_rays]) == 3:
                    facets[key] = (tight_pts, tight_rays)
    return facets


def oracle_diagram(f, points):
    """(facets, vertices, faces) of f from the facets of `points(support)`,
    closed under intersection by a work list."""
    support = f.support()
    facets = oracle_facets(points(support))
    faces = {}
    work = [(pts, rays) for pts, rays in facets.values()]
    for item in work:
        faces[item] = None
    while work:
        new_items = []
        for a_pts, a_rays in work:
            for b_pts, b_rays in list(faces):
                pts = a_pts & b_pts
                rays = a_rays & b_rays
                if not pts:
                    continue
                key = (pts, rays)
                if key not in faces:
                    faces[key] = None
                    new_items.append(key)
        work = new_items
    face_objs = []
    for pts in [pts for pts, rays in faces if not rays]:
        sorted_pts = tuple(sorted(pts, key=grlex_key))
        normals = [w for w, (fpts, _frays) in facets.items() if pts <= fpts]
        witness = _primitive([sum(col) for col in zip(*normals)])
        assert all(c > 0 for c in witness)
        m = min(_dot(witness, v) for v in support)
        assert frozenset(v for v in support if _dot(witness, v) == m) == pts
        face_objs.append(Face(_affine_rank(sorted_pts), sorted_pts, witness))
    face_objs.sort(key=lambda face: (face.dimension, face.lattice_points))
    vertices = tuple(face.lattice_points[0] for face in face_objs if face.dimension == 0)
    return facets, vertices, tuple(face_objs)


def supports_in_few_variables(rng, count):
    """Seeded supports in 1, 2, 3 and 4 of the variables."""
    cases = []
    for i in range(count):
        used = rng.sample(range(4), 1 + i % 4)
        f = random_support_polynomial(rng)
        cases.append(
            Polynomial({tuple(e * (j in used) for j, e in enumerate(v)): 1 for v in f.support()})
        )
    return cases


def quasihomogeneous_supports(rng, count):
    """Supports on one hyperplane <w, v> = level, w strictly positive."""
    cases = []
    while len(cases) < count:
        w = tuple(rng.randint(1, 5) for _ in range(4))
        level = rng.randint(6, 24)
        points = [
            v
            for v in itertools.product(*(range(level // c + 1) for c in w))
            if _dot(w, v) == level
        ]
        if points:
            cases.append(Polynomial({v: 1 for v in rng.sample(points, min(len(points), 7))}))
    return cases


def dominated_supports(rng, count):
    """The supports with dominated points of `TestMinimalPointFilter`."""
    return [TestMinimalPointFilter.dominated_support(rng) for _ in range(count)]


def dense_supports(rng, count):
    """Supports of 10 to 16 points of total degree 11, 12 or 13, none of
    which dominates another, so every coordinate projection keeps a large
    pool of minimal points."""
    cases = []
    for _ in range(count):
        points = []
        for _ in range(rng.randint(10, 16)):
            while True:
                total = rng.randint(11, 13)
                cuts = sorted(rng.randint(0, total) for _ in range(3))
                v = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2])
                if not any(
                    all(a <= b for a, b in zip(q, v)) or all(a >= b for a, b in zip(q, v))
                    for q in points
                ):
                    break
            points.append(v)
        cases.append(Polynomial({v: 1 for v in points}))
    return cases


def segment_supports(rng, count):
    """Supports whose points sit on segments and triangles of other points.

    Four corners, on one quasihomogeneous plane (every other case) or
    anywhere, bring the lattice points strictly inside the segments between
    them, integral points inside the triangle of the first three (on a
    2-face when the corners share a facet), a point one unit above a
    segment point and one more random point.
    """
    cases = []
    while len(cases) < count:
        if len(cases) % 2:
            w = tuple(rng.randint(1, 4) for _ in range(4))
            level = rng.randint(8, 18)
            plane = [
                v
                for v in itertools.product(*(range(level // c + 1) for c in w))
                if _dot(w, v) == level
            ]
            if len(plane) < 4:
                continue
            corners = rng.sample(plane, 4)
        else:
            corners = [tuple(rng.choice((0, 2, 4, 6)) for _ in range(4)) for _ in range(4)]
        points = set(corners)
        on_segments = []
        for a, b in itertools.combinations(corners, 2):
            d = [y - x for x, y in zip(a, b)]
            g = math.gcd(*d)
            on_segments += [tuple(x + j * c // g for x, c in zip(a, d)) for j in range(1, g)]
        points.update(on_segments)
        for i, j, k in itertools.product(range(1, 4), repeat=3):
            total = [i * x + j * y + k * z for x, y, z in zip(*corners[:3])]
            if all(c % (i + j + k) == 0 for c in total):
                points.add(tuple(c // (i + j + k) for c in total))
        if on_segments:
            above = list(rng.choice(on_segments))
            above[rng.randrange(4)] += 1
            points.add(tuple(above))
        points.add(tuple(rng.randint(0, 7) for _ in range(4)))
        if len(points) <= 18:
            cases.append(Polynomial({v: 1 for v in points}))
    return cases


ORACLE_SOURCES = {
    "few variables": lambda: supports_in_few_variables(random.Random(53), 160),
    "dominated": lambda: dominated_supports(random.Random(41), 40),
    "dense": lambda: dense_supports(random.Random(61), 24),
    "quasihomogeneous": lambda: quasihomogeneous_supports(random.Random(59), 60),
    "seed-0 corpus": lambda: [instance.polynomial for instance in generate_corpus(0)],
    "segments": lambda: segment_supports(random.Random(67), 40),
}


class TestDiagramOracle:
    """`_facets` and `build_diagram` against the oracle, filtered and unfiltered."""

    @pytest.mark.parametrize("source", sorted(ORACLE_SOURCES))
    def test_facets_and_diagram_match(self, source, monkeypatch):
        cases = ORACLE_SOURCES[source]()
        filtered = [build_diagram(f) for f in cases]
        monkeypatch.setattr(newton, "minimal_points", list)
        for f, d in zip(cases, filtered):
            for points, diagram in ((minimal_points, d), (list, build_diagram(f))):
                facets, vertices, faces = oracle_diagram(f, points)
                assert newton._facets(points(f.support())) == facets
                assert (diagram.vertices, diagram.faces) == (vertices, faces)


class TestFacetInvariant:
    """Every plane `_facets` returns is a facet, with no rank check of its own."""

    @pytest.mark.parametrize("source", sorted(ORACLE_SOURCES))
    def test_supporting_plane_of_rank_three(self, source):
        for f in ORACLE_SOURCES[source]():
            for points in (minimal_points(f.support()), f.support()):
                facets = newton._facets(points)
                assert facets
                for w, (pts, rays) in facets.items():
                    level = _dot(w, next(iter(pts)))
                    assert all(_dot(w, p) >= level for p in points)
                    assert pts == {p for p in points if _dot(w, p) == level}
                    assert _affine_rank(sorted(pts), [AXES[i] for i in rays]) == 3
                    assert rays == {i for i in range(4) if w[i] == 0}


class TestSegmentPrune:
    """The compact-facet pool of `_facets` without points inside segments."""

    @pytest.mark.parametrize("source", sorted(ORACLE_SOURCES))
    def test_no_vertex_is_dropped(self, source):
        dropped = 0
        for f in ORACLE_SOURCES[source]():
            vertices = set(build_diagram(f).vertices)
            for points in (minimal_points(f.support()), f.support()):
                inside = newton._inside_segments(points)
                assert not inside & vertices
                dropped += len(inside)
        if source == "segments":
            assert dropped >= 100

    def test_inside_points_by_hand(self):
        points = [(0, 0, 0, 4), (0, 0, 2, 2), (0, 0, 4, 0), (0, 0, 3, 2), (1, 1, 1, 1)]
        # (0, 0, 3, 2) lies above a segment point, on no segment of two others
        assert newton._inside_segments(points) == {(0, 0, 2, 2)}

    def test_cross_products_on_the_seed_0_corpus(self, monkeypatch):
        calls = []

        def counting(*vectors):
            calls.append(vectors)
            return _cross4(*vectors)

        monkeypatch.setattr(newton, "_cross4", counting)
        for instance in generate_corpus(0):
            build_diagram(instance.polynomial)
        assert len(calls) == 1851  # 6,462 when every minimal point spans


class TestCross4:
    """`_cross4` against sympy's 4x4 cofactor expansion.

    The oracle diagram calls the same `_cross4`, so this is the check that
    does not depend on it.
    """

    @staticmethod
    def triples(rng, count):
        """Seeded triples in Z^4: random ones, axis rays as `_facets` passes
        them, and dependent ones (a repeated vector, a zero vector, or an
        integer combination of the other two)."""
        cases = []
        for i in range(count):
            u, v, s = (tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(3))
            kind = i % 5
            if kind == 1:
                v, s = rng.sample(AXES, 2)
            elif kind == 2:
                s = rng.choice(AXES)
            elif kind == 3:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                s = tuple(a * x + b * y for x, y in zip(u, v))
            elif kind == 4:
                u, v, s = rng.choice([(u, u, s), (u, v, v), ((0, 0, 0, 0), v, s)])
            cases.append((u, v, s))
        return cases

    def test_matches_sympy_cofactors(self):
        dependent = 0
        for u, v, s in self.triples(random.Random(73), 300):
            # entry i is the cofactor of e_i in det(x; u; v; s), so <w, x> is that det
            expected = tuple(
                int(sympy.Matrix([list(axis), list(u), list(v), list(s)]).det()) for axis in AXES
            )
            assert _cross4(u, v, s) == expected
            rank = sympy.Matrix([u, v, s]).rank()
            assert (expected == (0, 0, 0, 0)) == (rank < 3)
            dependent += rank < 3
        assert dependent >= 100

    def test_normal_is_orthogonal_to_its_vectors(self):
        for u, v, s in self.triples(random.Random(79), 300):
            w = _cross4(u, v, s)
            assert _dot(w, u) == _dot(w, v) == _dot(w, s) == 0


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


def rank_keeping_coordinates(points):
    """The combinatorial search that `_pivot_columns` replaced: the first
    d-subset of coordinates, in itertools.combinations order, whose
    projection keeps the affine rank d of the points."""
    k = len(points[0])

    def rank(cols):
        pad = (0,) * (4 - len(cols))
        return _affine_rank([tuple(p[i] for i in cols) + pad for p in points])

    d = rank(range(k))
    return next(cols for cols in itertools.combinations(range(k), d) if rank(cols) == d)


def point_sets(rng, count):
    """Seeded point sets with 1-4 coordinates: random ones, and ones on a
    line or a plane through a random point (so dependent), in turn."""
    for n in range(count):
        k = rng.randint(1, 4)
        vec = lambda: [rng.randint(-3, 3) for _ in range(k)]  # noqa: E731
        shape = n % 3
        if shape == 0:
            points = [vec() for _ in range(rng.randint(1, 6))]
        else:
            base, spans = vec(), [vec() for _ in range(shape)]
            points = [
                [b + sum(rng.randint(-2, 2) * v[i] for v in spans) for i, b in enumerate(base)]
                for _ in range(rng.randint(1, 6))
            ]
        yield [tuple(p) for p in points]


class TestPivotColumns:
    def test_matches_the_combinatorial_search(self):
        ranks = collections.Counter()
        for points in point_sets(random.Random(23), 3000):
            pivots = _pivot_columns(points)
            assert pivots == rank_keeping_coordinates(points), points
            ranks[len(points[0]), len(pivots)] += 1
        # every rank from 0 to the number of coordinates occurs, for each number
        assert all(ranks[k, d] for k in range(1, 5) for d in range(k + 1))


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
        verdict = singular_torus_search(parse_polynomial("y^2*z + z^3 + t^3"))
        assert verdict.status == NONDEGENERATE_CERTIFIED

    def test_monomial_certified(self):
        verdict = singular_torus_search(parse_polynomial("x^2"))
        assert verdict.status == NONDEGENERATE_CERTIFIED

    def test_degenerate_square_with_witness(self):
        verdict = singular_torus_search(parse_polynomial("z^2 - 2*z*t + t^2"))
        assert verdict.status == DEGENERATE
        assert verdict.witness is not None
        assert verdict.witness.point == (1, 1)
        assert verdict.witness.exact_over_rationals

    def test_diagram_checker_runs_per_face(self):
        d = build_diagram(EXAMPLE_CD4)
        results = check_nondegeneracy(d)
        assert len(results) == len(d.faces)
        for _face, verdict in results:
            assert verdict.status == NONDEGENERATE_CERTIFIED


# ---------------------------------------------------------------------------
# The polygon test against the pairwise edge rule and the chart loop
# ---------------------------------------------------------------------------


def pairwise_polygon_edges(support):
    """The projection coordinates and the edges of conv(support), a polygon.

    A line through two projected points is an edge's line iff no point lies
    strictly on each side of it (the former `factorize._polygon_edges`).
    """
    i, j = next(
        (i, j)
        for i, j in itertools.combinations(range(4), 2)
        if _affine_rank([(p[i], p[j], 0, 0) for p in support]) == 2
    )
    plane = [(p[i], p[j]) for p in support]
    edges = set()
    for (ax, ay), (bx, by) in itertools.combinations(plane, 2):
        sides = [(bx - ax) * (qy - ay) - (by - ay) * (qx - ax) for qx, qy in plane]
        if min(sides) >= 0 or max(sides) <= 0:
            edges.add(frozenset(p for p, side in zip(support, sides) if not side))
    return (i, j), edges


def counterclockwise_edges(support):
    """The pairwise edges, chained tail to head from the least projected vertex."""
    (i, j), edges = pairwise_polygon_edges(support)
    plane = [(p[i], p[j]) for p in support]
    by_tail = {}
    for edge in edges:
        ends = sorted((p[i], p[j]) for p in edge)
        a, b = ends[0], ends[-1]
        sides = [(b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) for q in plane]
        if min(sides) < 0:  # the polygon lies to the left of a walk from a to b
            a, b = b, a
        by_tail[a] = (b, edge)
    walk, tail = [], min(plane)
    while len(walk) < len(by_tail):
        tail, edge = by_tail[tail]
        walk.append(edge)
    return walk


def chart_loop_verdict(g):
    """The worst verdict over g and every edge in counterclockwise order."""
    pieces = [g] + [
        Polynomial({p: g.coefficient(p) for p in edge})
        for edge in counterclockwise_edges(g.support())
    ]
    worst = FaceVerdict(NONDEGENERATE_CERTIFIED, "all polygon pieces certified")
    for piece in pieces:
        verdict = singular_torus_search(piece)
        if verdict.status == DEGENERATE:
            return verdict
        if verdict.status != NONDEGENERATE_CERTIFIED:
            worst = verdict
    return worst


# the golden `polygon_degenerate` component at t = 1, with witness z = 1/4
GOLDEN_DEGENERATE_CHART = parse_polynomial("256*z^4 + 256*x^2 - 96*z^2 + 32*z - 3")

FACTORIZE_POLYGONS = [
    f
    for f in POLYGONS + PLANTED + [parse_polynomial(s) for s in FALLBACK]
    if _affine_rank(f.support()) == 2
]


class TestPolygonNondegeneracy:
    @pytest.mark.parametrize(
        "g", FACTORIZE_POLYGONS, ids=[f"polygon{i}" for i in range(len(FACTORIZE_POLYGONS))]
    )
    def test_factorize_polygons_match_the_chart_loop(self, g):
        assert polygon_nondegeneracy(g) == chart_loop_verdict(g)

    def test_factorize_polygons_reach_every_verdict(self):
        statuses = {polygon_nondegeneracy(g).status for g in FACTORIZE_POLYGONS}
        assert statuses == {NONDEGENERATE_CERTIFIED, DEGENERATE, newton.UNDECIDED}

    def test_first_degenerate_edge_counterclockwise(self):
        # Edges (x - y)^2 and (y + 2z)^2 are both degenerate; counterclockwise
        # in (x, y) from z^2 the walk meets x^2 + 4z^2, then (x - y)^2.
        g = parse_polynomial("x^2 - 2*x*y + y^2 + 4*y*z + 4*z^2")
        verdict = polygon_nondegeneracy(g)
        assert verdict == chart_loop_verdict(g)
        assert verdict == singular_torus_search(parse_polynomial("x^2 - 2*x*y + y^2"))

    def test_golden_degenerate_chart(self):
        verdict = polygon_nondegeneracy(GOLDEN_DEGENERATE_CHART)
        assert verdict == chart_loop_verdict(GOLDEN_DEGENERATE_CHART)
        assert verdict.status == DEGENERATE
        assert verdict.detail == (
            "exact (dimension 1): h(z) = g has the repeated factor 16*z^2 - 8*z + 1"
        )
        assert verdict.witness.point == (Fraction(1, 4),)

    def test_workload_chart_curves_match_the_chart_loop(self, monkeypatch):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
        from workloads import analyze_inputs

        charts = []
        real = curvegeom.chart_nondegeneracy
        monkeypatch.setattr(
            curvegeom, "chart_nondegeneracy", lambda g2: charts.append(g2) or real(g2)
        )
        germs = [instance.polynomial for instance in generate_corpus(seed=0)]
        germs += [inp.polynomial for inp in analyze_inputs(0, tiny=False)]
        for f in germs:
            analyze(f, AnalyzeOptions(check_faces=False))
        assert len(charts) >= 50
        for g in charts:
            assert polygon_nondegeneracy(g) == chart_loop_verdict(g), g

    def test_rank_other_than_two_is_refused(self):
        for text in ("z^2 - 2*z*t + t^2", "x^2 + y^3 + z^5 + t^7"):
            with pytest.raises(ValueError, match="affine rank 2"):
                polygon_nondegeneracy(parse_polynomial(text))

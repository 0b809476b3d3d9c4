"""Rationality of exceptional components via their lattice polygons.

A component h whose support has affine rank 2 meets the torus in Z_h times
a one-dimensional torus, where Z_h is a curve whose Newton polygon is the
convex hull of supp h in the lattice Z^4 meet aff(supp h).  The geometric
genus of Z_h is at most the number of lattice points strictly inside that
polygon, with equality when h is non-degenerate on the polygon and its
edges (Khovanskii, "Newton polyhedra and the genus of complete
intersections", 1978), so a count of 0 certifies rationality
unconditionally.  A non-degenerate curve of positive genus is hyperelliptic
exactly when the interior points are collinear (Castryck and Voight, "On
nondegeneracy of curves", 2009).  A support of affine rank <= 1 has no
interior points.

classify_rationality chains the decision rules in a fixed cascade; every
verdict records which rule fired, and anything the rules cannot certify is
reported as undecided rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import List, Optional, Sequence, Tuple

from cdvdiv.blowup import Weight
from cdvdiv.newton import (
    DEGENERATE,
    FaceVerdict,
    NONDEGENERATE_CERTIFIED,
    _convex_hull_ccw,
    _pivot_columns,
    polygon_nondegeneracy,
)
from cdvdiv.poly import Polynomial

RATIONAL = "rational"
NON_RATIONAL = "non_rational"
RATIONAL_BY_PLT = "rational_by_plt"
UNDECIDED = "undecided"

# Weight patterns whose blowups are purely log terminal for the given type;
# their exceptional divisors are rational.  Kept as data so the rule is
# auditable rather than re-derived.
PLT_WEIGHTS = {
    "cE6": ((6, 4, 3, 1),),
    "cE8": ((15, 10, 6, 1),),
}


def is_plt_weight(kind: str, w: Weight) -> bool:
    if kind == "cD":
        k = w[0]
        return k >= 2 and w.w == (k, k - 1, 2, 1)
    return w.w in PLT_WEIGHTS.get(kind, ())


@dataclass(frozen=True)
class LatticePolygon:
    """Convex hull of points of affine rank <= 2, in the lattice of their plane.

    The lattice is Z^n meet the affine hull of the points.  Vertices are
    points in counterclockwise convex position as seen in the two pivot
    coordinates of `newton._pivot_columns`, or the ends of a segment, or
    one point; interior_points are the lattice points strictly inside.
    boundary_count and doubled_area are measured in the same lattice, and
    for a polygon with an interior Pick's identity
    (area = interior + boundary/2 - 1) is verified at construction time.
    """

    vertices: Tuple[Tuple[int, ...], ...]
    interior_points: Tuple[Tuple[int, ...], ...]
    boundary_count: int
    doubled_area: int

    @staticmethod
    def from_points(points: Sequence[Sequence[int]]) -> "LatticePolygon":
        """The polygon of `points`, which must have affine rank <= 2.

        The projection to the pivot columns i, j is injective on the plane.
        With two spanning differences d, e of the plane and their 2x2 minors
        m_ab = d_a e_b - d_b e_a, the point of the plane over the projected
        point base + (p, q) has coordinate k equal to
        base_k + (p m_kj + q m_ik) / m_ij, so a projected integer point is
        in the lattice iff each of those quotients is an integer.  The
        projection scales areas by the lattice index |m_ij| / g, g the gcd
        of all the minors.
        """
        points = sorted(set(map(tuple, points)))
        cols = _pivot_columns(points)
        if len(cols) > 2:
            raise ValueError("a lattice polygon needs points of affine rank <= 2")
        if len(cols) < 2:
            ends = (points[0], points[-1]) if len(points) > 1 else (points[0],)
            return LatticePolygon(ends, (), len(ends), 0)
        i, j = cols
        lift = {(p[i], p[j]): p for p in points}
        hull = _convex_hull_ccw(list(lift))
        vertices = [lift[v] for v in hull]
        base = vertices[0]
        d = [a - b for a, b in zip(vertices[1], base)]
        e = [a - b for a, b in zip(vertices[2], base)]

        def minor(a: int, b: int) -> int:
            return d[a] * e[b] - d[b] * e[a]

        m_ij = minor(i, j)
        index_gcd = gcd(*(minor(a, b) for a, b in combinations(range(len(base)), 2)))
        others = [(k, minor(k, j), minor(i, k)) for k in range(len(base)) if k not in cols]
        area2 = 0
        boundary = 0
        for u, v in zip(vertices, vertices[1:] + vertices[:1]):
            area2 += u[i] * v[j] - v[i] * u[j]
            boundary += gcd(*(b - a for a, b in zip(u, v)))
        doubled_area, rest = divmod(area2 * index_gcd, abs(m_ij))
        interior = []
        for a, b in _interior_points(hull):
            p, q = a - base[i], b - base[j]
            point = list(base)
            for k, m_kj, m_ik in others:
                shift, off = divmod(p * m_kj + q * m_ik, m_ij)
                if off:
                    break
                point[k] += shift
            else:
                point[i], point[j] = a, b
                interior.append(tuple(point))
        # Pick's identity as a construction-time self check.
        assert rest == 0 and doubled_area == 2 * len(interior) + boundary - 2, (
            vertices,
            doubled_area,
            boundary,
            interior,
        )
        return LatticePolygon(
            vertices=tuple(vertices),
            interior_points=tuple(interior),
            boundary_count=boundary,
            doubled_area=doubled_area,
        )

    def is_degenerate(self) -> bool:
        return len(self.vertices) <= 2


def _interior_points(hull: List[Tuple[int, int]]):
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    edges = list(zip(hull, hull[1:] + [hull[0]]))
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            inside = True
            for (x1, y1), (x2, y2) in edges:
                if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0:
                    inside = False
                    break
            if inside:
                yield (x, y)


def polygon_genus(g: Polynomial) -> Tuple[int, LatticePolygon]:
    """Genus of the curve of g, a support of affine rank <= 2, as the
    interior lattice point count of its polygon.

    Exact for g non-degenerate with respect to the polygon; an upper bound
    for the geometric genus in general.  Supports of affine rank <= 1 give
    genus 0.
    """
    polygon = LatticePolygon.from_points(g.support())
    return len(polygon.interior_points), polygon


def is_hyperelliptic(p: LatticePolygon) -> bool:
    """Collinearity of the interior lattice points.

    Genus <= 1 (at most one interior point) is reported as hyperelliptic by
    convention; callers flag that case separately.
    """
    pts = p.interior_points
    if len(pts) <= 2:
        return True
    o = pts[0]
    u = [a - b for a, b in zip(pts[1], o)]
    for q in pts[2:]:
        v = [a - b for a, b in zip(q, o)]
        if any(u[a] * v[b] != u[b] * v[a] for a, b in combinations(range(len(u)), 2)):
            return False
    return True


def chart_nondegeneracy(g: Polynomial) -> FaceVerdict:
    """Non-degeneracy of a component of affine rank 2 on its Newton polygon
    and its edges: `newton.polygon_nondegeneracy`."""
    return polygon_nondegeneracy(g)


@dataclass(frozen=True)
class RationalityResult:
    verdict: str
    rule: str
    polygon: Optional[LatticePolygon] = None
    genus: Optional[int] = None
    hyperelliptic: Optional[bool] = None
    hyperelliptic_by_convention: bool = False
    chart_verdict: Optional[FaceVerdict] = None
    warnings: Tuple[str, ...] = ()


def classify_rationality(
    component: Polynomial,
    face_dimension: int,
    w: Weight,
    singularity_kind: str,
) -> RationalityResult:
    """Decide rationality of one discrepancy-1 exceptional component.

    Rule cascade, in order:
      a. faces of dimension <= 1 only carry rational components;
      a'. over a cA-type point every discrepancy-1 divisor centered at the
          origin is rational (classical, kept as a table rule);
      b. an equation linear in a variable it contains is a graph, hence
         rational;
      c. weights in the purely-log-terminal exclusion table are rational;
      d. a component whose support has affine rank <= 2 is rational when
         its lattice polygon has no interior point; positive genus is
         asserted only when the component passes the non-degeneracy check
         on its polygon (otherwise the verdict degrades to undecided);
      e. everything else (affine rank 3) is undecided - reported, never
         guessed.
    """
    if face_dimension <= 1:
        return RationalityResult(RATIONAL, "face_dimension_le_1")
    if singularity_kind == "cA":
        return RationalityResult(RATIONAL, "cA_type_table")
    for v in component.variables_present():
        if component.max_exponent(v) == 1:
            return RationalityResult(RATIONAL, f"linear_in_{v}")
    if is_plt_weight(singularity_kind, w):
        return RationalityResult(RATIONAL_BY_PLT, "plt_weight_table")
    try:
        genus, polygon = polygon_genus(component)
    except ValueError:  # affine rank 3
        return RationalityResult(
            UNDECIDED,
            "no_rule_applies",
            warnings=("component is not a cone and no rationality rule applies",),
        )
    chart_verdict, warnings = None, ()
    if genus == 0:
        # Interior count bounds the geometric genus from above, so genus 0 is
        # certain regardless of non-degeneracy.
        verdict, rule = RATIONAL, "polygon_genus_0"
    else:
        chart_verdict = chart_nondegeneracy(component)
        if chart_verdict.status == NONDEGENERATE_CERTIFIED:
            verdict, rule = NON_RATIONAL, "polygon_positive_genus"
        else:
            degenerate = chart_verdict.status == DEGENERATE
            verdict = UNDECIDED
            rule = "polygon_degenerate" if degenerate else "polygon_undecided"
            warnings = (
                (
                    "component is degenerate with respect to its polygon"
                    if degenerate
                    else "non-degeneracy of the component on its polygon is undecided"
                )
                + "; the interior-point genus is only an upper bound",
            )
    return RationalityResult(
        verdict,
        rule,
        polygon=polygon,
        genus=genus,
        hyperelliptic=is_hyperelliptic(polygon),
        hyperelliptic_by_convention=genus <= 1,
        chart_verdict=chart_verdict,
        warnings=warnings,
    )

"""Rationality of exceptional components via base-curve lattice geometry.

A component whose equation omits one of the four variables is a cone inside
weighted projective space: its geometry is controlled by the base curve in
the residual weighted plane.  Setting a weight-1 base variable to 1 gives an
affine chart in two variables, and for a curve non-degenerate with respect
to its Newton polygon the geometric genus equals the number of interior
lattice points of that polygon (in general the count is still an upper
bound, so a zero count certifies rationality unconditionally).  A
non-degenerate polygon curve is hyperelliptic exactly when the interior
lattice points are collinear.

classify_rationality chains the decision rules in a fixed cascade; every
verdict records which rule fired, and anything the rules cannot certify is
reported as undecided rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from cdvdiv.blowup import Weight
from cdvdiv.newton import (
    DEGENERATE,
    FaceVerdict,
    NONDEGENERATE_CERTIFIED,
    _convex_hull_ccw,
    polygon_nondegeneracy,
)
from cdvdiv.poly import Polynomial, VARS, VAR_INDEX
from cdvdiv.factorize import strip_monomial_content

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
class ConeStructure:
    """A component equation missing one variable: a cone over a plane curve."""

    missing_variable: str
    missing_weight: int
    base_variables: Tuple[str, str, str]
    base_weights: Tuple[int, int, int]
    base_equation: Polynomial


def detect_cone(component: Polynomial, w: Weight) -> Optional[ConeStructure]:
    """Cone structure of a component, if some variable is absent.

    When several variables are absent the one with the largest weight is
    chosen (ties broken by variable order).
    """
    if component.is_zero():
        raise ValueError("cannot analyze the zero component")
    present = set(component.variables_present())
    absent = [v for v in VARS if v not in present]
    if not absent:
        return None
    missing = max(absent, key=lambda v: (w[VAR_INDEX[v]], -VAR_INDEX[v]))
    base = tuple(v for v in VARS if v != missing)
    return ConeStructure(
        missing_variable=missing,
        missing_weight=w[VAR_INDEX[missing]],
        base_variables=base,
        base_weights=tuple(w[VAR_INDEX[v]] for v in base),
        base_equation=component,
    )


def chart_polynomial(c: ConeStructure) -> Tuple[Polynomial, Tuple[str, str]]:
    """Affine chart of the base curve: set a weight-1 base variable to 1.

    Prefers t, then z, then y, then x among the weight-1 base variables.
    Setting it to 1 projects each exponent vector onto the others, summing
    the coefficients of terms that coincide; monomial content is stripped
    from the result.  Raises ValueError when no base variable has weight 1
    (outside the certified scope of the pipeline).
    """
    candidates = [
        v for v, wt in zip(c.base_variables, c.base_weights) if wt == 1
    ]
    if not candidates:
        raise ValueError(
            f"no weight-1 variable in the base P{c.base_weights}; "
            "chart construction is out of certified scope"
        )
    chart_var = max(candidates, key=lambda v: VAR_INDEX[v])
    i = VAR_INDEX[chart_var]
    projected = {}
    for exps, coeff in c.base_equation.items():
        key = exps[:i] + (0,) + exps[i + 1 :]
        projected[key] = projected.get(key, 0) + coeff
    _content, stripped = strip_monomial_content(Polynomial(projected))
    remaining = tuple(v for v in c.base_variables if v != chart_var)
    return stripped, remaining


@dataclass(frozen=True)
class LatticePolygon:
    """Convex hull of 2-D lattice points with its interior points.

    Vertices are in counterclockwise convex position.  For genuinely
    2-dimensional polygons Pick's identity (area = interior + boundary/2 - 1)
    is verified at construction time.
    """

    vertices: Tuple[Tuple[int, int], ...]
    interior_points: Tuple[Tuple[int, int], ...]
    boundary_count: int
    doubled_area: int

    @staticmethod
    def from_points(points: Sequence[Tuple[int, int]]) -> "LatticePolygon":
        hull = _convex_hull_ccw(points)
        if len(hull) <= 2:
            return LatticePolygon(
                vertices=tuple(hull),
                interior_points=(),
                boundary_count=len(hull),
                doubled_area=0,
            )
        area2 = 0
        boundary = 0
        for (x1, y1), (x2, y2) in zip(hull, hull[1:] + [hull[0]]):
            area2 += x1 * y2 - x2 * y1
            boundary += gcd(abs(x2 - x1), abs(y2 - y1))
        interior = tuple(_interior_points(hull))
        # Pick's identity as a construction-time self check.
        assert area2 == 2 * len(interior) + boundary - 2, (
            hull,
            area2,
            boundary,
            interior,
        )
        return LatticePolygon(
            vertices=tuple(hull),
            interior_points=interior,
            boundary_count=boundary,
            doubled_area=area2,
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


def polygon_of(
    g2: Polynomial, chart_vars: Tuple[str, str] | None = None
) -> Tuple[LatticePolygon, Tuple[str, str]]:
    """Newton polygon of a polynomial in at most two variables."""
    if g2.is_zero():
        raise ValueError("zero polynomial has no Newton polygon")
    if chart_vars is None:
        present = g2.variables_present()
        if len(present) > 2:
            raise ValueError("polygon_of expects a polynomial in <= 2 variables")
        padded = list(present)
        for v in reversed(VARS):
            if len(padded) >= 2:
                break
            if v not in padded:
                padded.append(v)
        chart_vars = tuple(sorted(padded, key=lambda v: VAR_INDEX[v]))[:2]
    i, j = VAR_INDEX[chart_vars[0]], VAR_INDEX[chart_vars[1]]
    points = []
    for exps in g2.support():
        for k in range(4):
            if k not in (i, j) and exps[k]:
                raise ValueError(
                    f"polynomial involves {VARS[k]}, outside the chart {chart_vars}"
                )
        points.append((exps[i], exps[j]))
    return LatticePolygon.from_points(points), chart_vars


def polygon_genus(
    g2: Polynomial, chart_vars: Tuple[str, str] | None = None
) -> Tuple[int, LatticePolygon]:
    """Genus of the chart curve as the interior lattice point count.

    Exact for curves non-degenerate with respect to the polygon; an upper
    bound for the geometric genus in general.  Degenerate supports (fewer
    than 3 points, or all collinear) give genus 0 directly.
    """
    polygon, _vars = polygon_of(g2, chart_vars)
    if polygon.is_degenerate():
        return 0, polygon
    return len(polygon.interior_points), polygon


def is_hyperelliptic(p: LatticePolygon) -> bool:
    """Collinearity of the interior lattice points.

    Genus <= 1 (at most one interior point) is reported as hyperelliptic by
    convention; callers flag that case separately.
    """
    pts = p.interior_points
    if len(pts) <= 2:
        return True
    (x0, y0) = pts[0]
    (x1, y1) = pts[1]
    for (x, y) in pts[2:]:
        if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) != 0:
            return False
    return True


def chart_nondegeneracy(g2: Polynomial) -> FaceVerdict:
    """Non-degeneracy of the chart curve on its Newton polygon and its edges.

    The chart curve has a polygon of affine rank 2; the test is
    `newton.polygon_nondegeneracy`.
    """
    return polygon_nondegeneracy(g2)


@dataclass(frozen=True)
class RationalityResult:
    verdict: str
    rule: str
    cone: Optional[ConeStructure] = None
    chart: Optional[Polynomial] = None
    chart_variables: Optional[Tuple[str, str]] = None
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
      d. a cone is rational iff its base curve has genus 0; positive genus
         is asserted only when the chart curve passes the non-degeneracy
         check (otherwise the verdict degrades to undecided);
      e. everything else is undecided - reported, never guessed.
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
    cone = detect_cone(component, w)
    if cone is None:
        return RationalityResult(
            UNDECIDED,
            "no_rule_applies",
            warnings=("component is not a cone and no rationality rule applies",),
        )
    try:
        chart, chart_vars = chart_polynomial(cone)
    except ValueError as err:
        return RationalityResult(
            UNDECIDED, "chart_unavailable", cone=cone, warnings=(str(err),)
        )
    genus, polygon = polygon_genus(chart, chart_vars)
    chart_verdict, warnings = None, ()
    if genus == 0:
        # Interior count bounds the geometric genus from above, so genus 0 is
        # certain regardless of non-degeneracy.
        verdict, rule = RATIONAL, "cone_genus_0"
    else:
        chart_verdict = chart_nondegeneracy(chart)
        if chart_verdict.status == NONDEGENERATE_CERTIFIED:
            verdict, rule = NON_RATIONAL, "cone_positive_genus"
        else:
            degenerate = chart_verdict.status == DEGENERATE
            verdict = UNDECIDED
            rule = "chart_degenerate" if degenerate else "chart_undecided"
            warnings = (
                (
                    "chart curve is degenerate with respect to its polygon"
                    if degenerate
                    else "non-degeneracy of the chart curve is undecided"
                )
                + "; the interior-point genus is only an upper bound",
            )
    return RationalityResult(
        verdict,
        rule,
        cone=cone,
        chart=chart,
        chart_variables=chart_vars,
        polygon=polygon,
        genus=genus,
        hyperelliptic=is_hyperelliptic(polygon),
        hyperelliptic_by_convention=genus <= 1,
        chart_verdict=chart_verdict,
        warnings=warnings,
    )

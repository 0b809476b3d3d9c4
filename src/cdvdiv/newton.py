"""Newton polyhedron and diagram of a polynomial in x, y, z, t.

The Newton polyhedron of f is conv(supp f) + R^4_{>=0}.  Its compact faces
(the Newton diagram) are exactly the argmin loci of strictly positive weight
vectors.  Enumeration is brute force and exact:

  1. candidate facet hyperplanes are spanned by a set R of 3 - r
     coordinate recession directions and r + 1 minimal points of the
     support with R's coordinates zeroed (a facet normal that vanishes
     exactly on R is positive off R, so its tight points project to
     minimal points); their integer normals come from the generalized
     cross product in Z^4.  The polyhedron is bounded below only along
     non-negative normals, so a normal with a negative entry is negated,
     and dropped if it still has one or is zero.  The four coordinate
     facets (r = 0) are written down directly; a set R onto which some
     support point collapses to 0 is skipped, since a face with normal
     zero exactly on R then lies in the span of R; and the compact facets
     (r = 3) are spanned from the minimal points that lie strictly inside
     no segment between two others, which keeps every vertex;
  2. a non-negative normal whose plane has no support point below it
     supports the polyhedron, and it is a facet: the spanning vectors are
     independent and lie in the plane;
  3. every proper face is an intersection of facets, so one pass over the
     facets, intersecting each with every face found so far as bitmasks
     over the minimal points and the axes, yields the whole face lattice,
     and the faces with no recession direction are the compact ones.  The
     minimal points are numbered in grlex order, so a compact face reads
     its points off its mask already sorted.  The face lattice of a
     polytope is graded, so a compact face's dimension is one more than
     the largest among its proper compact subfaces.

Each compact face stores a canonical witness weight (an interior point of
its normal cone, obtained as the primitive sum of the normals of all facets
containing it), so face = argmin(<witness, .>) is directly checkable.

The module also hosts the non-degeneracy checker: a face polynomial is
certified non-degenerate by a symbolic rule (monomial/binomial, or a partial
derivative that is a single monomial), or else decided exactly in the
face's own dimension d when d <= 2 - reduced to d variables, by a
squarefree test for d = 1 (both ways) and a resultant gcd for d = 2 (which
can only certify).  Faces of dimension 3 and the d = 2 faces the resultants
leave open are reported as undecided.  Every verdict is exact.
`polygon_nondegeneracy` runs the checker on a polynomial of affine rank 2
and on each edge of its Newton polygon, the hypothesis of Khovanskii's
genus and irreducibility arguments ("Newton polyhedra and the genus of
complete intersections", 1978).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from typing import Dict, FrozenSet, List, Sequence, Tuple

from cdvdiv.lp import minimal_points
from cdvdiv.poly import ExponentVector, Polynomial, VARS, grlex_key, pretty

AXES: Tuple[ExponentVector, ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)

NONDEGENERATE_CERTIFIED = "nondegenerate_certified"
DEGENERATE = "degenerate"
UNDECIDED = "undecided"


def _dot(w: Sequence[int], v: Sequence[int]) -> int:
    return w[0] * v[0] + w[1] * v[1] + w[2] * v[2] + w[3] * v[3]


def _sub(a: ExponentVector, b: ExponentVector) -> Tuple[int, int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _primitive(w: Sequence[int]) -> Tuple[int, ...]:
    g = 0
    for c in w:
        g = gcd(g, c)
    return tuple(c // g for c in w) if g else tuple(w)


def _cross4(u: Sequence[int], v: Sequence[int], s: Sequence[int]) -> Tuple[int, ...]:
    """Integer normal to three vectors in Z^4 (zero iff they are dependent).

    Entry i is (-1)^i times the 3x3 minor of the rows u, v, s without
    column i, expanded along u over the six 2x2 minors m_ab of v and s.
    """
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    s0, s1, s2, s3 = s
    m01 = v0 * s1 - v1 * s0
    m02 = v0 * s2 - v2 * s0
    m03 = v0 * s3 - v3 * s0
    m12 = v1 * s2 - v2 * s1
    m13 = v1 * s3 - v3 * s1
    m23 = v2 * s3 - v3 * s2
    return (
        u1 * m23 - u2 * m13 + u3 * m12,
        -u0 * m23 + u2 * m03 - u3 * m02,
        u0 * m13 - u1 * m03 + u3 * m01,
        -u0 * m12 + u1 * m02 - u2 * m01,
    )


def _affine_rank(points: Sequence[Sequence[int]], rays: Sequence[Sequence[int]] = ()) -> int:
    """Dimension of the affine hull of `points` plus directions `rays`.

    Fraction-free elimination on integer rows: each pivot row clears its
    column from the others by row -> a*row - row[col]*pivot (a the pivot
    entry), and zero rows are dropped, so the rank is the number of pivots.
    """
    if not points:
        return -1
    base = points[0]
    rows = [_sub(p, base) for p in points[1:]] + [tuple(r) for r in rays]
    rank = 0
    for col in range(4):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        a = pivot[col]
        # the pivot row reduces to zero and is dropped with the others
        rows = [
            tuple(a * x - row[col] * y for x, y in zip(row, pivot)) if row[col] else row
            for row in rows
        ]
        rows = [row for row in rows if any(row)]
        rank += 1
    return rank


@dataclass(frozen=True)
class Face:
    """A compact face of the Newton polyhedron.

    lattice_points are the support points of f lying on the face; witness is
    a primitive strictly positive weight whose argmin over supp(f) is exactly
    this face.
    """

    dimension: int
    lattice_points: Tuple[ExponentVector, ...]
    witness: Tuple[int, int, int, int]


@dataclass(frozen=True)
class NewtonDiagram:
    source: Polynomial
    vertices: Tuple[ExponentVector, ...]
    faces: Tuple[Face, ...]

    @cached_property
    def _faces_by_points(self) -> Dict[Tuple[ExponentVector, ...], Face]:
        return {face.lattice_points: face for face in self.faces}

    def face_of_weight(self, w: Sequence[int]) -> Face | None:
        """The compact face minimized by the strictly positive weight w.

        The support is in grlex order, so the tight points are too, as in
        every face's lattice_points.
        """
        support = self.source.support()
        m = min(_dot(w, v) for v in support)
        tight = tuple(v for v in support if _dot(w, v) == m)
        return self._faces_by_points.get(tight)


def _facets(support: Sequence[ExponentVector]):
    """All facets of conv(support) + R^4_{>=0} as (normal, tight points, tight rays).

    A facet whose normal w vanishes exactly on a set R of 3 - r axes is
    spanned by R and r + 1 minimal points of pi(support), pi zeroing R's
    coordinates: w is strictly positive off R and w.p = w.pi(p), so a tight
    p has pi(p) minimal (pi(p) >= pi(q) != pi(p) gives w.p > w.q).  A facet
    whose normal has a larger zero set is found at its own, smaller r.  The
    no-point-below test runs over the whole support, in the same pass that
    collects the tight points, and stops at the first point below.  A
    nonzero cross product makes the r directions and R independent, and
    they lie in the plane, so the tight set of a plane that passes the test
    has rank 3.

    Three shortcuts keep the result and skip cross products:

      * at r = 0 the facets are the four coordinate facets x_i = min x_i;
      * at r >= 1 a set R is skipped when some support point vanishes off
        R: then 0 is the only minimal point of pi(support), and a face with
        normal zero exactly on R lies in the span of R, of dimension 3 - r;
      * at r = 3 (R empty, a compact facet) the pool loses every point
        strictly inside a segment between two other pool points
        (`_inside_segments`).  Such a point is no vertex, every vertex of
        a compact facet is a vertex of the polyhedron, and the facet is
        spanned by 4 of its vertices.
    """
    facets: Dict[Tuple[int, ...], Tuple[FrozenSet[ExponentVector], FrozenSet[int]]] = {}
    for i, axis in enumerate(AXES):  # r = 0: three spanning rays
        low = min(p[i] for p in support)
        facets[axis] = (
            frozenset(p for p in support if p[i] == low),
            frozenset(j for j in range(4) if j != i),
        )
    # the axes on which each support point is nonzero, as bitmasks
    nonzero = {(p[0] > 0) | (p[1] > 0) << 1 | (p[2] > 0) << 2 | (p[3] > 0) << 3 for p in support}
    for r in (1, 2, 3):  # r + 1 spanning points, 3 - r spanning rays
        for R in itertools.combinations(range(4), 3 - r):
            in_R = sum(1 << i for i in R)
            if any(m | in_R == in_R for m in nonzero):
                continue  # pi(support) has the single minimal point 0
            k0, k1, k2, k3 = (int(i not in R) for i in range(4))
            pool = minimal_points(
                [(p0 * k0, p1 * k1, p2 * k2, p3 * k3) for p0, p1, p2, p3 in support]
            )
            if r == 3:
                inside = _inside_segments(pool)
                pool = [p for p in pool if p not in inside]
            rays = [AXES[i] for i in R]
            for base, *rest in itertools.combinations(pool, r + 1):
                b0, b1, b2, b3 = base
                w0, w1, w2, w3 = _cross4(
                    *[(p[0] - b0, p[1] - b1, p[2] - b2, p[3] - b3) for p in rest], *rays
                )
                if w0 < 0 or w1 < 0 or w2 < 0 or w3 < 0:
                    w0, w1, w2, w3 = -w0, -w1, -w2, -w3
                    if w0 < 0 or w1 < 0 or w2 < 0 or w3 < 0:
                        continue  # no minimum over the polyhedron
                elif not (w0 or w1 or w2 or w3):
                    continue  # dependent vectors
                g = gcd(w0, w1, w2, w3)
                key = (w0 // g, w1 // g, w2 // g, w3 // g)
                if key in facets:
                    continue
                w0, w1, w2, w3 = key
                c = w0 * b0 + w1 * b1 + w2 * b2 + w3 * b3
                tight = []
                for p in support:
                    v = w0 * p[0] + w1 * p[1] + w2 * p[2] + w3 * p[3]
                    if v < c:
                        break  # a point below the plane
                    if v == c:
                        tight.append(p)
                else:
                    facets[key] = (
                        frozenset(tight),
                        frozenset(i for i in range(4) if key[i] == 0),
                    )
    return facets


def _inside_segments(pool: Sequence[ExponentVector]) -> set:
    """The points of pool strictly inside a segment between two others.

    p is one exactly when two other points q, q' leave p in opposite
    primitive directions, so one pass over the directions from each p finds
    them all: O(n^2) gcds for n points.
    """
    inside = set()
    for p in pool:
        p0, p1, p2, p3 = p
        seen = set()
        for q0, q1, q2, q3 in pool:
            d0, d1, d2, d3 = q0 - p0, q1 - p1, q2 - p2, q3 - p3
            g = gcd(d0, d1, d2, d3)
            if not g:
                continue  # q is p
            d0, d1, d2, d3 = d0 // g, d1 // g, d2 // g, d3 // g
            if (-d0, -d1, -d2, -d3) in seen:
                inside.add(p)
                break
            seen.add((d0, d1, d2, d3))
    return inside


def build_diagram(f: Polynomial) -> NewtonDiagram:
    """Vertices and compact faces of the Newton polyhedron of f.

    Raises ValueError on the zero polynomial.  The facets are enumerated
    over the minimal points of the support only: a point p that dominates
    another point q (p >= q coordinatewise) lies in q + R^4_{>=0}, so
    dropping it leaves the polyhedron unchanged, and it lies on no compact
    face, because w.p > w.q for every strictly positive w.  The witness
    check still runs over the whole support.

    The minimal points are sorted into grlex order once, and point k is
    bit k, so a face's points, read off its mask bit by bit, come out in
    grlex order.  Faces are intersected as bitmasks over the minimal points
    (tight points) and over the axes (tight rays).  A compact face's
    witness is the primitive sum of the normals of the facets whose mask
    contains its own, and its argmin over the whole support, in support
    order, must be its points.  A compact face is a polytope whose faces
    are the compact faces inside it, and the face lattice of a polytope is
    graded, so its dimension is 1 + the largest dimension of its proper
    subfaces, and 0 for a vertex, which has none.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton diagram")
    support = f.support()
    points = sorted(minimal_points(support), key=grlex_key)
    bit = {p: 1 << k for k, p in enumerate(points)}
    facets = [
        (sum(bit[p] for p in pts), sum(1 << i for i in rays), w)
        for w, (pts, rays) in _facets(points).items()
    ]

    # After facet k, faces holds every nonempty intersection of facets 1..k.
    faces = set()
    for pts, rays, _w in facets:
        faces |= {(pts & a, rays & b) for a, b in faces if pts & a}
        faces.add((pts, rays))

    dimension: Dict[int, int] = {}
    face_objs: List[Face] = []
    for mask in sorted((pts for pts, rays in faces if not rays), key=int.bit_count):
        # the proper subfaces have fewer points and come first
        dimension[mask] = 1 + max(
            (d for sub, d in dimension.items() if sub & mask == sub), default=-1
        )
        face_pts = tuple(p for k, p in enumerate(points) if mask >> k & 1)
        s0 = s1 = s2 = s3 = 0
        for fmask, _rays, (w0, w1, w2, w3) in facets:
            if fmask & mask == mask:
                s0, s1, s2, s3 = s0 + w0, s1 + w1, s2 + w2, s3 + w3
        g = gcd(s0, s1, s2, s3)  # a compact face lies on some facet, so g > 0
        witness = w0, w1, w2, w3 = s0 // g, s1 // g, s2 // g, s3 // g
        if w0 <= 0 or w1 <= 0 or w2 <= 0 or w3 <= 0:
            raise AssertionError(f"non-positive witness {witness} for face {face_pts}")
        least = None
        for v in support:
            value = w0 * v[0] + w1 * v[1] + w2 * v[2] + w3 * v[3]
            if least is None or value < least:
                least, argmin = value, [v]
            elif value == least:
                argmin.append(v)
        if tuple(argmin) != face_pts:
            raise AssertionError(f"witness {witness} does not cut out face {face_pts}")
        face_objs.append(Face(dimension[mask], face_pts, witness))
    face_objs.sort(key=lambda face: (face.dimension, face.lattice_points))
    vertices = tuple(face.lattice_points[0] for face in face_objs if face.dimension == 0)
    return NewtonDiagram(source=f, vertices=vertices, faces=tuple(face_objs))


def support_value(d: NewtonDiagram, w: Sequence[int]) -> int:
    """min <w, v> over the support of f, computed from the vertices alone."""
    if any(c <= 0 for c in w):
        raise ValueError("support_value needs a strictly positive weight")
    return min(_dot(w, v) for v in d.vertices)


def face_polynomial(f: Polynomial, w: Sequence[int]) -> Polynomial:
    """The sum of the terms of f whose exponents minimize <w, .>."""
    if f.is_zero():
        raise ValueError("face polynomial of the zero polynomial")
    if any(c <= 0 for c in w):
        raise ValueError("face_polynomial needs a strictly positive weight")
    support = f.support()
    m = min(_dot(w, v) for v in support)
    return f.restrict([v for v in support if _dot(w, v) == m])


# ---------------------------------------------------------------------------
# Non-degeneracy checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusWitness:
    """A singular point of a face polynomial with all coordinates nonzero.

    The point is checked exactly over Q, so exact_over_rationals is always
    true; the field stays for readers that still look at it.
    """

    variables: Tuple[str, ...]
    point: Tuple[Fraction, ...]
    exact_over_rationals: bool = True


@dataclass(frozen=True)
class FaceVerdict:
    status: str  # one of the module-level verdict constants
    detail: str
    witness: TorusWitness | None = None


_MONOMIAL_VERDICT = FaceVerdict(
    NONDEGENERATE_CERTIFIED, "monomial face polynomials are smooth on the torus"
)
_BINOMIAL_VERDICT = FaceVerdict(
    NONDEGENERATE_CERTIFIED, "binomial face polynomials are smooth on the torus"
)


def singular_torus_search(g: Polynomial) -> FaceVerdict:
    """Decide non-degeneracy of a single quasihomogeneous piece.

    In order:

      1. symbolic rules certify a monomial or binomial, or a g with a
         partial derivative that is a single monomial (none of these can
         vanish on the torus);
      2. when the support of g has affine dimension d <= 2, g is reduced to
         h in d variables with the same singular torus points
         (`_torus_slice`), and an exact test runs on h: gcd(h, h') for
         d = 1, which decides both ways, and two resultants for d = 2, which
         can only certify (`_exact_test`);
      3. everything else - d = 3, and d = 2 faces the resultants leave open -
         is undecided.

    A g that the d = 1 test proves degenerate carries a witness when the
    repeated factor of h has a rational root, and none otherwise.
    """
    if g.is_zero():
        raise ValueError("cannot check the zero polynomial")
    if len(g) <= 2:
        return _MONOMIAL_VERDICT if len(g) == 1 else _BINOMIAL_VERDICT
    names = g.variables_present()
    var_idx = [i for i in range(4) if VARS[i] in names]
    terms = [(tuple(exps[i] for i in var_idx), coeff) for exps, coeff in g.items()]
    for j in range(len(var_idx)):
        if sum(1 for exps, _ in terms if exps[j]) == 1:
            return FaceVerdict(
                NONDEGENERATE_CERTIFIED,
                f"d/d{names[j]} is a single monomial, nonzero on the torus",
            )
    return _exact_test(g, terms, names)


def polygon_nondegeneracy(g: Polynomial) -> FaceVerdict:
    """Non-degeneracy of g on its Newton polygon and on each of its edges.

    The support of g has affine rank 2.  Its projection to the first two
    coordinates that keep that rank (`_rank_keeping_coordinates`, the rule
    of `_torus_slice`) is injective on the polygon's plane, and the edges of
    the projected hull are walked counterclockwise from its least vertex.
    Vertices are monomials and two-point edges binomials, both smooth on the
    torus, so only edges with three or more support points are tested.  The
    first of them that is not certified is returned, then g's own verdict if
    it is not certified, else a certified verdict.

    That is the worst verdict over g and all its edges, the first degenerate
    one in hull order: an edge has dimension 1, where the exact test decides
    both ways, so an uncertified edge is degenerate; g has dimension 2,
    where the symbolic rules and the resultants can only certify, so its
    verdict is certified or undecided.
    """
    support = g.support()
    cols = _rank_keeping_coordinates(support)
    if len(cols) != 2:
        raise ValueError("polygon_nondegeneracy needs a support of affine rank 2")
    i, j = cols
    hull = _convex_hull_ccw([(p[i], p[j]) for p in support])
    for a, b in zip(hull, hull[1:] + hull[:1]):
        edge = {
            exps: coeff
            for exps, coeff in g.items()
            if (b[0] - a[0]) * (exps[j] - a[1]) == (b[1] - a[1]) * (exps[i] - a[0])
        }
        if len(edge) > 2:
            verdict = singular_torus_search(Polynomial(edge))
            if verdict.status != NONDEGENERATE_CERTIFIED:
                return verdict
    verdict = singular_torus_search(g)
    if verdict.status != NONDEGENERATE_CERTIFIED:
        return verdict
    return FaceVerdict(NONDEGENERATE_CERTIFIED, "all polygon pieces certified")


def _convex_hull_ccw(points: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        return pts[:1] + pts[-1:]  # all collinear: keep the segment endpoints
    return hull


# ---------------------------------------------------------------------------
# Exact tests in the face's own dimension
# ---------------------------------------------------------------------------
#
# Univariate polynomials are lists of ints, lowest degree first, with no
# trailing zeros; [] is zero.  A polynomial in (u, v) is a list over the
# v-degree of such lists in u.


def _rank_keeping_coordinates(points) -> Tuple[int, ...]:
    """The first d coordinates whose projection keeps the affine rank d of points.

    The points have at most four coordinates.  Such coordinates exist,
    because the points span an affine space of dimension d.
    """
    k = len(points[0])

    def rank(cols):
        pad = (0,) * (4 - len(cols))
        return _affine_rank([tuple(p[i] for i in cols) + pad for p in points])

    d = rank(range(k))
    return next(cols for cols in itertools.combinations(range(k), d) if rank(cols) == d)


def _torus_slice(terms) -> Tuple[Tuple[int, ...], Dict[Tuple[int, ...], int]]:
    """Variables K and h in them with the same singular torus points as g.

    g is given by its terms in its k present variables; its support has
    affine dimension d, with direction space L in Q^k.  K is the first set
    of d variables whose coordinate projection keeps rank d on the support
    (`_rank_keeping_coordinates`); h is g with every other variable set to
    1, times its lcm of denominators and stripped of its monomial content.

    g has a singular point on (C*)^k iff h has one on (C*)^d:

      * every w in the lattice W = L^perp acts on the torus by
        x_i -> lambda^{w_i} x_i, and g(lambda.x) = lambda^{<w, p0>} g(x)
        for any support point p0, so the action maps singular points to
        singular points;
      * the projection to K is injective on L, so L meets the coordinate
        space of the other variables only in 0, and the restriction of W
        to those k - d coordinates has full rank k - d.  The subtorus of W
        then maps onto their torus, so every orbit meets the slice
        {x_j = 1 for j not in K};
      * on the slice g = h up to a unit and a monomial, so g = 0 and
        d_i g = 0 for i in K are h = 0 and grad h = 0.  The missing
        partials follow from the Euler relations
        sum_i w_i x_i d_i g = <w, p0> g: at such a point
        sum_{j not in K} w_j x_j d_j g = 0 for every w in W, and as these
        w have full rank there, x_j d_j g = 0, so d_j g = 0.

    The projection is injective on the support too, so no two terms of g
    merge in h.
    """
    points = [exps for exps, _ in terms]
    K = _rank_keeping_coordinates(points)
    low = [min(p[i] for p in points) for i in K]
    scale = lcm(*(c.denominator for _, c in terms))
    h = {
        tuple(p[i] - m for i, m in zip(K, low)): int(c * scale)
        for p, (_, c) in zip(points, terms)
    }
    return K, h


def _exact_test(g: Polynomial, terms, names) -> FaceVerdict:
    """The exact verdict on g, or undecided when no exact test settles it."""
    K, h = _torus_slice(terms)
    kept = [names[i] for i in K]
    others = [n for n in names if n not in kept]
    slice_text = f"g at {', '.join(others)} = 1" if others else "g"
    if len(K) == 1:
        u = [0] * (max(a for a, in h) + 1)
        for (a,), c in h.items():
            u[a] = c
        common = _gcd(u, _derivative(u))
        if len(common) == 1:
            return FaceVerdict(
                NONDEGENERATE_CERTIFIED,
                f"exact (dimension 1): h({kept[0]}) = {slice_text} is squarefree",
            )
        axis = VARS.index(kept[0])
        factor = Polynomial(
            {
                tuple(a * (i == axis) for i in range(4)): Fraction(c)
                for a, c in enumerate(common)
                if c
            }
        )
        return FaceVerdict(
            DEGENERATE,
            f"exact (dimension 1): h({kept[0]}) = {slice_text} has the repeated "
            f"factor {pretty(factor)}",
            _repeated_root_witness(g, names, axis, common),
        )
    if len(K) == 2:
        # Resultants in the variable of lower degree keep the matrices small.
        if max(a for a, _ in h) < max(b for _, b in h):
            h = {(b, a): c for (a, b), c in h.items()}
            kept.reverse()
        u, v = kept
        r1, r2 = _resultant_roots(h)
        if r1 and r2 and len(_gcd(r1, r2)) == 1:
            return FaceVerdict(
                NONDEGENERATE_CERTIFIED,
                f"exact (dimension 2): h({u}, {v}) = {slice_text} has "
                f"Res_{v}(h, h_{v}) and Res_{v}(h, h_{u}) coprime in {u}",
            )
        return FaceVerdict(
            UNDECIDED,
            f"undecided (dimension 2): Res_{v}(h, h_{v}) and Res_{v}(h, h_{u}) "
            f"of h({u}, {v}) = {slice_text} do not certify it",
        )
    return FaceVerdict(UNDECIDED, "undecided (dimension 3): no exact test applies")


def _repeated_root_witness(
    g: Polynomial, names: Sequence[str], axis: int, common: List[int]
) -> TorusWitness | None:
    """A singular torus point of g at a rational root of the repeated factor.

    common (integer coefficients, lowest degree first) divides gcd(h, h') in
    the variable VARS[axis]; a root of it is a singular point of h, and so
    of g on the slice where every other present variable is 1
    (`_torus_slice`).  Without a rational root there is no witness.
    """
    root = _rational_root(common)
    if root is None:
        return None
    full = [Fraction(1)] * 4
    full[axis] = root
    if g.evaluate(full) != 0 or any(
        g.derivative(i).evaluate(full) for i in range(4) if VARS[i] in names
    ):
        raise AssertionError(f"{VARS[axis]} = {root} is no singular torus point of g")
    point = tuple(full[VARS.index(n)] for n in names)
    return TorusWitness(variables=tuple(names), point=point)


def _rational_root(p: List[int]) -> Fraction | None:
    """A rational root of p in Z[u] (lowest degree first, p(0) != 0 and a
    positive leading coefficient l), or None when it has none.

    A root a/b in lowest terms has b dividing l, so l times it is an
    integer.  Sturm's theorem counts the distinct real roots of p between
    two points that are not roots (the chain p, p', -rem, ... may end in
    gcd(p, p') rather than a constant).  Bisecting (-B, B), B a root bound,
    down to intervals narrower than 1/l leaves at most one candidate
    k/l in each interval that holds a root; a midpoint that is a root is
    returned at once, so no end point is ever a root.  The depth is the bit
    length of B*l, so no coefficient is ever factored.
    """
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1:
        b = chain[-1]
        # a positive leading coefficient makes the pseudo-remainder a
        # positive multiple of the remainder, which keeps Sturm's signs
        rest = _pseudo_remainder(chain[-2], b if b[-1] > 0 else [-c for c in b])
        if not rest:
            break
        chain.append([-c for c in _primitive(rest)])

    def value(q: List[int], x: Fraction) -> int:
        """q(x) times a positive power of x's denominator, in integers."""
        total, power = 0, 1
        for c in reversed(q):
            total = total * x.numerator + c * power
            power *= x.denominator
        return total

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (value(q, x) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # Fujiwara: every root has |u| <= 2 max_j |p_j/l|^(1/(d-j)).  A power of
    # two strictly above each term keeps B exact and away from the roots.
    lead, degree = p[-1], len(p) - 1
    bound = 1
    for j, c in enumerate(p[:-1]):
        bits = (-(-abs(c) // lead)).bit_length()
        bound = max(bound, 2 << -(-bits // (degree - j)))
    intervals = [(Fraction(-bound), Fraction(bound))]
    while intervals:
        lo, hi = intervals.pop()
        if variations(lo) == variations(hi):
            continue
        if (hi - lo) * lead < 1:
            candidate = Fraction(floor(hi * lead), lead)
            if candidate > lo and not value(p, candidate):
                return candidate
            continue
        mid = (lo + hi) / 2
        if not value(p, mid):
            return mid
        intervals += [(lo, mid), (mid, hi)]
    return None


def _resultant_roots(h: Dict[Tuple[int, int], int]) -> Tuple[List[int], List[int]]:
    """R1 = Res_v(h, h_v) and R2 = Res_v(h, h_u), stripped of their powers of u.

    h maps (u-exponent, v-exponent) to integers.  Both resultants are taken
    with the formal v-degrees of the coefficient lists, so at a common root
    (u0, v0) the Sylvester matrix at u0 has the kernel vector of powers of
    v0, and R(u0) = 0 whatever the leading coefficients do there.  On the
    torus u0 != 0, so powers of u carry no roots.  If R1 and R2 are nonzero
    and coprime, h has no singular torus point.
    """
    rows = [[0] * (max(a for a, _ in h) + 1) for _ in range(max(b for _, b in h) + 1)]
    for (a, b), c in h.items():
        rows[b][a] = c
    hh = [_trim(row) for row in rows]
    hv = [[b * c for c in row] for b, row in enumerate(hh)][1:]
    hu = _trim([_derivative(row) for row in hh])
    return _strip_u(_resultant(hh, hv)), _strip_u(_resultant(hh, hu))


def _resultant(a, b) -> List[int]:
    """Res_v(a, b) for a, b in Z[u][v] of formal degrees len - 1, up to sign.

    When b has v-degree 0 the resultant is a power of b's coefficient, and
    that coefficient is returned instead: it has the same roots.  Otherwise
    the Sylvester matrix's determinant is taken by fraction-free Bareiss
    elimination over Z[u], whose divisions are exact.
    """
    if len(b) == 1:
        return b[0]
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    matrix = [[[]] * i + list(reversed(a)) + [[]] * (size - m - 1 - i) for i in range(n)]
    matrix += [[[]] * i + list(reversed(b)) + [[]] * (size - n - 1 - i) for i in range(m)]
    prev = [1]
    for col in range(size - 1):
        pivot = next((r for r in range(col, size) if matrix[r][col]), None)
        if pivot is None:
            return []
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        top = matrix[col]
        for r in range(col + 1, size):
            row = matrix[r]
            for j in range(col + 1, size):
                row[j] = _exact_div(
                    _sub_poly(_mul_poly(row[j], top[col]), _mul_poly(row[col], top[j])), prev
                )
        prev = top[col]
    return matrix[size - 1][size - 1]


def _trim(p: List) -> List:
    while p and not p[-1]:
        p = p[:-1]
    return p


def _strip_u(p: List[int]) -> List[int]:
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return p[i:]


def _derivative(p: List[int]) -> List[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _mul_poly(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub_poly(a: List[int], b: List[int]) -> List[int]:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _trim([x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _exact_div(a: List[int], b: List[int]) -> List[int]:
    """a / b in Z[u] when b divides a exactly."""
    if len(b) == 1:
        return [x // b[0] for x in a]
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = a[shift + len(b) - 1] // b[-1]
        q[shift] = c
        if c:
            for j, y in enumerate(b):
                a[shift + j] -= c * y
    return q


def _gcd(a: List[int], b: List[int]) -> List[int]:
    """The primitive gcd in Q[u] with positive leading coefficient."""
    while b:
        a, b = b, list(_primitive(_pseudo_remainder(a, b)))
    a = list(_primitive(a))
    return [-c for c in a] if a and a[-1] < 0 else a


def _pseudo_remainder(a: List[int], b: List[int]) -> List[int]:
    """A nonzero integer multiple of a mod b."""
    lead = b[-1]
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        a = [x * lead for x in a]
        for j, y in enumerate(b):
            a[shift + j] -= c * y
        a = _trim(a)
    return a


def check_nondegeneracy(d: NewtonDiagram) -> List[Tuple[Face, FaceVerdict]]:
    """Run the non-degeneracy check on every compact face of the diagram."""
    return [
        (face, singular_torus_search(d.source.restrict(face.lattice_points))) for face in d.faces
    ]

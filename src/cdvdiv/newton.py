"""Newton polyhedron and diagram of a polynomial in x, y, z, t.

The Newton polyhedron of f is conv(supp f) + R^4_{>=0}.  Its compact faces
(the Newton diagram) are exactly the argmin loci of strictly positive weight
vectors.  Enumeration is brute force and exact:

  1. candidate facet hyperplanes are spanned by up to 4 support points
     together with coordinate recession directions; their integer normals
     come from the generalized cross product in Z^4;
  2. supporting hyperplanes with a 3-dimensional tight set are the facets
     (dimensions come from fraction-free integer elimination);
  3. every proper face is an intersection of facets, so closing the facet
     list under pairwise intersection yields the whole face lattice, and the
     faces with no recession direction are the compact ones.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
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
    """Integer normal to three vectors in Z^4 (zero iff they are dependent)."""

    def minor(cols):
        a, b, c = cols
        return (
            u[a] * (v[b] * s[c] - v[c] * s[b])
            - u[b] * (v[a] * s[c] - v[c] * s[a])
            + u[c] * (v[a] * s[b] - v[b] * s[a])
        )

    return (
        minor((1, 2, 3)),
        -minor((0, 2, 3)),
        minor((0, 1, 3)),
        -minor((0, 1, 2)),
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
        """The compact face minimized by the strictly positive weight w."""
        support = self.source.support()
        m = min(_dot(w, v) for v in support)
        tight = tuple(sorted((v for v in support if _dot(w, v) == m), key=grlex_key))
        return self._faces_by_points.get(tight)


def _facets(support: Sequence[ExponentVector]):
    """All facets of conv(support) + R^4_{>=0} as (normal, tight points, tight rays)."""
    facets: Dict[Tuple[int, ...], Tuple[FrozenSet[ExponentVector], FrozenSet[int]]] = {}
    pts = list(support)
    n = len(pts)
    for r in range(4):  # r + 1 spanning points, 3 - r spanning rays
        for T in itertools.combinations(range(n), r + 1):
            base = pts[T[0]]
            dirs = [_sub(pts[i], base) for i in T[1:]]
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
                    # Entire support on the hyperplane: pick the orientation
                    # with non-negative normal, if there is one.
                    if all(a <= 0 for a in w):
                        w = tuple(-a for a in w)
                else:
                    continue
                if any(a < 0 for a in w):
                    continue  # min over the polyhedron is not attained
                key = _primitive(w)
                if key in facets:
                    continue
                # c is the least value now, whichever branch oriented w
                tight_pts = frozenset(p for p, v in zip(pts, vals) if v == c)
                tight_rays = frozenset(i for i in range(4) if key[i] == 0)
                if _affine_rank(sorted(tight_pts), [AXES[i] for i in tight_rays]) == 3:
                    facets[key] = (tight_pts, tight_rays)
    return facets


def build_diagram(f: Polynomial) -> NewtonDiagram:
    """Vertices and compact faces of the Newton polyhedron of f.

    Raises ValueError on the zero polynomial.  The facets are enumerated
    over the minimal points of the support only: a point p that dominates
    another point q (p >= q coordinatewise) lies in q + R^4_{>=0}, so
    dropping it leaves the polyhedron unchanged, and it lies on no compact
    face, because w.p > w.q for every strictly positive w.  The witness
    check still runs over the whole support.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton diagram")
    support = f.support()
    facets = _facets(minimal_points(support))

    # Close the facet list under intersection; every proper face shows up.
    faces: Dict[Tuple[FrozenSet[ExponentVector], FrozenSet[int]], None] = {}
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

    compact = [pts for pts, rays in faces if not rays]
    face_objs: List[Face] = []
    for pts in compact:
        sorted_pts = tuple(sorted(pts, key=grlex_key))
        normals = [
            w for w, (fpts, _frays) in facets.items() if pts <= fpts
        ]
        witness = _primitive([sum(col) for col in zip(*normals)])
        if any(c <= 0 for c in witness):
            raise AssertionError(f"non-positive witness {witness} for face {sorted_pts}")
        m = min(_dot(witness, v) for v in support)
        argmin = frozenset(v for v in support if _dot(witness, v) == m)
        if argmin != pts:
            raise AssertionError(f"witness {witness} does not cut out face {sorted_pts}")
        face_objs.append(
            Face(
                dimension=_affine_rank(sorted_pts),
                lattice_points=sorted_pts,
                witness=witness,
            )
        )
    face_objs.sort(key=lambda face: (face.dimension, face.lattice_points))
    vertices = tuple(
        face.lattice_points[0] for face in face_objs if face.dimension == 0
    )
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
    return Polynomial({v: f.coefficient(v) for v in support if _dot(w, v) == m})


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


def _restricted_terms(g: Polynomial, var_idx: Sequence[int]):
    """Terms of g re-indexed to the given effective variables."""
    terms = []
    for exps, coeff in g.items():
        terms.append((tuple(exps[i] for i in var_idx), coeff))
    return terms


def _derived_terms(terms, j: int):
    out = []
    for exps, coeff in terms:
        if exps[j] == 0:
            continue
        d = list(exps)
        d[j] -= 1
        out.append((tuple(d), coeff * exps[j]))
    return out


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
    names = g.variables_present()
    if len(g) <= 2:
        kind = "monomial" if len(g) == 1 else "binomial"
        return FaceVerdict(
            NONDEGENERATE_CERTIFIED,
            f"{kind} face polynomials are smooth on the torus",
        )
    var_idx = [i for i in range(4) if VARS[i] in names]
    terms = _restricted_terms(g, var_idx)
    for j in range(len(var_idx)):
        if len(_derived_terms(terms, j)) == 1:
            return FaceVerdict(
                NONDEGENERATE_CERTIFIED,
                f"d/d{names[j]} is a single monomial, nonzero on the torus",
            )
    return _exact_test(g, terms, names)


# ---------------------------------------------------------------------------
# Exact tests in the face's own dimension
# ---------------------------------------------------------------------------
#
# Univariate polynomials are lists of ints, lowest degree first, with no
# trailing zeros; [] is zero.  A polynomial in (u, v) is a list over the
# v-degree of such lists in u.


def _torus_slice(terms) -> Tuple[Tuple[int, ...], Dict[Tuple[int, ...], int]]:
    """Variables K and h in them with the same singular torus points as g.

    g is given by its terms in its k present variables; its support has
    affine dimension d, with direction space L in Q^k.  K is the first set
    of d variables whose coordinate projection keeps rank d on the support
    (one exists, because the support spans an affine space of dimension
    d); h is g with every other variable set to 1, times its lcm of
    denominators and stripped of its monomial content.

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
    k = len(points[0])

    def rank(cols):
        pad = (0,) * (4 - len(cols))
        return _affine_rank([tuple(p[i] for i in cols) + pad for p in points])

    d = rank(range(k))
    K = next(cols for cols in itertools.combinations(range(k), d) if rank(cols) == d)
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
            _repeated_root_witness(g, names, axis, factor),
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
    g: Polynomial, names: Sequence[str], axis: int, factor: Polynomial
) -> TorusWitness | None:
    """A singular torus point of g at a rational root of the repeated factor.

    factor divides gcd(h, h') in the variable VARS[axis]; a root of it is a
    singular point of h, and so of g on the slice where every other present
    variable is 1 (`_torus_slice`).  The roots come from the linear factors
    over Q; without one there is no witness.
    """
    # factorize imports this module, so the import waits for the first call.
    from cdvdiv.factorize import rational_factors

    unit = tuple(int(i == axis) for i in range(4))
    for linear, _mult in rational_factors(factor)[1]:
        if linear.degree() != 1:
            continue
        root = -linear.coefficient((0, 0, 0, 0)) / linear.coefficient(unit)
        full = [Fraction(1)] * 4
        full[axis] = root
        if root == 0 or g.evaluate(full) != 0 or any(
            g.derivative(i).evaluate(full) for i in range(4) if VARS[i] in names
        ):
            raise AssertionError(f"{VARS[axis]} = {root} is no singular torus point of g")
        point = tuple(full[VARS.index(n)] for n in names)
        return TorusWitness(variables=tuple(names), point=point)
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
    results = []
    for face in d.faces:
        fp = Polynomial(
            {v: d.source.coefficient(v) for v in face.lattice_points}
        )
        results.append((face, singular_torus_search(fp)))
    return results

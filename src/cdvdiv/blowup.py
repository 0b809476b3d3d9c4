"""Weighted blowups with discrepancy-1 exceptional divisors.

For a weighted blowup with primitive weight w = (w1, w2, w3, w4) the
discrepancy of a multiplicity-m component of the exceptional divisor over a
Gorenstein hypersurface point is

    m * (w1 + w2 + w3 + w4 - 1 - min <w, supp f>),

so the discrepancy-1 weights are exactly the primitive solutions of
sum(w) = min-value + 2.  They lie in a polyhedron whose coordinate maxima the
exact simplex of `cdvdiv.lp` computes; the box those maxima certify is scanned
line by line in exact integer arithmetic, and every survivor is re-verified.
An unbounded polyhedron means infinitely many candidates, which an isolated
cDV point never has.

The exceptional divisor of sigma_w lives in the weighted projective space
P(w) and is cut out by the face polynomial of w; its components are the
irreducible rational factors of that polynomial, with pure monomial factors
split off as toric content (coordinate-hyperplane pieces are not divisors
centered at the origin).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import List, Tuple

from cdvdiv.factorize import rational_factors
# enumerate_weights raises UnboundedWeightsError through coordinate_maxima.
from cdvdiv.lp import UnboundedWeightsError, candidate_rows, coordinate_maxima  # noqa: F401
from cdvdiv.newton import NewtonDiagram, face_polynomial, support_value
from cdvdiv.poly import ExponentVector, Polynomial, total_degree


@dataclass(frozen=True)
class Weight:
    """Primitive strictly positive integer weight vector for x, y, z, t."""

    w: Tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.w) != 4 or any(c < 1 for c in self.w):
            raise ValueError(f"weight entries must be positive integers: {self.w}")
        g = gcd(gcd(self.w[0], self.w[1]), gcd(self.w[2], self.w[3]))
        if g != 1:
            raise ValueError(f"weight {self.w} is not primitive (gcd {g})")

    def __iter__(self):
        return iter(self.w)

    def __getitem__(self, i: int) -> int:
        return self.w[i]

    def sum(self) -> int:
        return sum(self.w)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.w) + ")"


def enumerate_weights(d: NewtonDiagram) -> List[Weight]:
    """All primitive weights with discrepancy exactly 1, sorted lexicographically.

    Every such w lies in the polyhedron {w >= 1 : m(w) >= -2}, where
    m(w) = min over the vertices v of sum_i (v_i - 1) w_i, and it is a
    point where m(w) = -2.  The coordinate maxima of that polyhedron,
    computed exactly, give a box that certainly contains the whole set.  The
    box is scanned along the lines parallel to its longest axis j: with the
    other three coordinates fixed, m is concave in w_j, so m >= -2 cuts out
    an integer interval, found in one pass over the vertices, and m = -2
    holds only at its end points - or on all of it when a vertex with
    v_j = 1 sits at -2, since then m <= -2 throughout.  Each candidate is
    re-checked exactly.  An unbounded polyhedron raises
    UnboundedWeightsError.
    """
    if any(total_degree(v) < 2 for v in d.vertices):
        # sum(w) - 2 <= <w, v> fails for every w >= 1 once deg v <= 1.
        return []
    bounds = [1 + floor(m) for m in coordinate_maxima(*candidate_rows(d.vertices))]
    j = max(range(4), key=lambda i: bounds[i])
    others = [i for i in range(4) if i != j]
    # (v_i - 1 for the three fixed coordinates, v_j - 1) per vertex
    rows = [(tuple(v[i] - 1 for i in others), v[j] - 1) for v in d.vertices]
    weights = []
    for rest in itertools.product(*(range(1, bounds[i] + 1) for i in others)):
        a, b, c = rest
        lo, hi, flat = 1, bounds[j], False
        for (p, q, r), slope in rows:
            s = p * a + q * b + r * c
            if slope > 0:
                lo = max(lo, -((s + 2) // slope))  # ceil((-2 - s) / slope)
            elif slope < 0:  # v_j = 0
                hi = min(hi, s + 2)
            elif s < -2:
                break
            else:
                flat = flat or s == -2
        else:
            if lo > hi:
                continue
            for wj in range(lo, hi + 1) if flat else {lo, hi}:
                w = list(rest)
                w.insert(j, wj)
                w = tuple(w)
                if gcd(gcd(w[0], w[1]), gcd(w[2], w[3])) == 1 and (
                    sum(w) - 2 == support_value(d, w)
                ):
                    weights.append(Weight(w))
    weights.sort(key=lambda weight: weight.w)
    return weights


def discrepancy(d: NewtonDiagram, w: Weight, m: int = 1) -> int:
    """Discrepancy of a multiplicity-m exceptional component of sigma_w."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    return m * (w.sum() - 1 - support_value(d, w.w))


@dataclass(frozen=True)
class Factorization:
    """Factor decomposition of a face polynomial.

    constant * x^content * prod(factor^multiplicity) reproduces the input
    exactly; `components` holds only the non-monomial irreducible factors.
    """

    constant: Fraction
    content: ExponentVector
    components: Tuple[Tuple[Polynomial, int], ...]


def decompose_components(g: Polynomial) -> Factorization:
    """Irreducible factors of g over Q, with monomial content split off."""
    if g.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    # rational_factors reports the monomial content as the factors (x_i, c_i).
    constant, factors = rational_factors(g)
    content = [0, 0, 0, 0]
    for factor, mult in factors:
        if len(factor) == 1:
            (exps,) = factor.support()
            content = [c + e * mult for c, e in zip(content, exps)]
    components = tuple((factor, mult) for factor, mult in factors if len(factor) > 1)
    return Factorization(constant=constant, content=tuple(content), components=components)


@dataclass(frozen=True)
class ExceptionalSurface:
    """The exceptional divisor of sigma_w inside P(w1, w2, w3, w4)."""

    ambient_weights: Weight
    equation: Polynomial
    constant: Fraction
    toric_content: ExponentVector
    components: Tuple[Tuple[Polynomial, int], ...]


def exceptional_surface(f: Polynomial, w: Weight) -> ExceptionalSurface:
    """Face polynomial of w together with its component decomposition."""
    equation = face_polynomial(f, w.w)
    decomposition = decompose_components(equation)
    return ExceptionalSurface(
        ambient_weights=w,
        equation=equation,
        constant=decomposition.constant,
        toric_content=decomposition.content,
        components=decomposition.components,
    )

"""Weighted blowups with discrepancy-1 exceptional divisors.

For a weighted blowup with primitive weight w = (w1, w2, w3, w4) the
discrepancy of a multiplicity-m component of the exceptional divisor over a
Gorenstein hypersurface point is

    m * (w1 + w2 + w3 + w4 - 1 - min <w, supp f>),

so the discrepancy-1 weights are exactly the primitive solutions of
sum(w) = min-value + 2.  They lie in a polyhedron whose coordinate maxima the
exact simplex of `cdvdiv.lp` computes; the box those maxima certify is scanned
once (vectorized with int64 numpy) and every survivor is re-verified with
rational arithmetic.  An unbounded polyhedron means infinitely many
candidates, which an isolated cDV point never has.

The exceptional divisor of sigma_w lives in the weighted projective space
P(w) and is cut out by the face polynomial of w; its components are the
irreducible rational factors of that polynomial, with pure monomial factors
split off as toric content (coordinate-hyperplane pieces are not divisors
centered at the origin).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import List, Tuple

import numpy as np

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

    Every such w lies in the polyhedron {w >= 1 : sum(w) - 2 <= <w, v> for
    every vertex v}.  Its coordinate maxima, computed exactly, give a box
    that certainly contains the whole set; the box is scanned once and each
    hit is re-verified with exact arithmetic.  An unbounded polyhedron
    raises UnboundedWeightsError.
    """
    if any(total_degree(v) < 2 for v in d.vertices):
        # sum(w) - 2 <= <w, v> fails for every w >= 1 once deg v <= 1.
        return []
    bounds = [1 + floor(m) for m in coordinate_maxima(*candidate_rows(d.vertices))]
    vertices = np.array(d.vertices, dtype=np.int64)
    axes = [np.arange(1, b + 1, dtype=np.int64) for b in bounds]
    box = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    hits = box[box.sum(axis=1) - 2 == (box @ vertices.T).min(axis=1)]
    weights = []
    for row in hits.tolist():
        w = tuple(row)
        if gcd(gcd(w[0], w[1]), gcd(w[2], w[3])) != 1:
            continue
        weight = Weight(w)
        # Independent exact re-check of the defining identity.
        if weight.sum() - 1 - support_value(d, w) != 1:
            raise AssertionError(f"scan produced a bad weight {w}")
        weights.append(weight)
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

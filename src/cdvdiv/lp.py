"""Exact linear programs over the candidate weight polyhedron.

Every discrepancy-1 weight of a germ with support S lies in

    P(S) = {w >= 1 : sum(w) - 2 <= <w, v> for every v in S}.

With u = w - 1 the point v gives the row sum_i (1 - v_i) u_i <= deg v - 2,
whose right-hand side is >= 0 once deg v >= 2, so u = 0 is feasible and the
slack basis starts the simplex with no phase 1.  A point that dominates
another one (p >= q coordinatewise) gives an implied row, because w >= 1
makes <w, p> >= <w, q>, so the minimal points of S carry the whole
polyhedron.

One primal simplex with Bland's rule serves every objective: the coordinate
maxima that bound the weight scan, and S_max = max sum(w) that certifies a
truncation degree of the normal-form reduction.  The tableau is kept in
integers, fraction-free: each row's basic entry is positive, a pivot
replaces every other row by p*row - f*pivot_row and divides it by its gcd,
and the ratio test compares by cross-multiplication.  It visits the same
bases as the rational tableau with the same rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from cdvdiv.poly import ExponentVector, total_degree

Rows = List[List[int]]


class UnboundedWeightsError(ValueError):
    """The discrepancy-1 candidate set is infinite: not an isolated cDV point.

    `ray` is a nonzero r >= 0 with sum(r) <= <r, v> for every vertex v, so
    w + k*r satisfies sum(w) - 2 <= w(f) for every candidate w and k >= 0.
    """

    def __init__(self, ray: Tuple[int, ...]):
        super().__init__(
            f"infinitely many weights satisfy sum(w) - 2 <= w(f): the ray {ray} "
            "never leaves that set; the input is not an isolated cDV point"
        )
        self.ray = ray


def minimal_points(points: Sequence[ExponentVector]) -> List[ExponentVector]:
    """The points of `points` that dominate no other one, by total degree.

    A point can only dominate points of lower total degree, so each point
    is compared with the minimal points of lower degree found so far.
    """
    minimal: List[ExponentVector] = []
    for p in sorted(set(points), key=total_degree):
        p0, p1, p2, p3 = p
        for q in minimal:
            if q[0] <= p0 and q[1] <= p1 and q[2] <= p2 and q[3] <= p3:
                break
        else:
            minimal.append(p)
    return minimal


def candidate_rows(points: Sequence[ExponentVector]) -> Tuple[Rows, List[int]]:
    """The rows and right-hand sides of P(points) in u = w - 1."""
    return [[1 - c for c in v] for v in points], [total_degree(v) - 2 for v in points]


def coordinate_maxima(rows: Rows, rhs: List[int]) -> List[Fraction]:
    """max u_i over {u >= 0 : rows . u <= rhs} for each coordinate i.

    rhs must be >= 0.  Raises UnboundedWeightsError with the ray when one
    coordinate is unbounded.
    """
    n = len(rows[0])
    return maximize(rows, rhs, [[int(i == j) for j in range(n)] for i in range(n)])


def max_weight_sum(points: Sequence[ExponentVector]) -> Optional[Fraction]:
    """S_max = max sum(w) over P(points), or None when P is unbounded.

    Every point must have total degree >= 2, so that w = 1 lies in P.
    """
    rows, rhs = candidate_rows(minimal_points(points))
    try:
        (best,) = maximize(rows, rhs, [[1] * len(rows[0])])
    except UnboundedWeightsError:
        return None
    return best + len(rows[0])


def maximize(rows: Rows, rhs: List[int], objectives: Sequence[Sequence[int]]) -> List[Fraction]:
    """max c . u over {u >= 0 : rows . u <= rhs} for each objective c in turn.

    rhs >= 0, so the slack basis is feasible; each objective starts from the
    optimal basis of the previous one.  The objective row holds
    scale * z + sum_j obj_j x_j = obj_rhs in the nonbasic variables, so a
    negative obj_j can enter.
    """
    n, m = len(rows[0]), len(rows)
    tableau = [
        list(row) + [int(i == k) for k in range(m)] + [b]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    basis = [n + i for i in range(m)]
    maxima = []
    for c in objectives:
        obj = [-a for a in c] + [0] * (m + 1)
        scale = 1
        for row, var in zip(tableau, basis):
            if obj[var]:
                obj, scale = _eliminate_objective(obj, scale, row, var)
        while True:
            entering = next((j for j in range(n + m) if obj[j] < 0), None)
            if entering is None:
                maxima.append(Fraction(obj[-1], scale))
                break
            leaving = None
            for i, row in enumerate(tableau):
                a = row[entering]
                if a <= 0:
                    continue
                if leaving is None:
                    leaving = i
                    continue
                best = tableau[leaving]
                left, right = row[-1] * best[entering], best[-1] * a
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving = i
            if leaving is None:
                raise UnboundedWeightsError(_ray(tableau, basis, entering, n))
            pivot_row = tableau[leaving]
            for i, row in enumerate(tableau):
                if i != leaving and row[entering]:
                    tableau[i] = _combine(row, pivot_row, entering)
            obj, scale = _eliminate_objective(obj, scale, pivot_row, entering)
            basis[leaving] = entering
    return maxima


def _combine(row: List[int], pivot_row: List[int], col: int) -> List[int]:
    """p*row - f*pivot_row over its gcd, p = pivot_row[col] > 0, f = row[col].

    The row's own basic entry is multiplied by p, so it stays positive.
    """
    p, f = pivot_row[col], row[col]
    out = [p * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _eliminate_objective(obj: List[int], scale: int, row: List[int], col: int):
    p, f = row[col], obj[col]
    out = [p * a - f * b for a, b in zip(obj, row)]
    scale *= p
    g = gcd(scale, *out)
    return [a // g for a in out], scale // g


def _ray(tableau: Rows, basis: List[int], entering: int, n: int) -> Tuple[int, ...]:
    """Primitive integer direction of u along which the LP is unbounded."""
    ray = [Fraction(int(j == entering)) for j in range(n)]
    for row, var in zip(tableau, basis):
        if var < n:
            ray[var] = Fraction(-row[entering], row[var])
    scale = lcm(*(q.denominator for q in ray))
    ints = [int(q * scale) for q in ray]
    g = gcd(*ints)
    return tuple(c // g for c in ints)

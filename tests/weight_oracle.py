"""Brute-force reference for the discrepancy-1 weights, independent of blowup.

The box is [1, 2 * (2 * maxdeg + 2)]^4, twice the scan box the enumeration
once started from, which is the largest box its doubling checks covered.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

Vertex = Sequence[int]


def oracle_bound(vertices: Sequence[Vertex]) -> int:
    return 2 * (2 * max(sum(v) for v in vertices) + 2)


def _is_primitive(w: Sequence[int]) -> bool:
    return gcd(gcd(w[0], w[1]), gcd(w[2], w[3])) == 1


def literal_scan(vertices: Sequence[Vertex], bound: int) -> List[Tuple[int, ...]]:
    """Every point of [1, bound]^4 tested at once (small bounds only)."""
    verts = np.array(vertices, dtype=np.int64)
    axis = np.arange(1, bound + 1, dtype=np.int64)
    points = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1)
    points = points.reshape(-1, 4)
    hits = points[points.sum(axis=1) - 2 == (points @ verts.T).min(axis=1)]
    return [w for w in map(tuple, hits.tolist()) if _is_primitive(w)]


def brute_force_weights(
    vertices: Sequence[Vertex], bound: int
) -> List[Tuple[int, ...]]:
    """Every primitive w in [1, bound]^4 with sum(w) - 2 == min <w, v>, sorted.

    Scans every (w2, w3, w4) of the box.  A solution makes its minimising
    vertex v tight, and tightness fixes w1 = (<w', v'> - sum(w') + 2) / (1 - v1)
    once v1 != 1, so trying that w1 for every vertex lists every solution in
    the box.  A full 4-D scan would cost bound^4 points: 3.5e9 for t^60.
    """
    verts = np.array(vertices, dtype=np.int64)
    if (verts[:, 0] == 1).any():
        raise ValueError("the oracle needs vertices with x-exponent != 1")
    axis = np.arange(1, bound + 1, dtype=np.int64)
    g3, g4 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    # h_v(w) = <w, v> - sum(w) + 2 splits as num_v(w2, w3, w4) + (v1 - 1) * w1,
    # and w is a solution exactly when min_v h_v(w) == 0.
    base = np.outer(g3, verts[:, 2] - 1) + np.outer(g4, verts[:, 3] - 1) + 2
    den = 1 - verts[:, 0]
    found = set()
    for w2 in range(1, bound + 1):
        num = base + w2 * (verts[:, 1] - 1)
        w1 = num // den
        rows, cols = np.nonzero((num % den == 0) & (w1 >= 1) & (w1 <= bound))
        w1 = w1[rows, cols]
        hit = (num[rows] - np.outer(w1, den)).min(axis=1) == 0
        tails = zip(g3[rows[hit]].tolist(), g4[rows[hit]].tolist())
        for first, (w3, w4) in zip(w1[hit].tolist(), tails):
            if _is_primitive((first, w2, w3, w4)):
                found.add((first, w2, w3, w4))
    return sorted(found)


def lp_vertex_maxima(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> List[Fraction]:
    """max u_i over the bounded {u >= 0 : rows . u <= rhs}, by trying every vertex.

    Each vertex is the solution of 4 tight constraints, taken from the rows
    and from u >= 0; the maximum of a linear function sits at one of them.
    """
    n = len(rows[0])
    constraints = [(list(a), b) for a, b in zip(rows, rhs)]
    constraints += [([-int(i == j) for j in range(n)], 0) for i in range(n)]
    best: List[Optional[Fraction]] = [None] * n
    for tight in combinations(constraints, n):
        u = _solve([a for a, _b in tight], [b for _a, b in tight])
        if u is None:
            continue
        if any(sum(x * y for x, y in zip(a, u)) > b for a, b in constraints):
            continue
        best = [c if m is None or c > m else m for c, m in zip(u, best)]
    return best


def _solve(matrix: List[List[int]], rhs: List[int]) -> Optional[List[Fraction]]:
    """The unique solution of matrix . u = rhs, or None when singular."""
    rows = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]

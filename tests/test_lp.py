"""The exact simplex behind the weight box, against two references.

The references are a vertex enumeration (every choice of 4 tight
constraints) and a Fraction tableau with the same Bland order.  The inputs
are the candidate polyhedra {u >= 0 : sum_i (1 - v_i) u_i <= deg v - 2} of
40 seeded bounded supports, plus seeded row sets built to tie in the ratio
test (scaled copies of a row, zero right-hand sides) and to be unbounded.
"""

import random

import pytest

from cdvdiv.lp import (
    UnboundedWeightsError,
    coordinate_maxima,
    max_weight_sum,
    maximize,
    minimal_points,
)
from cdvdiv.newton import build_diagram
from test_blowup import _random_bounded_germ
from weight_oracle import (
    FractionUnbounded,
    fraction_simplex,
    lp_vertex_max_sum,
    lp_vertex_maxima,
)

COORDINATES = [tuple(int(i == j) for j in range(4)) for i in range(4)]
ALL_ONES = (1, 1, 1, 1)


def _candidate_rows(points):
    return [[1 - c for c in v] for v in points], [sum(v) - 2 for v in points]


def _seeded_supports():
    rng = random.Random(2024)
    return [build_diagram(_random_bounded_germ(rng)).vertices for _ in range(40)]


def _tied_row_sets(count: int, seed: int):
    """Bounded row sets whose ratio tests tie: every row has a scaled copy,
    some right-hand sides are 0, and one row caps sum(u)."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        rows, rhs = [list(ALL_ONES)], [rng.randint(1, 6)]
        for _ in range(rng.randint(2, 3)):
            row = [rng.randint(-2, 3) for _ in range(4)]
            b = rng.choice((0, 0, 1, 2, 3))
            k = rng.randint(2, 3)
            rows += [row, [k * a for a in row]]
            rhs += [b, k * b]
        order = list(range(len(rows)))
        rng.shuffle(order)
        sets.append(([rows[i] for i in order], [rhs[i] for i in order]))
    return sets


def _unbounded_row_sets(count: int, seed: int):
    """Row sets in which some coordinate of u has only entries <= 0."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        free = rng.randrange(4)
        rows, rhs = [], []
        for _ in range(rng.randint(1, 4)):
            row = [rng.randint(-2, 3) for _ in range(4)]
            row[free] = -rng.randint(0, 2)
            rows.append(row)
            rhs.append(rng.choice((0, 1, 2, 5)))
        sets.append((rows, rhs))
    return sets


BOUNDED = [_candidate_rows(points) for points in _seeded_supports()] + _tied_row_sets(24, 11)


@pytest.mark.parametrize("index", range(len(BOUNDED)))
def test_maxima_match_both_references(index):
    rows, rhs = BOUNDED[index]
    maxima = coordinate_maxima(rows, rhs)
    assert maxima == lp_vertex_maxima(rows, rhs)
    assert maxima == fraction_simplex(rows, rhs, COORDINATES)
    best = lp_vertex_max_sum(rows, rhs)
    assert fraction_simplex(rows, rhs, [ALL_ONES]) == [best]
    assert maximize(rows, rhs, [ALL_ONES]) == [best]
    # After the coordinate objectives, from their last basis.
    assert maximize(rows, rhs, COORDINATES + [ALL_ONES]) == maxima + [best]


@pytest.mark.parametrize("rows, rhs", _unbounded_row_sets(30, 5))
def test_unbounded_sets_raise_the_reference_ray(rows, rhs):
    with pytest.raises(FractionUnbounded) as reference:
        fraction_simplex(rows, rhs, COORDINATES)
    with pytest.raises(UnboundedWeightsError) as info:
        coordinate_maxima(rows, rhs)
    ray = info.value.ray
    assert ray == reference.value.ray
    assert min(ray) >= 0 and max(ray) > 0
    assert all(sum(a * r for a, r in zip(row, ray)) <= 0 for row in rows)


def _random_points(rng: random.Random, count: int):
    """Points of total degree >= 2 with x^2 and a pure y-power, and some
    that dominate others."""
    points = [(2, 0, 0, 0), (0, rng.randint(2, 4), 0, 0)]
    for _ in range(count):
        degree = rng.randint(2, 9)
        x = int(rng.random() < 0.2)
        a, b = sorted(rng.randint(0, degree - x) for _ in range(2))
        points.append((x, a, b - a, degree - x - b))
    for _ in range(count // 2):
        p = rng.choice(points)
        points.append(tuple(c + rng.randint(0, 2) for c in p))
    return points


def _brute_minimal(points):
    points = set(points)
    return sorted(
        p for p in points if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points)
    )


@pytest.mark.parametrize("seed", range(30))
def test_weight_sum_over_minimal_points_matches_all_points(seed):
    rng = random.Random(seed)
    points = _random_points(rng, rng.randint(3, 6))
    assert sorted(minimal_points(points)) == _brute_minimal(points)
    rows, rhs = _candidate_rows(points)
    try:
        (expected,) = fraction_simplex(rows, rhs, [ALL_ONES])
    except FractionUnbounded:
        assert max_weight_sum(points) is None
        return
    assert expected == lp_vertex_max_sum(rows, rhs)
    assert max_weight_sum(points) == expected + 4


def test_weight_sum_of_known_germs():
    # x^2 + y^3 + z^5 + t^15: sum(w) - 2 <= 2a, 3b, 5c, 15d gives 22 at
    # w = (10, 20/3, 4, 4/3); x^2 + y^2 z + z^3 + t^3 gives 6.
    assert max_weight_sum([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 5, 0), (0, 0, 0, 15)]) == 22
    assert max_weight_sum([(2, 0, 0, 0), (0, 2, 1, 0), (0, 0, 3, 0), (0, 0, 0, 3)]) == 6
    # x^2 + y^2 z + y^3 is not isolated: the ray (1, 1, 0, 0) never leaves.
    assert max_weight_sum([(2, 0, 0, 0), (0, 2, 1, 0), (0, 3, 0, 0)]) is None

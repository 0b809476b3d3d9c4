import time
from fractions import Fraction as F
from functools import lru_cache
from math import gcd

import pytest

from cdvdiv.catalog import (
    CE8_SCAN_SURPLUS,
    _allowed_families,
    _conditions_cd,
    _conditions_ce7,
    _conditions_ce_pure,
    _default_bound,
    _scan,
    catalog_correspondence,
    candidate_weights,
    lemma_quadruples,
)
from cdvdiv.normalform import SingularityType


EXPECTED_CE6 = {
    (F(2), F(2), F(4), F(4)),
    (F(2), F(3), F(3), F(6)),
    (F(2), F(8, 3), F(4), F(8)),
    (F(2), F(3), F(4), F(12)),
}

EXPECTED_CE7 = {
    (F(2), F(2), F(6), F(6)),
    (F(2), F(3), F(3), F(6)),
    (F(2), F(8, 3), F(4), F(8)),
    (F(9, 5), F(3), F(9, 2), F(9)),
    (F(2), F(5, 2), F(5), F(10)),
    (F(2), F(3), F(4), F(12)),
    (F(2), F(14, 5), F(14, 3), F(14)),
    (F(2), F(3), F(9, 2), F(18)),
}

EXPECTED_CE8 = {
    (F(2), F(3), F(3), F(6)),
    (F(2), F(8, 3), F(4), F(8)),
    (F(9, 5), F(3), F(9, 2), F(9)),
    (F(2), F(3), F(4), F(12)),
    (F(2), F(14, 5), F(14, 3), F(14)),
    (F(15, 8), F(3), F(5), F(15)),
    (F(2), F(3), F(9, 2), F(18)),
    (F(2), F(3), F(24, 5), F(24)),
    (F(2), F(3), F(5), F(30)),
}


def cd_families(n):
    fams = set()
    if n % 2 == 0:
        k = n // 2
        fams.add((F(2 * k - 1, k), F(2 * k - 1, k - 1), F(2 * k - 1), F(2 * k - 1)))
    else:
        k = (n - 1) // 2
        fams.add((F(2), F(2), F(2 * k), F(2 * k)))
    for k in range(2, n):
        fams.add((F(2), F(2 * k, k - 1), F(k), F(2 * k)))
    return fams


class TestQuadruples:
    @pytest.mark.parametrize(
        "kind,expected",
        [("cE6", EXPECTED_CE6), ("cE7", EXPECTED_CE7), ("cE8", EXPECTED_CE8)],
    )
    def test_ce_catalogs(self, kind, expected):
        got = {q.intercepts for q in lemma_quadruples(SingularityType(kind))}
        assert got == expected

    @pytest.mark.parametrize("n", range(4, 13))
    def test_cd_families(self, n):
        got = {q.intercepts for q in lemma_quadruples(SingularityType("cD", n))}
        assert got == cd_families(n)

    def test_derived_weights(self):
        by_m = {q.m: q.derived_weight().w for q in lemma_quadruples(SingularityType("cE8"))}
        assert by_m[15] == (8, 5, 3, 1)
        assert by_m[24] == (12, 8, 5, 1)
        assert by_m[30] == (15, 10, 6, 1)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            lemma_quadruples(SingularityType("cA", 1))


class TestCandidateWeights:
    def test_ce6(self):
        assert [w.w for w in candidate_weights(SingularityType("cE6"))] == [
            (2, 2, 1, 1),
            (3, 2, 2, 1),
            (4, 3, 2, 1),
        ]

    def test_ce8(self):
        weights = [w.w for w in candidate_weights(SingularityType("cE8"))]
        assert len(weights) == 8
        assert (8, 5, 3, 1) in weights
        assert (12, 8, 5, 1) in weights

    def test_ce7(self):
        assert [w.w for w in candidate_weights(SingularityType("cE7"))] == [
            (3, 2, 1, 1),
            (4, 3, 2, 1),
            (5, 3, 2, 1),
            (6, 4, 3, 1),
        ]

    def test_cd_parity(self):
        assert [w.w for w in candidate_weights(SingularityType("cD", 4))] == [
            (2, 1, 1, 1)
        ]
        assert [w.w for w in candidate_weights(SingularityType("cD", 7))] == [
            (3, 3, 1, 1)
        ]


class TestCorrespondence:
    def test_cd_exact(self):
        for n in (4, 7, 10):
            entries = catalog_correspondence(SingularityType("cD", n))
            for entry in entries:
                assert entry.status in ("matched", "plt_excluded")
            matched = [e for e in entries if e.status == "matched"]
            assert len(matched) == 1  # the parity family

    def test_ce6_exact(self):
        entries = catalog_correspondence(SingularityType("cE6"))
        statuses = sorted(e.status for e in entries)
        assert statuses == ["matched", "matched", "matched", "plt_excluded"]

    def test_ce7_near_miss_flagged(self):
        entries = catalog_correspondence(SingularityType("cE7"))
        by_weight = {e.weight.w: e.status for e in entries}
        assert by_weight[(3, 3, 1, 1)] == "flagged"
        assert by_weight[(4, 3, 2, 1)] == "matched"
        assert by_weight[(5, 3, 2, 1)] == "matched"
        assert by_weight[(6, 4, 3, 1)] == "matched"
        assert by_weight[(5, 4, 2, 1)] == "stated_rational"

    def test_ce8_exact_plus_surplus(self):
        entries = catalog_correspondence(SingularityType("cE8"))
        catalog_entries = [e for e in entries if e.status in ("matched", "plt_excluded")]
        assert len(catalog_entries) == 9
        surplus = [e for e in entries if e.status == "scan_surplus"]
        assert {e.weight.w for e in surplus} == set(CE8_SCAN_SURPLUS)


# -- oracle: the four-loop literal scan over every primitive weight ----------
#
# A verbatim copy of the scan as it stood before the loops were bounded by
# the intercept conditions, and of the face-viability test it called.  It
# shares only the per-type condition checks and the family table with the
# module, never the loop bounds under test.


def literal_face_viable(kind, n, m, w):
    fixed, t_families, z_pure_min = _allowed_families(kind, n)
    points = [p for p in fixed if sum(a * b for a, b in zip(w, p)) == m]
    for y_exp, z_exp, d_min in t_families:
        base = w[1] * y_exp + w[2] * z_exp
        rest = m - base
        if rest >= d_min * w[3] and rest % w[3] == 0:
            points.append((0, y_exp, z_exp, rest // w[3]))
    if z_pure_min is not None and m % w[2] == 0 and m // w[2] >= z_pure_min:
        points.append((0, 0, m // w[2], 0))
    if len(points) < 3:
        return False
    base = points[0]
    rows = [tuple(p[i] - base[i] for i in range(4)) for p in points[1:]]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            for c1 in range(4):
                for c2 in range(c1 + 1, 4):
                    if rows[i][c1] * rows[j][c2] - rows[i][c2] * rows[j][c1] != 0:
                        return True
    return False


@lru_cache(maxsize=None)
def literal_scan(kind, bound):
    if kind.kind == "cD":
        check = lambda m, w: _conditions_cd(kind.n, m, w)  # noqa: E731
    elif kind.kind == "cE6":
        check = lambda m, w: _conditions_ce_pure(4, m, w)  # noqa: E731
    elif kind.kind == "cE7":
        check = _conditions_ce7
    elif kind.kind == "cE8":
        check = lambda m, w: _conditions_ce_pure(5, m, w)  # noqa: E731
    else:
        raise ValueError(f"no quadruple catalog for type {kind.label()}")
    results = []
    for m in range(2, bound + 1):
        total = m + 2
        for w1 in range(1, total - 2):
            for w2 in range(1, total - w1 - 1):
                for w3 in range(1, total - w1 - w2):
                    w4 = total - w1 - w2 - w3
                    w = (w1, w2, w3, w4)
                    if gcd(gcd(w1, w2), gcd(w3, w4)) != 1:
                        continue
                    if not check(m, w):
                        continue
                    if kind.kind != "cD" and not literal_face_viable(
                        kind.kind, kind.n, m, w
                    ):
                        continue
                    results.append((m, w))
    return tuple(results)


PROVED_BOUND = {"cE6": 12, "cE7": 18, "cE8": 30}


class TestScanOracle:
    @pytest.mark.parametrize("n", range(4, 31))
    def test_cd_matches_literal_scan(self, n):
        kind = SingularityType("cD", n)
        bound = max(32, 2 * n)
        assert list(_scan(kind, bound)) == list(literal_scan(kind, bound))

    @pytest.mark.parametrize("bound", [10, 32, 64])
    @pytest.mark.parametrize("kind", ["cE6", "cE7", "cE8"])
    def test_ce_matches_literal_scan(self, kind, bound):
        kind = SingularityType(kind)
        assert list(_scan(kind, bound)) == list(literal_scan(kind, bound))

    @pytest.mark.parametrize("kind", ["cE6", "cE7", "cE8"])
    def test_ce_default_bound_is_proved(self, kind):
        kind = SingularityType(kind)
        bound = PROVED_BOUND[kind.kind]
        assert _default_bound(kind) == bound
        found = literal_scan(kind, 64)
        assert max(m for m, _w in found) == bound
        assert literal_scan(kind, bound) == found

    @pytest.mark.parametrize("n", [4, 5, 12, 30])
    def test_cd_default_bound_is_proved(self, n):
        kind = SingularityType("cD", n)
        bound = 2 * (n - 1)
        assert _default_bound(kind) == bound
        found = literal_scan(kind, 64)
        assert max(m for m, _w in found) == bound
        assert literal_scan(kind, bound) == found

    def test_cd_200_is_fast(self):
        start = time.perf_counter()
        quads = lemma_quadruples(SingularityType("cD", 200))
        elapsed = time.perf_counter() - start
        assert {q.intercepts for q in quads} == cd_families(200)
        assert elapsed < 5.0

"""Intercept quadruples and the catalog of non-rational blowup weights.

For a discrepancy-1 weighted blowup the supporting hyperplane of the
relevant diagram face can be written in intercept form

    alpha/a + beta/b + gamma/c + delta/d = 1,

and with m = lcm(a, b, c, d) the weight is w = (m/a, m/b, m/c, m/d) while
sum(w) = m + 2.  Quadruples are therefore in bijection with primitive
integer weight vectors, and lemma_quadruples enumerates them by an exact
integer scan.  Three layers of conditions apply:

  1. the per-type intercept conditions (which structural monomials lie on
     or above the hyperplane);
  2. viability: a face that can carry a non-rational divisor has dimension
     at least 2, so at least 3 affinely independent monomials from the
     type's normal-form families must lie on the hyperplane (for cD the
     equivalent per-branch pins are used: the scan branch that puts the
     pure z-power on the hyperplane forces its exponent to be n-1);
  3. for cE8, two viable scan solutions (m = 10 and m = 20) are pinned out
     of the certified catalog and reported as scan surplus by
     catalog_correspondence; see that function.

The scan visits only the weights inside the bounds that every branch of
the intercept conditions implies (see _scan_bounds), and only the levels
m up to the largest one those bounds allow (see _default_bound): 12, 18
and 30 for cE6, cE7 and cE8, and 2(n-1) for cD_n.  The conditions stay
the exact filter, so the bounds only skip weights that would fail them.

candidate_weights is the input-independent catalog of weights that can
carry the non-rational discrepancy-1 divisor, per type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import List, Optional, Tuple

from cdvdiv.blowup import Weight
from cdvdiv.curvegeom import is_plt_weight
from cdvdiv.newton import _affine_rank
from cdvdiv.normalform import SingularityType


@dataclass(frozen=True)
class Quadruple:
    """Intercepts (a, b, c, d); m = sum of the derived weight minus 2."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    m: int

    @property
    def intercepts(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def derived_weight(self) -> Weight:
        values = tuple(Fraction(self.m) / q for q in self.intercepts)
        if any(v.denominator != 1 or v < 1 for v in values):
            raise ValueError(f"derived weight of {self} is not integral")
        return Weight(tuple(int(v) for v in values))

    def __str__(self) -> str:
        return "(" + ", ".join(str(q) for q in self.intercepts) + ")"


def _quadruple(m: int, w) -> Quadruple:
    return Quadruple(
        a=Fraction(m, w[0]), b=Fraction(m, w[1]), c=Fraction(m, w[2]),
        d=Fraction(m, w[3]), m=m,
    )


# -- per-type intercept conditions (which structural points are on/above L) --


def _conditions_cd(n: int, m: int, w) -> bool:
    # (a = 2, 2/b + 1/c >= 1, c <= n-1)  or  (a < 2, 2/b + 1/c = 1, c <= n-1),
    # with the per-branch viability pins: the x^2-branch needs the level m to
    # be reachable by a second structural monomial (m >= 4), and whenever the
    # pure z-power is forced onto the hyperplane its exponent must be n-1.
    w1, w2, w3, _w4 = w
    if (n - 1) * w3 < m:  # c <= n-1
        return False
    if m == 2 * w1:
        if m < 4 or 2 * w2 + w3 < m:
            return False
        # w3 = 1 puts no mixed monomial on L below z^(n-1): force c = n-1.
        return w3 != 1 or m == (n - 1) * w3
    if m < 2 * w1:
        return 2 * w2 + w3 == m and m == (n - 1) * w3
    return False


# The pure z-power z^k of the cE6 and cE8 normal forms.
_PURE_Z_POWER = {"cE6": 4, "cE8": 5}


def _conditions_ce_pure(k: int, m: int, w) -> bool:
    # cE6 (k = 4) and cE8 (k = 5):
    # (a=2, b<=3, c<=k) or (a<2, b=3, c<=k) or (a<2, b<3, c=k)
    w1, w2, w3, _w4 = w
    if m == 2 * w1:
        return 3 * w2 >= m and k * w3 >= m
    if m < 2 * w1:
        if m == 3 * w2:
            return k * w3 >= m
        if m < 3 * w2:
            return k * w3 == m
    return False


def _conditions_ce7(m: int, w) -> bool:
    # (a=2, b<=3, 1/b + 3/c >= 1) or (a<2, b=3, c<=9/2)
    w1, w2, w3, _w4 = w
    if m == 2 * w1:
        return 3 * w2 >= m and w2 + 3 * w3 >= m
    if m < 2 * w1:
        return m == 3 * w2 and 9 * w3 >= 2 * m
    return False


# -- viability: the hyperplane must support a face of dimension >= 2 ---------
#
# Allowed monomial families of the normal forms.  Fixed entries are exact;
# the t-exponent ranges over d >= d_min (d_min reflects both the shape
# constraints and genuineness of the type: a y*t^d term with 2d < n would
# already drop a cD_n germ to cD_2d, a quartic (z,t) term would turn cE7/cE8
# into cE6, and so on).


def _allowed_families(kind: str, n: Optional[int]):
    fixed: List[Tuple[int, int, int, int]] = []
    t_families: List[Tuple[int, int, int]] = []  # (y-exp, z-exp, min t-exp)
    z_pure_min: Optional[int] = None  # open z-exponent family (cE7's z^k)
    if kind == "cD":
        fixed = [(2, 0, 0, 0), (0, 2, 1, 0), (0, 0, n - 1, 0)]
        for c in range(0, n - 1):
            t_families.append((0, c, max(1, n - 1 - c)))
        t_families.append((1, 0, (n + 1) // 2))
    elif kind in ("cE6", "cE8"):
        k = _PURE_Z_POWER[kind]
        fixed = [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, k, 0)]
        for c in range(k - 1):
            t_families.append((0, c, k - c))
            t_families.append((1, c, k - 1 - c))
    elif kind == "cE7":
        fixed = [(2, 0, 0, 0), (0, 3, 0, 0), (0, 1, 3, 0)]
        for c in range(0, 40):
            t_families.append((0, c, max(1, 5 - c)))
        t_families.append((1, 0, 3))
        t_families.append((1, 1, 2))
        z_pure_min = 5
    else:
        raise ValueError(kind)
    return fixed, t_families, z_pure_min


def _face_viable(families, m: int, w) -> bool:
    """Can a dimension >= 2 face of a genuine normal form lie on L?

    families is _allowed_families of the type.
    """
    fixed, t_families, z_pure_min = families
    points = [p for p in fixed if sum(a * b for a, b in zip(w, p)) == m]
    for y_exp, z_exp, d_min in t_families:
        base = w[1] * y_exp + w[2] * z_exp
        rest = m - base
        if rest >= d_min * w[3] and rest % w[3] == 0:
            points.append((0, y_exp, z_exp, rest // w[3]))
    if z_pure_min is not None and m % w[2] == 0 and m // w[2] >= z_pure_min:
        points.append((0, 0, m // w[2], 0))
    return _affine_rank(points) >= 2


# Viable scan solutions pinned out of the certified cE8 catalog (reported as
# scan surplus by catalog_correspondence): special exponent choices realize
# them, so the pipeline may still report divisors at these weights.
CE8_SCAN_SURPLUS: Tuple[Tuple[int, int, int, int], ...] = (
    (5, 4, 2, 1),
    (10, 7, 4, 1),
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _scan_bounds(kind: SingularityType, m: int):
    """(least w2, rows (a, b) with a*w2 + b*w3 >= m, largest w3) at level m.

    Every branch of each type's intercept conditions implies these, and
    2*w1 >= m for all types:
      cE6: 3*w2 >= m, 4*w3 >= m;
      cE7: 3*w2 >= m, w2 + 3*w3 >= m (b = 3 with 9*w3 >= 2m implies it);
      cE8: 3*w2 >= m, 5*w3 >= m;
      cD_n: 2*w2 + w3 >= m, (n-1)*w3 >= m, and w3 <= 2 (_default_bound),
            so also 2*w2 >= m - 2.
    """
    if kind.kind == "cD":
        return max(1, _ceil_div(m - 2, 2)), ((2, 1), (0, kind.n - 1)), 2
    rows = {"cE6": ((0, 4),), "cE7": ((1, 3),), "cE8": ((0, 5),)}
    return _ceil_div(m, 3), rows[kind.kind], m


def _scan(kind: SingularityType, bound: Optional[int] = None) -> List[Tuple[int, Tuple]]:
    """(m, w) for every primitive w with sum(w) = m + 2 passing the checks.

    m runs up to the proved bound, or to bound when that is smaller; the
    order is lexicographic in (m, w).
    """
    top = _default_bound(kind)
    if bound:
        top = min(bound, top)
    families = None if kind.kind == "cD" else _allowed_families(kind.kind, kind.n)
    if kind.kind == "cD":
        check = lambda m, w: _conditions_cd(kind.n, m, w)  # noqa: E731
    elif kind.kind == "cE7":
        check = _conditions_ce7
    else:
        check = partial(_conditions_ce_pure, _PURE_Z_POWER[kind.kind])
    results = []
    for m in range(2, top + 1):
        total = m + 2
        low2, rows, high3 = _scan_bounds(kind, m)
        # w3 >= 1 and w4 = total - w1 - w2 - w3 >= 1
        for w1 in range(_ceil_div(m, 2), total - low2 - 1):
            for w2 in range(low2, total - w1 - 1):
                low3 = max(1, *(_ceil_div(m - a * w2, b) for a, b in rows))
                for w3 in range(low3, min(high3 + 1, total - w1 - w2)):
                    w4 = total - w1 - w2 - w3
                    w = (w1, w2, w3, w4)
                    if gcd(gcd(w1, w2), gcd(w3, w4)) != 1:
                        continue
                    if not check(m, w):
                        continue
                    if families is not None and not _face_viable(families, m, w):
                        continue
                    results.append((m, w))
    return results


def _default_bound(kind: SingularityType) -> int:
    """The largest level m that the scan bounds allow for the type.

    With w4 >= 1, w1 + w2 + w3 <= m + 1, and the lower bounds of
    _scan_bounds give
      cE6: m/2 + m/3 + m/4 = 13m/12 <= m + 1, so m <= 12;
      cE7: w2 + w3 >= w2 + (m - w2)/3 >= m/3 + 2m/9 with 3*w2 >= m, so
           m/2 + 5m/9 = 19m/18 <= m + 1 and m <= 18;
      cE8: m/2 + m/3 + m/5 = 31m/30 <= m + 1, so m <= 30;
      cD_n: w1 + w2 + w3 >= m/2 + (m - w3)/2 + w3 = m + w3/2, so w3 <= 2,
            and (n-1)*w3 >= m gives m <= 2(n-1).
    These are the largest m in the paper's lists.
    """
    if kind.kind == "cD":
        return 2 * (kind.n - 1)
    bounds = {"cE6": 12, "cE7": 18, "cE8": 30}
    if kind.kind not in bounds:
        raise ValueError(f"no quadruple catalog for type {kind.label()}")
    return bounds[kind.kind]


def _certified_and_surplus(kind: SingularityType, bound: Optional[int]):
    """One scan, split into the certified quadruples, sorted by (m,
    intercepts), and the pinned cE8 surplus (m, w) pairs in scan order."""
    pinned = CE8_SCAN_SURPLUS if kind.kind == "cE8" else ()
    certified, surplus = [], []
    for m, w in _scan(kind, bound):
        if w in pinned:
            surplus.append((m, w))
        else:
            certified.append(_quadruple(m, w))
    certified.sort(key=lambda q: (q.m, q.intercepts))
    return certified, surplus


def lemma_quadruples(kind: SingularityType, bound: Optional[int] = None) -> List[Quadruple]:
    """All certified intercept quadruples for the type.

    Exact integer scan over primitive weights with m up to the proved bound
    of _default_bound (12, 18, 30 for cE6, cE7, cE8 and 2(n-1) for cD_n),
    or up to bound when that is smaller, filtered by the intercept
    conditions and the face-viability requirement, minus the pinned cE8
    scan surplus.  The loops run only inside the bounds of _scan_bounds:
    2*w1 >= m, and per type the lower bounds on w2 and w3 that every branch
    of its conditions implies.  Deduplicated and sorted by (m, intercepts).
    """
    return _certified_and_surplus(kind, bound)[0]


def candidate_weights(kind: SingularityType) -> List[Weight]:
    """The input-independent catalog of possibly-non-rational weights."""
    if kind.kind == "cD":
        n = kind.n
        if n % 2 == 0:
            k = n // 2
            return [Weight((k, k - 1, 1, 1))]
        k = (n - 1) // 2
        return [Weight((k, k, 1, 1))]
    if kind.kind == "cE6":
        return [Weight(w) for w in ((2, 2, 1, 1), (3, 2, 2, 1), (4, 3, 2, 1))]
    if kind.kind == "cE7":
        return [
            Weight(w)
            for w in ((3, 2, 1, 1), (4, 3, 2, 1), (5, 3, 2, 1), (6, 4, 3, 1))
        ]
    if kind.kind == "cE8":
        return [
            Weight(w)
            for w in (
                (3, 2, 2, 1),
                (4, 3, 2, 1),
                (5, 3, 2, 1),
                (6, 4, 3, 1),
                (7, 5, 3, 1),
                (8, 5, 3, 1),
                (9, 6, 4, 1),
                (12, 8, 5, 1),
            )
        ]
    raise ValueError(f"no weight catalog for type {kind.label()}")


# Catalog near-miss: the cE7 quadruple (2,2,6,6) derives the weight
# (3,3,1,1), which is not in the weight catalog; the adjacent catalog entry
# is (3,2,1,1).  The pipeline reports both weights with computed verdicts.
CE7_NEAR_MISS = {(3, 3, 1, 1): (3, 2, 1, 1)}


@dataclass(frozen=True)
class CorrespondenceEntry:
    quadruple: Quadruple
    weight: Weight
    status: str  # matched | plt_excluded | stated_rational | flagged | scan_surplus
    note: str = ""


def catalog_correspondence(
    kind: SingularityType, bound: Optional[int] = None
) -> List[CorrespondenceEntry]:
    """Match each quadruple's weight against the weight catalog.

    Also appends the pinned cE8 scan-surplus quadruples with status
    "scan_surplus" so that nothing the scan finds is silently dropped.
    """
    catalog = {w.w for w in candidate_weights(kind)}
    certified, surplus = _certified_and_surplus(kind, bound)
    entries = []
    for quad in certified:
        weight = quad.derived_weight()
        if weight.w in catalog:
            status, note = "matched", ""
        elif is_plt_weight(kind.kind, weight):
            status, note = "plt_excluded", "purely log terminal: rational"
        elif kind.kind == "cE7" and weight.w in CE7_NEAR_MISS:
            status = "flagged"
            note = (
                f"derived weight {weight} is not in the catalog; nearest "
                f"catalog entry is {tuple(CE7_NEAR_MISS[weight.w])}; both are "
                "reported by the pipeline"
            )
        elif kind.kind == "cE7":
            status, note = "stated_rational", "carries only rational divisors"
        else:
            status = "flagged"
            note = "derived weight not in the catalog"
        entries.append(
            CorrespondenceEntry(quadruple=quad, weight=weight, status=status, note=note)
        )
    for m, w in surplus:
        entries.append(
            CorrespondenceEntry(
                quadruple=_quadruple(m, w),
                weight=Weight(w),
                status="scan_surplus",
                note=(
                    "viable scan solution outside the certified "
                    "catalog; special exponent choices realize it, "
                    "and the pipeline reports it when it occurs"
                ),
            )
        )
    return entries

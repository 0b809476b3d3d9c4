"""Acceptance suite: every criterion at its stated tolerance, timed.

Each test prints one PASS/FAIL line (visible with pytest -s); all checks are
exact (integer and rational equality), only the runtime budgets are bounds.
"""

import random
import time
from fractions import Fraction as F
from math import gcd

from cdvdiv.blowup import enumerate_weights
from cdvdiv.catalog import candidate_weights, lemma_quadruples
from cdvdiv.curvegeom import LatticePolygon, polygon_genus
from cdvdiv.newton import build_diagram, support_value
from cdvdiv.normalform import (
    SingularityType,
    classify_type,
    reduce_to_normal_form,
    replay,
)
from cdvdiv.pipeline import AnalyzeOptions, analyze, analyze_text, run_corpus
from cdvdiv.poly import Polynomial, parse_polynomial
from weight_oracle import brute_force_weights, oracle_bound

P = parse_polynomial

ANALYZE_OPTIONS = AnalyzeOptions(face_samples=2000, scan_primes=(241,))


def report(number: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number} [{name}]: {status} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


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


def test_criterion_1_lemma_catalogs():
    start = time.monotonic()
    ok = True
    for kind, expected, size in (
        ("cE6", EXPECTED_CE6, 4),
        ("cE7", EXPECTED_CE7, 8),
        ("cE8", EXPECTED_CE8, 9),
    ):
        got = {q.intercepts for q in lemma_quadruples(SingularityType(kind))}
        ok = ok and got == expected and len(got) == size
    for n in range(4, 13):
        got = {q.intercepts for q in lemma_quadruples(SingularityType("cD", n))}
        ok = ok and got == cd_families(n)
    report(1, "lemma catalog reproduction", ok, time.monotonic() - start, 5.0)


def test_criterion_2_weight_catalogs():
    start = time.monotonic()
    ok = [w.w for w in candidate_weights(SingularityType("cE6"))] == [
        (2, 2, 1, 1),
        (3, 2, 2, 1),
        (4, 3, 2, 1),
    ]
    ce8 = [w.w for w in candidate_weights(SingularityType("cE8"))]
    ok = ok and ce8 == [
        (3, 2, 2, 1),
        (4, 3, 2, 1),
        (5, 3, 2, 1),
        (6, 4, 3, 1),
        (7, 5, 3, 1),
        (8, 5, 3, 1),
        (9, 6, 4, 1),
        (12, 8, 5, 1),
    ]
    ok = ok and [w.w for w in candidate_weights(SingularityType("cE7"))] == [
        (3, 2, 1, 1),
        (4, 3, 2, 1),
        (5, 3, 2, 1),
        (6, 4, 3, 1),
    ]
    for n in range(4, 13):
        expected = (
            [(n // 2, n // 2 - 1, 1, 1)] if n % 2 == 0 else [((n - 1) // 2, (n - 1) // 2, 1, 1)]
        )
        ok = ok and [w.w for w in candidate_weights(SingularityType("cD", n))] == expected
    report(2, "weight catalogs", ok, time.monotonic() - start, 1.0)


def test_criterion_3_cd_family():
    ok = True
    worst = 0.0
    for k in range(2, 7):
        start = time.monotonic()
        result = analyze_text(
            f"x^2 + y^2*z + z^{2 * k - 1} + t^{2 * k - 1}", ANALYZE_OPTIONS
        )
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        reports = result.non_rational_reports()
        ok = ok and result.classification == SingularityType("cD", 2 * k)
        ok = ok and len(reports) == 1
        if reports:
            r = reports[0]
            ok = ok and r.weight.w == (k, k - 1, 1, 1)
            ok = ok and r.discrepancy == 1
            ok = ok and r.genus == k - 1
            ok = ok and r.hyperelliptic is True
            ok = ok and r.rationality.cone is not None
    report(3, "cD family k=2..6", ok, worst, 2.0)


def test_criterion_4_ce7_example():
    start = time.monotonic()
    result = analyze_text("x^2 + y^3 + y*z^3 + t^9", ANALYZE_OPTIONS)
    reports = [r for r in result.non_rational_reports() if r.weight.w == (5, 3, 2, 1)]
    ok = len(reports) == 1
    if reports:
        r = reports[0]
        ok = ok and r.genus == 3 and r.hyperelliptic is False and r.discrepancy == 1
    report(4, "cE7 example", ok, time.monotonic() - start, 2.0)


def test_criterion_5_ce8_example():
    start = time.monotonic()
    result = analyze_text("x^2 + y^3 + z^5 + t^15", ANALYZE_OPTIONS)
    reports = result.non_rational_reports()
    ok = len(reports) == 1
    if reports:
        r = reports[0]
        ok = (
            ok
            and r.weight.w == (8, 5, 3, 1)
            and r.genus == 4
            and r.hyperelliptic is False
            and r.discrepancy == 1
        )
    report(5, "cE8 example", ok, time.monotonic() - start, 2.0)


def test_criterion_6_uniqueness_suite():
    start = time.monotonic()
    result = run_corpus(seed=0)
    ok = (
        result.instances >= 100
        and result.max_non_rational <= 1
        and result.violations == 0
        and not result.genus_failures
        and not result.classification_failures
    )
    report(6, "uniqueness property suite", ok, time.monotonic() - start, 60.0)


def test_criterion_7_oracles():
    start = time.monotonic()
    ok = True

    # (a) support_value from vertices == brute force over the full support.
    rng = random.Random(2024)
    pairs = 0
    while pairs < 1000:
        terms = {}
        for _ in range(rng.randint(2, 8)):
            exps = tuple(rng.randint(0, 8) for _ in range(4))
            terms[exps] = 1
        f = Polynomial(terms)
        d = build_diagram(f)
        for _ in range(5):
            w = tuple(rng.randint(1, 11) for _ in range(4))
            brute = min(sum(a * b for a, b in zip(w, v)) for v in f.support())
            ok = ok and support_value(d, w) == brute
            pairs += 1

    # (b) polygon genus == Pick-derived interior count on random polygons.
    checked = 0
    while checked < 500:
        pts = [
            (rng.randint(0, 10), rng.randint(0, 10))
            for _ in range(rng.choice([3, 4]))
        ]
        polygon = LatticePolygon.from_points(pts)
        if polygon.is_degenerate():
            continue
        hull = list(polygon.vertices)
        area2 = sum(
            x1 * y2 - x2 * y1
            for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1])
        )
        boundary = sum(
            gcd(abs(x2 - x1), abs(y2 - y1))
            for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1])
        )
        pick_interior = (area2 - boundary + 2) // 2
        poly = Polynomial({(0, 0, a, b): F(1) for a, b in pts})
        genus, _ = polygon_genus(poly)
        ok = ok and genus == pick_interior
        checked += 1

    # (c) the enumeration equals a brute-force scan on the acceptance inputs.
    inputs = [
        f"x^2 + y^2*z + z^{2 * k - 1} + t^{2 * k - 1}" for k in range(2, 7)
    ] + ["x^2 + y^3 + y*z^3 + t^9", "x^2 + y^3 + z^5 + t^15"]
    for text in inputs:
        d = build_diagram(P(text))
        expected = brute_force_weights(d.vertices, oracle_bound(d.vertices))
        ok = ok and [w.w for w in enumerate_weights(d)] == expected

    report(7, "independent oracles", ok, time.monotonic() - start, 30.0)


def _perturbation_cases(seed: int, count: int):
    rng = random.Random(seed)
    bases = []
    for n in range(4, 9):
        terms = {
            (2, 0, 0, 0): F(1),
            (0, 2, 1, 0): F(1),
            (0, 0, n - 1, 0): F(1),
            (0, 0, 0, n - 1): F(1),
        }
        bases.append((SingularityType("cD", n), Polynomial(terms), n))
    bases.append((SingularityType("cE6"), P("x^2 + y^3 + z^4 + t^4"), 5))
    bases.append((SingularityType("cE7"), P("x^2 + y^3 + y*z^3 + t^9"), 6))
    bases.append((SingularityType("cE8"), P("x^2 + y^3 + z^5 + t^15"), 6))
    cases = []
    while len(cases) < count:
        kind, base, safe_degree = bases[rng.randrange(len(bases))]
        deg_x = rng.randint(safe_degree, safe_degree + 2)
        deg_y = rng.randint(safe_degree, safe_degree + 2)
        zx = rng.randint(0, deg_x)
        zy = rng.randint(0, deg_y)
        x_term = Polynomial.monomial(
            (1, 0, zx, deg_x - zx), F(rng.randint(1, 5), rng.randint(1, 3))
        )
        y_term = Polynomial.monomial(
            (0, 2, zy, deg_y - zy), F(rng.randint(1, 5), rng.randint(1, 3))
        )
        cases.append((kind, base + x_term + y_term))
    return cases


def test_criterion_8_reduction_on_perturbations():
    start = time.monotonic()
    ok = True
    for kind, f in _perturbation_cases(seed=5, count=50):
        cert = reduce_to_normal_form(f)
        ok = ok and replay(f, cert) == cert.reduced
        ok = ok and cert.type == kind
        ok = ok and classify_type(cert.reduced) == kind
        for exps in cert.reduced.support():
            if exps[0]:
                ok = ok and exps == (2, 0, 0, 0)
    report(8, "normal-form reduction on perturbations", ok, time.monotonic() - start, 10.0)

"""`singular_torus_search` against a Gröbner-basis oracle.

g has a singular point on the torus of its variables iff the ideal
(g, dg/dx_1, ..., dg/dx_k, 1 - s*x_1*...*x_k) is not the unit ideal
(Rabinowitsch's trick), which sympy's `groebner` decides exactly.  The code
under test computes no Gröbner basis; it loads sympy at most to factor the
repeated factor of a degenerate edge.

The cases are seeded quasi-homogeneous faces of dimension 1 and 2 in 2 to 4
variables, planted degenerate faces (a squared factor times a unit, and a
singular point at a rational and at an irrational torus point), faces whose
first variables do not span the face's directions, and every face of the
seed-0 corpus diagrams that no monomial or binomial rule certifies.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
import sympy

from cdvdiv.newton import (
    DEGENERATE,
    NONDEGENERATE_CERTIFIED,
    UNDECIDED,
    _affine_rank,
    _rational_root,
    build_diagram,
    singular_torus_search,
)
from cdvdiv.pipeline import generate_corpus
from cdvdiv.poly import VARS, Polynomial, parse_polynomial

P = parse_polynomial
SYMBOLS = sympy.symbols(VARS)


@lru_cache(maxsize=None)
def torus_singular(g: Polynomial) -> bool:
    """Whether g has a singular point with every present variable nonzero."""
    present = [SYMBOLS[VARS.index(name)] for name in g.variables_present()]
    expr = sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(SYMBOLS, exps)))
            for exps, c in g.items()
        )
    )
    s = sympy.Symbol("s")
    ideal = [expr] + [sympy.diff(expr, x) for x in present]
    ideal.append(1 - s * sympy.Mul(*present))
    basis = sympy.groebner(ideal, *present, s, order="grevlex")
    return list(basis.exprs) != [1]


def dimension(g: Polynomial) -> int:
    return _affine_rank(g.support())


def needs_search(g: Polynomial) -> bool:
    """No monomial, binomial or single-monomial-partial rule applies."""
    if len(g) <= 2:
        return False
    present = g.variables_present()
    return all(len(g.derivative(i)) != 1 for i, name in enumerate(VARS) if name in present)


def lift(h: dict, directions, k: int, rng) -> Polynomial:
    """x^p0 * h(x^e1, x^e2) in the first k of z, t, y, x, with p0 making it a polynomial.

    h maps exponent pairs (a, b) (or singletons) to coefficients; the
    directions are integer vectors of length k.
    """
    order = [2, 3, 1, 0][:k]
    points = {}
    for ab, c in h.items():
        e = [sum(a * d[i] for a, d in zip(ab, directions)) for i in range(k)]
        points[tuple(e)] = c
    low = [min(e[i] for e in points) for i in range(k)]
    shift = [rng.randint(0, 2) - lo for lo in low]
    terms = {}
    for e, c in points.items():
        full = [0, 0, 0, 0]
        for i, pos in enumerate(order):
            full[pos] = e[i] + shift[i]
        terms[tuple(full)] = Fraction(c)
    return Polynomial(terms)


def random_directions(rng, d: int, k: int):
    while True:
        dirs = [tuple(rng.randint(-1, 2) for _ in range(k)) for _ in range(d)]
        padded = [(0, 0, 0, 0)] + [tuple(v) + (0,) * (4 - k) for v in dirs]
        if _affine_rank(padded) == d:
            return dirs


def random_coefficient(rng) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def seeded_faces():
    """Random quasi-homogeneous faces: (label, polynomial)."""
    rng = random.Random(2024)
    cases = []
    for index in range(36):
        d = 1 + index % 2
        k = rng.randint(max(2, d), 4)
        if d == 1:
            h = {(a,): random_coefficient(rng) for a in rng.sample(range(7), rng.randint(3, 5))}
        else:
            cells = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
            h = {ab: random_coefficient(rng) for ab in rng.sample(cells, rng.randint(3, 6))}
        g = lift(h, random_directions(rng, d, k), k, rng)
        cases.append((f"seeded {index} (d={d}, k={k})", g))
    return cases


def planted_faces():
    """Degenerate faces by construction, lifted into 2 to 4 variables."""
    rng = random.Random(7)
    unit1 = {(0,): 3, (1,): 1, (3,): 2}
    unit2 = {(0, 0): 5, (1, 1): 1, (0, 2): 1}
    cyclotomic = {(0,): 1, (1,): 1, (2,): 1}
    bases = [
        # (u - 2)^2 * (3 + u + 2u^3)
        ("square times a unit (d=1)", _mul({(0,): 4, (1,): -4, (2,): 1}, unit1)),
        # (u - 3v)^2 * (5 + uv + v^2)
        ("square times a unit (d=2)", _mul({(2, 0): 1, (1, 1): -6, (0, 2): 9}, unit2)),
        # (u - 2)^2 + 3u(v - 5)^2: singular at the rational point (2, 5)
        ("rational point (d=2)", {(2, 0): 1, (1, 0): -4 + 75, (0, 0): 4, (1, 2): 3, (1, 1): -30}),
        # (u^2 - 2)^2 + u(v - 1)^2: singular at (sqrt 2, 1)
        (
            "irrational point (d=2)",
            {(4, 0): 1, (2, 0): -4, (0, 0): 4, (1, 2): 1, (1, 1): -2, (1, 0): 1},
        ),
        # (u^2 + u + 1)^2 * (u + 7): a repeated irrational factor
        ("irrational square (d=1)", _mul(_mul(cyclotomic, cyclotomic), {(0,): 7, (1,): 1})),
    ]
    cases = []
    for label, h in bases:
        d = len(next(iter(h)))
        for k in range(max(2, d), 5):
            cases.append((f"{label}, k={k}", lift(h, random_directions(rng, d, k), k, rng)))
    return cases


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# Faces whose leading variables do not span the face's directions, so the
# variables kept for the slice cannot simply be the first d present ones.
OFFSET_FACES = [
    ("z fixed, squarefree", P("z*t^2 + z*t + z")),
    ("z fixed, square", P("z*t^2 - 2*z*t + z")),
    ("y fixed, 2-face", P("y*z^2 + 3*y*z*t + y*t^2 + y*z + y")),
    ("y fixed, singular 2-face", P("y*z^2 - 2*y*z + y + y*z*t^2 - 4*y*z*t + 4*y*z")),
    ("x, y fixed, 2-face", P("x^2*y*z^3 + x^2*y*t^2 + x^2*y*z*t + 2*x^2*y")),
]


def corpus_faces():
    """Faces of the seed-0 corpus diagrams that reach the search."""
    seen = {}
    for instance in generate_corpus(0):
        f = instance.polynomial
        diagram = build_diagram(f)
        for face in diagram.faces:
            g = Polynomial({v: f.coefficient(v) for v in face.lattice_points})
            if needs_search(g):
                seen.setdefault(g, f"{instance.label} face {face.lattice_points}")
    return [(label, g) for g, label in seen.items()]


CASES = seeded_faces() + planted_faces() + OFFSET_FACES + corpus_faces()


def assert_singular_torus_point(g: Polynomial, witness) -> None:
    """The witness is a torus point where g and its partials vanish exactly."""
    point = [Fraction(1)] * 4
    for name, value in zip(witness.variables, witness.point):
        assert value != 0, witness
        point[VARS.index(name)] = Fraction(value)
    assert g.evaluate(point) == 0, witness
    for i, name in enumerate(VARS):
        if name in g.variables_present():
            assert g.derivative(i).evaluate(point) == 0, witness


def check_agrees(g: Polynomial) -> None:
    """A definite verdict never contradicts the oracle, and d <= 2 decides.

    The dimension-1 test decides both ways; the dimension-2 test certifies
    every non-singular face here and leaves the singular ones undecided.
    """
    verdict = singular_torus_search(g)
    singular = torus_singular(g)
    assert verdict.status != "nondegenerate_probable", verdict.detail
    if verdict.status == NONDEGENERATE_CERTIFIED:
        assert not singular, verdict.detail
    if verdict.status == DEGENERATE:
        assert singular, verdict.detail
    if verdict.witness is not None:
        assert_singular_torus_point(g, verdict.witness)
    d = dimension(g)
    if d == 1 and needs_search(g):
        assert verdict.status == (DEGENERATE if singular else NONDEGENERATE_CERTIFIED)
    if d == 2:
        if singular:
            assert verdict.status in (UNDECIDED, DEGENERATE), verdict.detail
        else:
            assert verdict.status == NONDEGENERATE_CERTIFIED, verdict.detail


@pytest.mark.parametrize("label,g", CASES, ids=[label for label, _ in CASES])
def test_verdict_agrees_with_groebner(label, g):
    check_agrees(g)


def small_variable_cases():
    """Seeded polynomials in z alone or in z, t, not all quasi-homogeneous.

    Squared binomials times a unit, isolated singular points planted at
    integer points, squares of z - a times a unit in z, and sparse random
    polynomials, most of them non-singular.
    """
    rng = random.Random(11)
    cases = []
    for _ in range(4):
        a, b = rng.randint(2, 60), rng.randint(2, 60)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        unit = P(f"{rng.randint(1, 9)} + {rng.randint(1, 9)}*z*t + t^2")
        cases.append(P(f"{b ** n}*z^{m} - {a ** m}*t^{n}") ** 2 * unit)
        cases.append(P(f"z - {a}") ** 2 + P(f"{rng.randint(1, 9)}*z") * P(f"t - {b}") ** 2)
        cases.append(P(f"z - {a}") ** 2 * P(f"z^{rng.randint(1, 4)} + {rng.randint(1, 9)}"))
    for _ in range(6):
        k = rng.randint(1, 2)
        g = Polynomial.zero()
        for _ in range(rng.randint(3, 5)):
            exps = (0, 0) + tuple(rng.randint(0, 6) for _ in range(k)) + (0,) * (2 - k)
            coeff = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
            g = g + Polynomial.monomial(exps, coeff)
        cases.append(g)
    cases += [P("z^3 + t^3 + 1 + z*t"), P("z^2 + t^2 + 1"), P("z^5 + z + 1/3")]
    cases.append(P("z - 3*t") ** 2 * P("1 + z"))
    return cases


@pytest.mark.parametrize("g", small_variable_cases(), ids=str)
def test_small_variable_cases_agree_with_groebner(g):
    check_agrees(g)


def test_case_set_covers_the_claimed_shapes():
    dims = {}
    for _label, g in CASES:
        key = (dimension(g), len(g.variables_present()))
        dims[key] = dims.get(key, 0) + 1
    for d in (1, 2):
        for k in range(max(2, d), 5):
            assert dims.get((d, k), 0) >= 1, (d, k)
    singular = [label for label, g in planted_faces() if torus_singular(g)]
    assert len(singular) == len(planted_faces())
    corpus = corpus_faces()
    assert len(corpus) == 57
    assert sum(dimension(g) == 2 for _, g in corpus) == 15


def test_repeated_factor_without_a_witness_stays_degenerate():
    # (z^2 - 2t^2)^2 (z + 7t): the repeated factor has no rational root, so
    # there is no witness, and the exact test still names the square.
    g = (P("z^2 - 2*t^2") ** 2) * P("z + 7*t")
    verdict = singular_torus_search(g)
    assert verdict.status == DEGENERATE
    assert verdict.witness is None
    assert "repeated factor z^2 - 2" in verdict.detail


@pytest.mark.parametrize(
    "root", ["2", "-3", "1/4", "-5/3", "7/2", "9/8", "-100000000000000000000000000000001/3"]
)
@pytest.mark.parametrize("content", ["1", "x^2*y"])
def test_witness_is_the_rational_root_of_the_square(root, content):
    # (z - r t)^2 (z + 7t) times monomial content: the slice keeps z and sets
    # the other present variables to 1, so the witness sits at z = r.
    r = Fraction(root)
    linear = P(f"{r.denominator}*z") - P("t").scale(Fraction(r.numerator))
    g = P(content) * linear**2 * P("z + 7*t")
    verdict = singular_torus_search(g)
    assert verdict.status == DEGENERATE
    assert verdict.witness is not None
    assert_singular_torus_point(g, verdict.witness)
    expected = {name: Fraction(1) for name in g.variables_present()}
    expected["z"] = r
    assert dict(zip(verdict.witness.variables, verdict.witness.point)) == expected


def rational_root_cases(count=200, seed=5):
    """Seeded integer polynomials in u with p(0) != 0: products of powers of
    linear factors (some with 12-digit roots) and of quadratics."""
    rng = random.Random(seed)
    u = sympy.Symbol("u")
    cases = []
    while len(cases) < count:
        f = sympy.Poly(rng.choice([1, 2, -3]), u)
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                a = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 12))
                f *= sympy.Poly(rng.randint(1, 30) * u - a, u) ** rng.randint(1, 3)
            else:
                c = rng.choice([2, 3, 5, 7, -2, -3, 11])
                f *= sympy.Poly(u**2 + rng.randint(-20, 20) * u + c, u) ** rng.randint(1, 2)
        if f.eval(0) != 0:
            cases.append(f)
    return cases


def test_rational_root_agrees_with_sympy():
    # The roots of the linear factors over Q are all the rational roots.
    without = 0
    for poly in rational_root_cases():
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        content = sympy.igcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
        coeffs = [c // content for c in coeffs]
        roots = {
            Fraction(-int(factor.nth(0)), int(factor.nth(1)))
            for factor, _mult in poly.factor_list()[1]
            if factor.degree() == 1
        }
        got = _rational_root(coeffs)
        assert got in roots if roots else got is None, (poly, roots, got)
        without += not roots
    assert 0 < without < 200


def test_dimension_3_is_undecided():
    g = P("x^2*y + y^2*z + z^2*t + t^2*x")
    assert dimension(g) == 3 and needs_search(g)
    verdict = singular_torus_search(g)
    assert verdict.status == UNDECIDED and verdict.witness is None


def test_powers_of_u_are_stripped_from_the_resultants():
    # Res_t(h, h_t) = -4z^6 + 8z^3 - 8z^2 and Res_t(h, h_z) share z^2 only,
    # which is no torus point.
    g = P("2*z^3*t + 2*z^3 - 2*z^2 + t^2")
    assert not torus_singular(g)
    verdict = singular_torus_search(g)
    assert verdict.status == NONDEGENERATE_CERTIFIED
    assert verdict.detail.startswith("exact (dimension 2)")


def test_slice_keeps_variables_that_span_the_face():
    verdict = singular_torus_search(P("z*t^2 + z*t + z"))
    assert verdict.detail == "exact (dimension 1): h(t) = g at z = 1 is squarefree"
    verdict = singular_torus_search(P("x^2*y*z^3 + x^2*y*t^2 + x^2*y*z*t + 2*x^2*y"))
    assert verdict.detail.startswith("exact (dimension 2): h(z, t) = g at x, y = 1")


def test_diagram_loads_no_further_module(tmp_path):
    # cD_4 offset 0 draw 0 (seed 0): its face in y, z, t needs the
    # dimension-2 certificate.
    path = tmp_path / "f.txt"
    path.write_text("y^2*z + 5/4*y*t^2 + z^3 + 9/4*z*t^2 + 7/4*t^3 + x^2\n", encoding="utf-8")
    code = (
        "import io, sys, contextlib\n"
        "from cdvdiv.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    main(['diagram', '--input', {str(path)!r}, '--format', 'structured'])\n"
        "print(out.getvalue().count('exact (dimension 2)'))\n"
        "print('sympy' in sys.modules)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    certified, sympy_loaded, new = out.stdout.strip().splitlines()
    assert int(certified) >= 1
    assert sympy_loaded == "False"
    new_modules = eval(new)
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in new_modules), new_modules


def test_repeated_root_witness_loads_no_sympy():
    # 256z^4 - 96z^2t^2 + 32zt^3 - 3t^4 = (4z - t)^3 (4z + 3t): the repeated
    # factor 16z^2 - 8z + 1 of h(z) = g at t = 1 has the rational root 1/4.
    code = (
        "import sys\n"
        "from cdvdiv.newton import singular_torus_search\n"
        "from cdvdiv.poly import parse_polynomial\n"
        "g = parse_polynomial('256*z^4 - 96*z^2*t^2 + 32*z*t^3 - 3*t^4')\n"
        "verdict = singular_torus_search(g)\n"
        "print(verdict.status)\n"
        "print(dict(zip(verdict.witness.variables, map(str, verdict.witness.point))))\n"
        "print('sympy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    status, point, sympy_loaded = out.stdout.strip().splitlines()
    assert status == DEGENERATE
    assert eval(point) == {"z": "1/4", "t": "1"}
    assert sympy_loaded == "False"

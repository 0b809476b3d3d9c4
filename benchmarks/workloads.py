"""Seeded inputs, operations and output oracles for the four workloads.

Every input is generated here from the workload seed; nothing is read from
the repository's tests.  A workload is a list of inputs; one operation runs
one input through the program.  ``check`` is the oracle for one output and
runs outside the timed region; it returns the problems it found and the
exact correctness counts (probable, undecided, mod-p degenerate verdicts and
catalog disagreements) that the output contributes.

The program's functions are always reached through their module
(``normalform.reduce_to_normal_form``, ``cli.run``), so the tracing wrappers
installed by ``tracing.py`` see the calls.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from cdvdiv import catalog, cli, normalform, pipeline
from cdvdiv.normalform import ReductionError, SingularityType
from cdvdiv.poly import Polynomial, parse_polynomial, pretty

PROBABLE = "nondegenerate_probable"
DEGENERATE = "degenerate"
NON_RATIONAL = "non_rational"
UNDECIDED = "undecided"

COUNT_NAMES = (
    "probable_verdicts",
    "undecided_components",
    "modp_degenerate_verdicts",
    "catalog_disagreements",
)

# Corpus options of ``pipeline.run_corpus`` at the commit that defined this
# benchmark.
CORPUS_FACE_SAMPLES = 500
CORPUS_SCAN_PRIMES = (101,)


@dataclass
class Input:
    label: str
    op: str  # corpus (pipeline.analyze) | catalog | cli | reduce
    polynomial: Optional[Polynomial] = None
    type_label: str = ""  # expected singularity type, e.g. "cD_6"
    path: Optional[Path] = None
    facts: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Verdict:
    problems: List[str]
    counts: Counter


# ---------------------------------------------------------------------------
# Input families
# ---------------------------------------------------------------------------


def _coeff(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return value if rng.random() < 0.5 else -value


def corpus_family(seed: int) -> List[Tuple[str, Polynomial, str, Optional[int]]]:
    """The 108-instance cD_4..12 / cE6 / cE7 / cE8 family.

    A copy of ``cdvdiv.pipeline.generate_corpus``: three exponent offsets and
    three coefficient draws per configuration.  Returns
    (label, polynomial, kind, n) tuples.
    """
    rng = random.Random(seed)
    out = []
    for n in range(4, 13):
        for offset in range(3):
            for draw in range(3):
                terms = {
                    (2, 0, 0, 0): Fraction(1),
                    (0, 2, 1, 0): Fraction(1),
                    (0, 0, n - 1, 0): Fraction(1),
                    (0, 0, 0, n - 1 + offset): _coeff(rng),
                    (0, 0, n - 3, max(2, 2 + offset)) if n >= 5 else
                    (0, 0, 1, n - 2 + offset): _coeff(rng),
                    (0, 1, 0, (n + 1) // 2 + offset): _coeff(rng),
                }
                out.append((f"cD_{n} offset {offset} draw {draw}", Polynomial(terms), "cD", n))
    for offset in range(3):
        for draw in range(3):
            terms = {
                (2, 0, 0, 0): Fraction(1),
                (0, 3, 0, 0): Fraction(1),
                (0, 0, 4, 0): Fraction(1),
                (0, 0, 0, 4 + offset): _coeff(rng),
                (0, 0, 1, 3 + offset): _coeff(rng),
                (0, 0, 2, 2 + offset): _coeff(rng),
                (0, 1, 0, 3 + offset): _coeff(rng),
                (0, 1, 1, 2 + offset): _coeff(rng),
                (0, 1, 2, 1 + offset): _coeff(rng),
            }
            out.append((f"cE6 offset {offset} draw {draw}", Polynomial(terms), "cE6", None))
    for offset in range(3):
        for draw in range(3):
            k = 5 + offset
            terms = {
                (2, 0, 0, 0): Fraction(1),
                (0, 3, 0, 0): Fraction(1),
                (0, 1, 3, 0): Fraction(1),
                (0, 0, 0, 5 + offset): _coeff(rng),
                (0, 0, 1, 4 + offset): _coeff(rng),
                (0, 0, k, 0): _coeff(rng),
                (0, 1, 0, 4 + offset): _coeff(rng),
                (0, 1, 1, 3 + offset): _coeff(rng),
            }
            out.append((f"cE7 offset {offset} draw {draw}", Polynomial(terms), "cE7", None))
    for offset in range(3):
        for draw in range(3):
            terms = {
                (2, 0, 0, 0): Fraction(1),
                (0, 3, 0, 0): Fraction(1),
                (0, 0, 5, 0): Fraction(1),
                (0, 0, 0, 5 + offset): _coeff(rng),
                (0, 0, 1, 4 + offset): _coeff(rng),
                (0, 0, 2, 3 + offset): _coeff(rng),
                (0, 0, 3, 2 + offset): _coeff(rng),
                (0, 1, 0, 4 + offset): _coeff(rng),
                (0, 1, 1, 3 + offset): _coeff(rng),
                (0, 1, 2, 2 + offset): _coeff(rng),
                (0, 1, 3, 1 + offset): _coeff(rng),
            }
            out.append((f"cE8 offset {offset} draw {draw}", Polynomial(terms), "cE8", None))
    return out


def _type_label(kind: str, n: Optional[int]) -> str:
    return f"cD_{n}" if kind == "cD" else kind


def perturbation_family(seed: int, count: int) -> List[Tuple[str, Polynomial, str]]:
    """Normal forms plus an x-term and a y^2-term above the safe degree.

    The acceptance suite's criterion-8 family: every case must reduce back to
    its base type.  The shapes (base, degrees, exponents) come from
    SHAPE_SEED and the coefficients from `seed`.  Returns (label, polynomial,
    type label) tuples.
    """
    shape = random.Random(SHAPE_SEED)
    coeff = random.Random(seed)
    bases = []
    for n in range(4, 9):
        terms = {
            (2, 0, 0, 0): Fraction(1),
            (0, 2, 1, 0): Fraction(1),
            (0, 0, n - 1, 0): Fraction(1),
            (0, 0, 0, n - 1): Fraction(1),
        }
        bases.append((f"cD_{n}", Polynomial(terms), n))
    bases.append(("cE6", parse_polynomial("x^2 + y^3 + z^4 + t^4"), 5))
    bases.append(("cE7", parse_polynomial("x^2 + y^3 + y*z^3 + t^9"), 6))
    bases.append(("cE8", parse_polynomial("x^2 + y^3 + z^5 + t^15"), 6))
    cases = []
    while len(cases) < count:
        label, base, safe_degree = bases[shape.randrange(len(bases))]
        deg_x = shape.randint(safe_degree, safe_degree + 2)
        deg_y = shape.randint(safe_degree, safe_degree + 2)
        zx = shape.randint(0, deg_x)
        zy = shape.randint(0, deg_y)
        x_term = Polynomial.monomial(
            (1, 0, zx, deg_x - zx), Fraction(coeff.randint(1, 5), coeff.randint(1, 3))
        )
        y_term = Polynomial.monomial(
            (0, 2, zy, deg_y - zy), Fraction(coeff.randint(1, 5), coeff.randint(1, 3))
        )
        cases.append((f"perturbed {label} #{len(cases)}", base + x_term + y_term, label))
    return cases


EXTRA_TERM_BASES = (
    ("cD_6", "x^2 + y^2*z + z^5 + t^5"),
    ("cE6", "x^2 + y^3 + z^4 + t^4"),
    ("cE7", "x^2 + y^3 + y*z^3 + t^9"),
    ("cE8", "x^2 + y^3 + z^5 + t^15"),
)
EXTRA_TERM_COUNTS = (3, 5, 10, 20)
# Reduction cost depends on which monomials an input has far more than on
# their coefficients, so the shapes of the reduction inputs are drawn from
# this fixed seed and only the coefficients of the perturbation family from
# the workload seed: every seed then costs about the same.  The extra-term
# germs take their coefficients from this seed too (those of workload seed
# 0): their 5-term germs set the tail of the reduction times, and their cost
# moves by a tenth with the coefficients.
SHAPE_SEED = 0


def extra_terms(shape: random.Random, coeff: random.Random, count: int) -> Polynomial:
    """`count` distinct monomials of total degree 6..12 with random coefficients."""
    terms: Dict[Tuple[int, int, int, int], Fraction] = {}
    while len(terms) < count:
        d = shape.randint(6, 12)
        a, b, c = sorted(shape.randint(0, d) for _ in range(3))
        terms[(a, b - a, c - b, d - c)] = _coeff(coeff)
    return Polynomial(terms)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _catalog_types(tiny: bool) -> List[SingularityType]:
    kinds = [SingularityType("cD", n) for n in range(4, 13)]
    kinds += [SingularityType(k) for k in ("cE6", "cE7", "cE8")]
    return kinds[-1:] if tiny else kinds


def corpus_inputs(seed: int, tiny: bool) -> List[Input]:
    family = corpus_family(seed)
    if tiny:
        family = family[::36]
    inputs = [
        Input(label, "corpus", poly, _type_label(kind, n))
        for label, poly, kind, n in family
    ]
    for kind in _catalog_types(tiny):
        inputs.append(Input(f"catalog {kind.label()}", "catalog", type_label=kind.label()))
    return inputs


def worked_examples() -> List[Input]:
    """The paper's worked examples with the facts it states about them."""
    inputs = []
    for k in range(2, 7):
        inputs.append(
            Input(
                f"worked cD_{2 * k}",
                "cli",
                parse_polynomial(f"x^2 + y^2*z + z^{2 * k - 1} + t^{2 * k - 1}"),
                f"cD_{2 * k}",
                facts={"weight": [k, k - 1, 1, 1], "genus": k - 1, "hyperelliptic": True},
            )
        )
    inputs.append(
        Input(
            "worked cE7 t^9",
            "cli",
            parse_polynomial("x^2 + y^3 + y*z^3 + t^9"),
            "cE7",
            facts={"weight": [5, 3, 2, 1], "genus": 3, "hyperelliptic": False},
        )
    )
    inputs.append(
        Input(
            "worked cE8 t^15",
            "cli",
            parse_polynomial("x^2 + y^3 + z^5 + t^15"),
            "cE8",
            facts={"weight": [8, 5, 3, 1], "genus": 4, "hyperelliptic": False},
        )
    )
    return inputs


# Large-exponent germs of the analyze workload.  The exponents are fixed so
# that every seed costs the same; the seed draws the coefficients.
LARGE_GERMS = (
    [("cE8", "x^2 + y^3 + {a}*z^5 + {b}*t^%d" % n) for n in (16, 20, 24, 28)]
    + [("cD_%d" % n, "x^2 + y^2*z + {a}*z^%d + {b}*t^%d" % (n - 1, n - 1)) for n in range(13, 25)]
    + [("cE6", "x^2 + y^3 + {a}*z^4 + {b}*t^%d" % n) for n in range(6, 21, 2)]
    + [
        ("cE7", "x^2 + y^3 + y*z^3 + {a}*z^%d + {b}*t^%d" % (m, n))
        for m, n in ((7, 12), (7, 14), (8, 16), (8, 18), (9, 20), (9, 24))
    ]
)


def _positive_coeff(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def analyze_inputs(seed: int, tiny: bool) -> List[Input]:
    rng = random.Random(seed)
    inputs = worked_examples()
    for type_label, template in LARGE_GERMS:
        text = template.format(a=_positive_coeff(rng), b=_positive_coeff(rng))
        inputs.append(Input(f"{type_label} {text}", "cli", parse_polynomial(text), type_label))
    return inputs[:3] if tiny else inputs


def reduction_inputs(seed: int, tiny: bool) -> List[Input]:
    cases = perturbation_family(seed, 3 if tiny else 50)
    inputs = [Input(label, "reduce", poly, type_label) for label, poly, type_label in cases]
    shape = random.Random(SHAPE_SEED + 1)
    coeff = random.Random(SHAPE_SEED + 1)
    counts = EXTRA_TERM_COUNTS[:1] if tiny else EXTRA_TERM_COUNTS
    for type_label, text in EXTRA_TERM_BASES[: 2 if tiny else None]:
        base = parse_polynomial(text)
        for count in counts:
            inputs.append(
                Input(
                    f"{type_label} + {count} random terms",
                    "reduce",
                    base + extra_terms(shape, coeff, count),
                    type_label,
                )
            )
    return inputs


def diagram_inputs(seed: int, tiny: bool) -> List[Input]:
    family = corpus_family(seed)
    if tiny:
        family = family[::36]
    return [
        Input(label, "cli", poly, _type_label(kind, n)) for label, poly, kind, n in family
    ]


GENERATORS = {
    "corpus": corpus_inputs,
    "analyze": analyze_inputs,
    "reduction": reduction_inputs,
    "diagram": diagram_inputs,
}
CLI_COMMAND = {"analyze": "analyze", "diagram": "diagram"}


def generate(workload: str, seed: int, tiny: bool, directory: Path) -> List[Input]:
    """Inputs of one workload; CLI inputs are written to files in directory."""
    inputs = GENERATORS[workload](seed, tiny)
    for index, inp in enumerate(inputs):
        if inp.op == "cli":
            inp.path = directory / f"{workload}-{index:03d}.txt"
            inp.path.write_text(pretty(inp.polynomial) + "\n", encoding="utf-8")
    return inputs


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Runner:
    """Runs one input of a workload; ``seed`` is the program seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.corpus_options = pipeline.AnalyzeOptions(
            seed=seed,
            face_samples=CORPUS_FACE_SAMPLES,
            scan_primes=CORPUS_SCAN_PRIMES,
            check_faces=False,
        )

    def run(self, inp: Input) -> Any:
        if inp.op == "corpus":
            return pipeline.analyze(inp.polynomial, self.corpus_options)
        if inp.op == "catalog":
            kind = _parse_type(inp.type_label)
            return catalog.lemma_quadruples(kind), catalog.catalog_correspondence(kind)
        if inp.op == "reduce":
            return normalform.reduce_to_normal_form(inp.polynomial)
        out, err = io.StringIO(), io.StringIO()
        config = cli.RunConfig(
            command=CLI_COMMAND[self.workload],
            input_path=str(inp.path),
            seed=self.seed,
            output_format="structured",
        )
        status = cli.run(config, out, err)
        return status, out.getvalue(), err.getvalue()


# Exceptions that are the program's documented refusal for an input.  They
# count as failed operations but not as wrong output.
EXPECTED_ERRORS = {"reduction": (ReductionError,)}


def output_key(inp: Input, output: Any) -> Any:
    """A comparable summary; repeated runs of one input must agree on it."""
    if inp.op == "corpus":
        return _corpus_view(output)
    if inp.op == "catalog":
        quads, entries = output
        return [str(q) for q in quads], [(str(e.weight), e.status) for e in entries]
    if inp.op == "reduce":
        return output.type.label(), output.reduced, len(output.applied_changes)
    return output[0], output[1]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _parse_type(label: str) -> SingularityType:
    if label.startswith("cD_"):
        return SingularityType("cD", int(label[3:]))
    return SingularityType(label)


def _catalog(label: str) -> set:
    return {w.w for w in catalog.candidate_weights(_parse_type(label))}


def genus_bound(type_label: str, weight: Tuple[int, ...]) -> Tuple[int, bool]:
    """(largest genus allowed, hyperelliptic required) at a weight."""
    kind = _parse_type(type_label)
    if kind.kind == "cD":
        return kind.n // 2 - 1, True
    if kind.kind == "cE7" and weight == (5, 3, 2, 1):
        return 3, False
    if kind.kind == "cE8" and weight == (8, 5, 3, 1):
        return 4, False
    return 1, False


def _corpus_view(result) -> Tuple:
    """(type, non-rational count, violation, verdicts, components) of an
    AnalysisResult; verdicts are (status, exact witness) pairs."""
    verdicts = []
    comps = []
    for wr in result.weight_reports:
        verdicts.append(_verdict_pair(wr.face_verdict))
        for comp in wr.components:
            verdicts.append(_verdict_pair(comp.rationality.chart_verdict))
            comps.append(
                {
                    "weight": wr.weight.w,
                    "discrepancy": comp.discrepancy,
                    "rationality": comp.verdict,
                    "genus": comp.genus,
                    "hyperelliptic": comp.hyperelliptic,
                }
            )
    label = result.classification.label()
    return label, result.non_rational_count, result.uniqueness_violation, verdicts, comps


def _count_verdicts(verdicts: List[Optional[Tuple[str, Optional[bool]]]], counts: Counter) -> None:
    for verdict in verdicts:
        if verdict is None:
            continue
        status, exact = verdict
        if status == PROBABLE:
            counts["probable_verdicts"] += 1
        if status == DEGENERATE and exact is False:
            counts["modp_degenerate_verdicts"] += 1


def _tally(
    inp: Input,
    verdicts: List[Optional[Tuple[str, Optional[bool]]]],
    comps: List[Dict[str, Any]],
    problems: List[str],
    counts: Counter,
) -> List[Dict[str, Any]]:
    """Correctness counts for one analysis, and the genus bounds for corpus
    germs (the uniqueness suite's property; other germs report a weight
    outside the catalog as a catalog disagreement instead).

    verdicts are the (status, exact witness) pairs of every face and chart
    check; comps are the components.  Returns the non-rational
    discrepancy-1 components.
    """
    _count_verdicts(verdicts, counts)
    allowed = _catalog(inp.type_label)
    non_rational = []
    for comp in comps:
        if comp["rationality"] == UNDECIDED:
            counts["undecided_components"] += 1
        if comp["rationality"] != NON_RATIONAL or comp["discrepancy"] != 1:
            continue
        non_rational.append(comp)
        weight = tuple(comp["weight"])
        if weight not in allowed:
            counts["catalog_disagreements"] += 1
        if inp.op != "corpus":
            continue
        bound, need_hyper = genus_bound(inp.type_label, weight)
        genus = comp["genus"]
        if genus is not None and genus > bound:
            problems.append(f"{inp.label}: genus {genus} above bound {bound} at {weight}")
        if need_hyper and comp["hyperelliptic"] is False:
            problems.append(f"{inp.label}: expected a hyperelliptic base curve at {weight}")
    return non_rational


def _check_corpus(inp: Input, result) -> Verdict:
    problems: List[str] = []
    counts: Counter = Counter()
    label, count, violation, verdicts, comps = _corpus_view(result)
    if label != inp.type_label:
        problems.append(f"{inp.label}: classified as {label}, expected {inp.type_label}")
    non_rational = _tally(inp, verdicts, comps, problems, counts)
    if len(non_rational) != count:
        problems.append(f"{inp.label}: non-rational count disagrees with the reports")
    if count > 1 or violation:
        problems.append(f"{inp.label}: uniqueness violated ({count})")
    return Verdict(problems, counts)


def _verdict_pair(verdict) -> Optional[Tuple[str, Optional[bool]]]:
    if verdict is None:
        return None
    exact = verdict.witness.exact_over_rationals if verdict.witness is not None else None
    return verdict.status, exact


def _doc_pair(doc: Optional[Dict[str, Any]]) -> Optional[Tuple[str, Optional[bool]]]:
    if doc is None:
        return None
    witness = doc.get("witness")
    return doc["status"], (witness["exact_over_rationals"] if witness else None)


def _cd_families(n: int) -> set:
    fams = set()
    if n % 2 == 0:
        k = n // 2
        fams.add(_f(Fraction(2 * k - 1, k), Fraction(2 * k - 1, k - 1), 2 * k - 1, 2 * k - 1))
    else:
        k = (n - 1) // 2
        fams.add(_f(2, 2, 2 * k, 2 * k))
    for k in range(2, n):
        fams.add(_f(2, Fraction(2 * k, k - 1), k, 2 * k))
    return fams


def _f(*values) -> Tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


# The intercept quadruples of the paper's lemmas for the exceptional types.
PAPER_QUADRUPLES = {
    "cE6": {_f(2, 2, 4, 4), _f(2, 3, 3, 6), _f(2, "8/3", 4, 8), _f(2, 3, 4, 12)},
    "cE7": {
        _f(2, 2, 6, 6), _f(2, 3, 3, 6), _f(2, "8/3", 4, 8), _f("9/5", 3, "9/2", 9),
        _f(2, "5/2", 5, 10), _f(2, 3, 4, 12), _f(2, "14/5", "14/3", 14), _f(2, 3, "9/2", 18),
    },
    "cE8": {
        _f(2, 3, 3, 6), _f(2, "8/3", 4, 8), _f("9/5", 3, "9/2", 9), _f(2, 3, 4, 12),
        _f(2, "14/5", "14/3", 14), _f("15/8", 3, 5, 15), _f(2, 3, "9/2", 18),
        _f(2, 3, "24/5", 24), _f(2, 3, 5, 30),
    },
}


def _check_catalog(inp: Input, output) -> Verdict:
    quads, entries = output
    kind = _parse_type(inp.type_label)
    expected = _cd_families(kind.n) if kind.kind == "cD" else PAPER_QUADRUPLES[kind.kind]
    got = {q.intercepts for q in quads}
    problems = []
    if got != expected or len(quads) != len(expected):
        problems.append(f"{inp.label}: lemma quadruples differ from the paper's list")
    listed = {e.quadruple.intercepts for e in entries if e.status != "scan_surplus"}
    if listed != got:
        problems.append(f"{inp.label}: correspondence does not cover the quadruples")
    return Verdict(problems, Counter())


def _cli_document(inp: Input, output, problems: List[str]) -> Optional[Dict[str, Any]]:
    status, text, err = output
    if status != cli.EXIT_OK:
        problems.append(f"{inp.label}: exit status {status}: {err.strip()}")
    try:
        return json.loads(text)["report"]
    except (ValueError, KeyError):
        problems.append(f"{inp.label}: no structured report on stdout")
        return None


def _check_analyze_cli(inp: Input, output) -> Verdict:
    problems: List[str] = []
    counts: Counter = Counter()
    doc = _cli_document(inp, output, problems)
    if doc is None:
        return Verdict(problems, counts)
    if doc["classification"] != inp.type_label:
        problems.append(f"{inp.label}: classified as {doc['classification']}")
    verdicts = []
    comps = []
    for wdoc in doc["weights"]:
        verdicts.append(_doc_pair(wdoc.get("face_nondegeneracy")))
        for cdoc in wdoc["components"]:
            verdicts.append(_doc_pair(cdoc.get("chart_nondegeneracy")))
            comps.append(
                {
                    "weight": wdoc["weight"],
                    "discrepancy": cdoc["discrepancy"],
                    "rationality": cdoc["rationality"],
                    "genus": cdoc.get("genus"),
                    "hyperelliptic": cdoc.get("hyperelliptic"),
                }
            )
    non_rational = _tally(inp, verdicts, comps, problems, counts)
    uniqueness = doc["uniqueness"]
    if uniqueness["uniqueness_violation"] or len(non_rational) > 1:
        problems.append(f"{inp.label}: uniqueness violated")
    facts = inp.facts
    if facts:
        found = [c for c in non_rational if list(c["weight"]) == facts["weight"]]
        if not found:
            problems.append(f"{inp.label}: no non-rational component at {facts['weight']}")
        for comp in found:
            if comp["genus"] != facts["genus"]:
                problems.append(f"{inp.label}: genus {comp['genus']}, paper says {facts['genus']}")
            if comp["hyperelliptic"] is not facts["hyperelliptic"]:
                problems.append(f"{inp.label}: hyperelliptic is {comp['hyperelliptic']}")
    return Verdict(problems, counts)


def _check_diagram_cli(inp: Input, output) -> Verdict:
    problems: List[str] = []
    counts: Counter = Counter()
    doc = _cli_document(inp, output, problems)
    if doc is None:
        return Verdict(problems, counts)
    support = inp.polynomial.support()
    if not doc["faces"]:
        problems.append(f"{inp.label}: no faces")
    for face in doc["faces"]:
        w = face["witness"]
        points = {tuple(p) for p in face["lattice_points"]}
        values = [sum(a * b for a, b in zip(w, v)) for v in support]
        low = min(values)
        argmin = {v for v, value in zip(support, values) if value == low}
        if min(w) <= 0 or argmin != points:
            problems.append(f"{inp.label}: witness {w} does not cut out its face")
    _count_verdicts([_doc_pair(face["nondegeneracy"]) for face in doc["faces"]], counts)
    return Verdict(problems, counts)


def _check_reduction(inp: Input, cert) -> Verdict:
    problems = []
    if normalform.replay(inp.polynomial, cert) != cert.reduced:
        problems.append(f"{inp.label}: replaying the certificate does not give the reduced form")
    if cert.type.label() != inp.type_label:
        problems.append(f"{inp.label}: reduced to {cert.type.label()}, expected {inp.type_label}")
    for exps in cert.reduced.support():
        if exps[0] and exps != (2, 0, 0, 0):
            problems.append(f"{inp.label}: x survives outside x^2 in {exps}")
            break
    return Verdict(problems, Counter())


def check(workload: str, inp: Input, output: Any) -> Verdict:
    if inp.op == "corpus":
        return _check_corpus(inp, output)
    if inp.op == "catalog":
        return _check_catalog(inp, output)
    if inp.op == "reduce":
        return _check_reduction(inp, output)
    if workload == "analyze":
        return _check_analyze_cli(inp, output)
    return _check_diagram_cli(inp, output)

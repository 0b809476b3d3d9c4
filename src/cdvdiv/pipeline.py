"""End-to-end analysis: classify, reduce, enumerate, and report divisors.

analyze() chains the whole machinery: normal-form reduction, Newton diagram,
discrepancy-1 weight enumeration, component decomposition of each
exceptional surface, and the rationality cascade per component.  The
exceptional divisor of sigma_w is cut out by the face polynomial of w, so its
components and its non-degeneracy depend only on the compact face: weights
on one face share one factorization and one face check, while the
rationality verdicts, the discrepancy and the warnings stay per weight.

The result carries one report per component (plus per-weight bookkeeping for
weights whose face polynomial is purely toric) and a uniqueness summary: at
most one non-rational discrepancy-1 component may appear over a
non-degenerate cD/cE point, so a higher count is flagged as a diagnostic
rather than silently accepted.

run_corpus() drives the same pipeline over a seeded family of normal-form
instances (all cD_n for n in 4..12 and the three cE shapes, with exponent
offsets and random nonzero rational coefficients) and aggregates violations
of the uniqueness bound and of the per-type genus bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from cdvdiv.blowup import (
    ExceptionalSurface,
    Factorization,
    Weight,
    decompose_components,
    discrepancy,
    enumerate_weights,
)
from cdvdiv.catalog import candidate_weights
from cdvdiv.curvegeom import (
    NON_RATIONAL,
    RATIONAL,
    UNDECIDED,
    RationalityResult,
    classify_rationality,
)
from cdvdiv.newton import (
    DEGENERATE,
    NONDEGENERATE_CERTIFIED,
    UNDECIDED as UNDECIDED_FACE,
    FaceVerdict,
    NewtonDiagram,
    build_diagram,
    face_polynomial,
    singular_torus_search,
)
from cdvdiv.normalform import (
    NormalFormCertificate,
    ReductionError,
    SingularityType,
    check_origin,
    default_truncation,
    reduce_to_normal_form,
)
from cdvdiv.poly import VARS, Polynomial, parse_polynomial


@dataclass(frozen=True)
class AnalyzeOptions:
    truncation: Optional[int] = None
    check_faces: bool = True
    # Unused: every face verdict is exact.  benchmarks/workloads.py::Runner
    # still passes these three, so they stay until it stops.
    seed: int = 0
    face_samples: int = 20_000
    scan_primes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class DivisorReport:
    """One exceptional-divisor component of one discrepancy-1 weight."""

    weight: Weight
    multiplicity: int
    discrepancy: int
    face_polynomial: Polynomial
    face_dimension: int
    component: Polynomial
    rationality: RationalityResult
    warnings: Tuple[str, ...] = ()

    @property
    def genus(self) -> Optional[int]:
        return self.rationality.genus

    @property
    def hyperelliptic(self) -> Optional[bool]:
        return self.rationality.hyperelliptic

    @property
    def verdict(self) -> str:
        return self.rationality.verdict


@dataclass(frozen=True)
class WeightReport:
    weight: Weight
    support_value: int
    face_dimension: int
    surface: ExceptionalSurface
    face_verdict: Optional[FaceVerdict]
    components: Tuple[DivisorReport, ...]
    empty_reason: Optional[str] = None


@dataclass(frozen=True)
class AnalysisResult:
    input_polynomial: Polynomial
    classification: SingularityType
    certificate: Optional[NormalFormCertificate]
    analyzed_polynomial: Polynomial
    diagram: NewtonDiagram
    weight_reports: Tuple[WeightReport, ...]
    non_rational_count: int
    uniqueness_violation: bool
    warnings: Tuple[str, ...]

    def non_rational_reports(self) -> List[DivisorReport]:
        return [
            comp
            for wr in self.weight_reports
            for comp in wr.components
            if comp.verdict == NON_RATIONAL and comp.discrepancy == 1
        ]


def germ_weights(
    f: Polynomial, g: Optional[Polynomial] = None
) -> Tuple[NewtonDiagram, List[Weight]]:
    """The Newton diagram of g (f when None) and its discrepancy-1 weights,
    refusing an input f that is no isolated cDV germ.

    g is f or its normal form.  Raises ValueError when f is zero or has a
    nonzero constant term (`normalform.check_origin`), when the candidate
    weights are infinitely many, and, checked after the weights, when a
    variable occurs in no monomial of f, so that f and its partials vanish
    on that variable's whole axis.
    """
    check_origin(f)
    diagram = build_diagram(f if g is None else g)
    weights = enumerate_weights(diagram)
    present = f.variables_present()
    missing = [v for v in VARS if v not in present]
    if missing:
        raise ValueError(
            f"{missing[0]} occurs in no monomial, so the whole {missing[0]}-axis "
            "is singular: not an isolated cDV point"
        )
    return diagram, weights


def analyze(f: Polynomial, options: AnalyzeOptions = AnalyzeOptions()) -> AnalysisResult:
    """Full pipeline on one input polynomial.

    The face polynomial of each compact face that a discrepancy-1 weight
    minimizes is built once from the face's lattice points, factored once
    and, with `check_faces`, checked for non-degeneracy once; every weight on
    that face reuses them in its own ExceptionalSurface, while its
    rationality verdicts, discrepancies and face warnings are its own.

    Sub-operation failures (reduction, factorization) surface as per-weight
    warnings where possible; the input errors of `germ_weights` raise
    ValueError, a zero polynomial or nonzero constant term before the
    reduction.
    """
    check_origin(f)
    warnings: List[str] = []
    certificate: Optional[NormalFormCertificate] = None
    try:
        certificate = reduce_to_normal_form(f, options.truncation)
        classification = certificate.type
        g = certificate.reduced
        if not certificate.truncation_certified:
            warnings.append(
                f"truncation degree {certificate.truncation_degree} is not "
                "certified: the weights and faces of the truncated normal form "
                "may differ from the germ's"
            )
    except ReductionError as err:
        classification = err.germ_type
        g = f.truncate(options.truncation or default_truncation(f))
        if classification.kind in ("cD", "cE6", "cE7", "cE8"):
            warnings.append(f"normal-form reduction unavailable: {err}")
        elif classification.kind == "other":
            warnings.append(
                f"input is outside the certified cD/cE normal forms: {err}"
            )
    diagram, weights = germ_weights(f, g)
    reports: List[WeightReport] = []
    non_rational = 0
    # face polynomial, decomposition and verdict per compact face met so far
    by_face: Dict[tuple, Tuple[Polynomial, Factorization, Optional[FaceVerdict]]] = {}
    for w in weights:
        face = diagram.face_of_weight(w.w)
        face_dim = face.dimension if face is not None else -1
        key = face.lattice_points if face is not None else w.w
        if key not in by_face:
            equation = (
                g.restrict(face.lattice_points) if face is not None else face_polynomial(g, w.w)
            )
            by_face[key] = (
                equation,
                decompose_components(equation),
                singular_torus_search(equation) if options.check_faces else None,
            )
        equation, decomposition, face_verdict = by_face[key]
        surface = ExceptionalSurface(
            ambient_weights=w,
            equation=equation,
            constant=decomposition.constant,
            toric_content=decomposition.content,
            components=decomposition.components,
        )
        if face_verdict is not None:
            if face_verdict.status == DEGENERATE:
                warnings.append(
                    f"face polynomial of weight {w} is degenerate; "
                    "the classification hypotheses fail for this input"
                )
            elif face_verdict.status != NONDEGENERATE_CERTIFIED:
                warnings.append(
                    f"non-degeneracy of the face polynomial of weight {w} is "
                    "undecided; the classification hypotheses may fail for "
                    "this input"
                )
        components: List[DivisorReport] = []
        for comp, mult in surface.components:
            disc = discrepancy(diagram, w, mult)
            rationality = classify_rationality(comp, face_dim, w, classification.kind)
            comp_warnings = list(rationality.warnings)
            if mult > 1:
                comp_warnings.append(
                    f"multiplicity {mult} taken from the factor multiplicity "
                    "of the face polynomial"
                )
            report = DivisorReport(
                weight=w,
                multiplicity=mult,
                discrepancy=disc,
                face_polynomial=surface.equation,
                face_dimension=face_dim,
                component=comp,
                rationality=rationality,
                warnings=tuple(comp_warnings),
            )
            components.append(report)
            if report.verdict == NON_RATIONAL and disc == 1:
                non_rational += 1
        empty_reason = None
        if not components:
            empty_reason = (
                "face polynomial is a monomial: the exceptional locus meets "
                "only coordinate strata, no component centered at the origin"
                if face_dim == 0
                else "no non-monomial component"
            )
        reports.append(
            WeightReport(
                weight=w,
                support_value=w.sum() - 2,
                face_dimension=face_dim,
                surface=surface,
                face_verdict=face_verdict,
                components=tuple(components),
                empty_reason=empty_reason,
            )
        )
    in_scope = classification.kind in ("cD", "cE6", "cE7", "cE8")
    violation = in_scope and non_rational > 1
    if violation:
        warnings.append(
            f"{non_rational} non-rational discrepancy-1 components found; "
            "at most one is possible over a non-degenerate cD/cE point, so "
            "the input is degenerate or a pipeline invariant is broken"
        )
    return AnalysisResult(
        input_polynomial=f,
        classification=classification,
        certificate=certificate,
        analyzed_polynomial=g,
        diagram=diagram,
        weight_reports=tuple(reports),
        non_rational_count=non_rational,
        uniqueness_violation=violation,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Corpus generation and the uniqueness property suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusInstance:
    label: str
    polynomial: Polynomial
    kind: str
    n: Optional[int] = None

    def genus_bound(self, w: Weight) -> Tuple[Optional[int], bool]:
        """(max allowed genus or None, hyperelliptic required?) at weight w."""
        if self.kind == "cD":
            k = self.n // 2
            return k - 1, True
        if self.kind == "cE6":
            return 1, False
        if self.kind == "cE7":
            return (3, False) if w.w == (5, 3, 2, 1) else (1, False)
        if self.kind == "cE8":
            return (4, False) if w.w == (8, 5, 3, 1) else (1, False)
        return None, False


def _coeff(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return value if rng.random() < 0.5 else -value


# (kind, structural monomials besides x^2, random monomials at offset 0), in
# the order of the corpus; the offset raises a random monomial's last variable.
_CE_CORPUS_SHAPES = (
    (
        "cE6",
        ((0, 3, 0, 0), (0, 0, 4, 0)),
        ((0, 0, 0, 4), (0, 0, 1, 3), (0, 0, 2, 2), (0, 1, 0, 3), (0, 1, 1, 2), (0, 1, 2, 1)),
    ),
    (
        "cE7",
        ((0, 3, 0, 0), (0, 1, 3, 0)),
        ((0, 0, 0, 5), (0, 0, 1, 4), (0, 0, 5, 0), (0, 1, 0, 4), (0, 1, 1, 3)),
    ),
    (
        "cE8",
        ((0, 3, 0, 0), (0, 0, 5, 0)),
        ((0, 0, 0, 5), (0, 0, 1, 4), (0, 0, 2, 3), (0, 0, 3, 2),
         (0, 1, 0, 4), (0, 1, 1, 3), (0, 1, 2, 2), (0, 1, 3, 1)),
    ),
)


def generate_corpus(seed: int = 0) -> List[CorpusInstance]:
    """Seeded normal-form instances: cD_4..cD_12 and the cE shapes.

    Three exponent offsets and three coefficient draws per configuration
    give 108 deterministic instances.
    """
    rng = random.Random(seed)
    instances: List[CorpusInstance] = []
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
                instances.append(
                    CorpusInstance(
                        label=f"cD_{n} offset {offset} draw {draw}",
                        polynomial=Polynomial(terms),
                        kind="cD",
                        n=n,
                    )
                )
    for kind, structural, randoms in _CE_CORPUS_SHAPES:
        for offset in range(3):
            for draw in range(3):
                terms = {(2, 0, 0, 0): Fraction(1)}
                terms.update((exps, Fraction(1)) for exps in structural)
                for exps in randoms:
                    last = max(i for i, e in enumerate(exps) if e)
                    terms[tuple(e + offset * (i == last) for i, e in enumerate(exps))] = _coeff(rng)
                instances.append(
                    CorpusInstance(
                        label=f"{kind} offset {offset} draw {draw}",
                        polynomial=Polynomial(terms),
                        kind=kind,
                    )
                )
    return instances


@dataclass
class CorpusResult:
    """Property violations of a corpus run, and how decided its verdicts are.

    undecided_verdicts counts face and chart checks that no exact test
    settled; degenerate verdicts are split by whether they carry a witness.
    catalog_disagreements counts non-rational discrepancy-1 components whose
    weight is not in candidate_weights of the classified type; it is
    reported, not part of ok.
    """

    instances: int = 0
    max_non_rational: int = 0
    violations: int = 0
    genus_failures: List[str] = field(default_factory=list)
    classification_failures: List[str] = field(default_factory=list)
    undecided_verdicts: int = 0
    undecided_components: int = 0
    degenerate_exact_witness: int = 0
    degenerate_no_exact_witness: int = 0
    catalog_disagreements: int = 0

    def count_verdicts(self, analysis: "AnalysisResult") -> None:
        """Add the face and chart verdicts and undecided components of one analysis."""
        verdicts = []
        for wr in analysis.weight_reports:
            verdicts.append(wr.face_verdict)
            for comp in wr.components:
                verdicts.append(comp.rationality.chart_verdict)
                self.undecided_components += comp.verdict == UNDECIDED
        for verdict in verdicts:
            if verdict is None:
                continue
            self.undecided_verdicts += verdict.status == UNDECIDED_FACE
            if verdict.status == DEGENERATE:
                if verdict.witness is not None:
                    self.degenerate_exact_witness += 1
                else:
                    self.degenerate_no_exact_witness += 1

    def count_catalog_disagreements(self, analysis: "AnalysisResult") -> None:
        """Add the non-rational discrepancy-1 components outside the catalog."""
        kind = analysis.classification
        if kind.kind not in ("cD", "cE6", "cE7", "cE8"):
            return
        catalog = {w.w for w in candidate_weights(kind)}
        self.catalog_disagreements += sum(
            report.weight.w not in catalog for report in analysis.non_rational_reports()
        )

    @property
    def ok(self) -> bool:
        return (
            self.max_non_rational <= 1
            and self.violations == 0
            and not self.genus_failures
            and not self.classification_failures
        )


def run_corpus(seed: int = 0, options: Optional[AnalyzeOptions] = None) -> CorpusResult:
    """Analyze every corpus instance and aggregate property violations."""
    if options is None:
        options = AnalyzeOptions(check_faces=False)
    result = CorpusResult()
    for instance in generate_corpus(seed):
        analysis = analyze(instance.polynomial, options)
        result.instances += 1
        result.count_verdicts(analysis)
        result.count_catalog_disagreements(analysis)
        count = analysis.non_rational_count
        result.max_non_rational = max(result.max_non_rational, count)
        if analysis.uniqueness_violation:
            result.violations += 1
        if analysis.classification.kind != instance.kind:
            result.classification_failures.append(
                f"{instance.label}: classified as "
                f"{analysis.classification.label()}"
            )
        for report in analysis.non_rational_reports():
            bound, need_hyper = instance.genus_bound(report.weight)
            if bound is not None and report.genus is not None:
                if report.genus > bound:
                    result.genus_failures.append(
                        f"{instance.label}: genus {report.genus} above bound "
                        f"{bound} at weight {report.weight}"
                    )
                if need_hyper and report.hyperelliptic is False:
                    result.genus_failures.append(
                        f"{instance.label}: expected hyperelliptic base curve "
                        f"at weight {report.weight}"
                    )
    return result


def analyze_text(text: str, options: AnalyzeOptions = AnalyzeOptions()) -> AnalysisResult:
    """Convenience wrapper: parse then analyze."""
    return analyze(parse_polynomial(text), options)

"""Exceptional divisors of weighted blowups over cDV hypersurface points.

The package takes a polynomial f(x, y, z, t) defining a 3-fold hypersurface
singularity at the origin, classifies its compound Du Val type, and studies
the weighted blowups whose exceptional divisor has discrepancy 1: which of
them carry a non-rational component, and what the genus of the base curve of
each cone-shaped component is.  All arithmetic is exact (rational numbers and
integer lattice geometry); nothing in the mathematical core uses floats.
"""

from cdvdiv.poly import (
    ExponentVector,
    ParseError,
    Polynomial,
    Substitution,
    apply_substitution,
    parse_polynomial,
)
from cdvdiv.newton import (
    Face,
    FaceVerdict,
    NewtonDiagram,
    build_diagram,
    check_nondegeneracy,
    face_polynomial,
    support_value,
)
from cdvdiv.blowup import (
    ExceptionalSurface,
    Factorization,
    UnboundedWeightsError,
    Weight,
    decompose_components,
    discrepancy,
    enumerate_weights,
    exceptional_surface,
)
from cdvdiv.curvegeom import (
    ConeStructure,
    LatticePolygon,
    chart_polynomial,
    classify_rationality,
    detect_cone,
    is_hyperelliptic,
    polygon_genus,
)
from cdvdiv.normalform import (
    NormalFormCertificate,
    ReductionError,
    SingularityType,
    classify_type,
    reduce_to_normal_form,
)
from cdvdiv.catalog import (
    Quadruple,
    candidate_weights,
    catalog_correspondence,
    lemma_quadruples,
)
from cdvdiv.pipeline import (
    AnalyzeOptions,
    AnalysisResult,
    DivisorReport,
    analyze,
    generate_corpus,
    run_corpus,
)

__all__ = [
    "AnalysisResult",
    "AnalyzeOptions",
    "ConeStructure",
    "DivisorReport",
    "ExceptionalSurface",
    "ExponentVector",
    "Face",
    "FaceVerdict",
    "Factorization",
    "LatticePolygon",
    "NewtonDiagram",
    "NormalFormCertificate",
    "ParseError",
    "Polynomial",
    "Quadruple",
    "ReductionError",
    "SingularityType",
    "Substitution",
    "UnboundedWeightsError",
    "Weight",
    "analyze",
    "apply_substitution",
    "build_diagram",
    "candidate_weights",
    "catalog_correspondence",
    "chart_polynomial",
    "check_nondegeneracy",
    "classify_rationality",
    "classify_type",
    "decompose_components",
    "detect_cone",
    "discrepancy",
    "enumerate_weights",
    "exceptional_surface",
    "face_polynomial",
    "generate_corpus",
    "is_hyperelliptic",
    "lemma_quadruples",
    "parse_polynomial",
    "polygon_genus",
    "reduce_to_normal_form",
    "run_corpus",
    "support_value",
]

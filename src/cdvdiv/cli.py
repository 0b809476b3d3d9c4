"""Command-line interface.

Commands:
  classify  - cDV type of the input polynomial
  diagram   - Newton diagram vertices, compact faces, non-degeneracy verdicts
  weights   - table of discrepancy-1 weights
  analyze   - full divisor reports plus the uniqueness summary
  lemmas    - intercept quadruples and the weight catalog for a named type
  corpus    - seeded uniqueness/genus property suite over normal forms

The structured format is a single JSON document (schema_version "2") per
run; the text format renders the same facts.  The only randomness is the
`corpus` family, seeded by --seed, so reports are byte-identical across
runs with equal configuration.  Exit status: 0 success, 2 input error, 3
when analyze detects a uniqueness violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from cdvdiv.blowup import Weight
from cdvdiv.catalog import candidate_weights, catalog_correspondence, lemma_quadruples
from cdvdiv.newton import build_diagram, check_nondegeneracy
from cdvdiv.normalform import SingularityType
from cdvdiv.pipeline import AnalyzeOptions, analyze, run_corpus
from cdvdiv.poly import ParseError, Polynomial, parse_polynomial, pretty

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VIOLATION = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: Optional[str] = None
    truncation: Optional[int] = None
    seed: int = 0
    output_format: str = "text"
    type_name: Optional[str] = None

    def __post_init__(self):
        if self.output_format not in ("text", "structured"):
            raise ValueError("format must be 'text' or 'structured'")


class InputError(Exception):
    pass


def _load_polynomial(config: RunConfig) -> Polynomial:
    if not config.input_path:
        raise InputError("this command needs --input PATH")
    path = Path(config.input_path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise InputError(f"input file is empty: {path}")
    try:
        return parse_polynomial(text)
    except ParseError as err:
        raise InputError(f"cannot parse {path}: {err}") from err


def _parse_type(name: Optional[str]) -> SingularityType:
    if not name:
        raise InputError("this command needs --type cD:N | cE6 | cE7 | cE8")
    if name.startswith("cD:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError as err:
            raise InputError(f"bad cD parameter in {name!r}") from err
        try:
            return SingularityType("cD", n)
        except ValueError as err:
            raise InputError(str(err)) from err
    if name in ("cE6", "cE7", "cE8"):
        return SingularityType(name)
    raise InputError(f"unknown type {name!r}; use cD:N, cE6, cE7 or cE8")


# -- JSON-friendly serialization --------------------------------------------


def _frac(q: Fraction) -> str:
    return str(q)


def _weight(w: Weight) -> List[int]:
    return list(w.w)


def _polygon(polygon) -> Dict[str, Any]:
    return {
        "vertices": [list(p) for p in polygon.vertices],
        "interior_points": [list(p) for p in polygon.interior_points],
        "boundary_count": polygon.boundary_count,
        "doubled_area": polygon.doubled_area,
    }


def _verdict(verdict) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"status": verdict.status, "detail": verdict.detail}
    if verdict.witness is not None:
        doc["witness"] = {
            "variables": list(verdict.witness.variables),
            "point": [_frac(c) for c in verdict.witness.point],
            "exact_over_rationals": verdict.witness.exact_over_rationals,
        }
    return doc


def _certificate_doc(certificate) -> Optional[Dict[str, Any]]:
    if certificate is None:
        return None
    return {
        "type": certificate.type.label(),
        "reduced": pretty(certificate.reduced),
        "change_count": len(certificate.applied_changes),
        "changes": [sub.describe() for sub in certificate.applied_changes],
        "truncation_degree": certificate.truncation_degree,
        "s_max": None if certificate.s_max is None else _frac(certificate.s_max),
        "truncation_certified": certificate.truncation_certified,
        "constraints": [
            {"name": check.name, "holds": check.holds}
            for check in certificate.satisfied_constraints
        ],
        "notes": list(certificate.notes),
    }


def _analysis_doc(result) -> Dict[str, Any]:
    weight_docs = []
    for wr in result.weight_reports:
        entry: Dict[str, Any] = {
            "weight": _weight(wr.weight),
            "support_value": wr.support_value,
            "face_dimension": wr.face_dimension,
            "face_polynomial": pretty(wr.surface.equation),
            "toric_content": list(wr.surface.toric_content),
            "constant": _frac(wr.surface.constant),
        }
        if wr.face_verdict is not None:
            entry["face_nondegeneracy"] = _verdict(wr.face_verdict)
        if wr.empty_reason:
            entry["note"] = wr.empty_reason
            entry["rationality"] = "rational"
        comps = []
        for comp in wr.components:
            r = comp.rationality
            cdoc: Dict[str, Any] = {
                "equation": pretty(comp.component),
                "multiplicity": comp.multiplicity,
                "discrepancy": comp.discrepancy,
                "rationality": r.verdict,
                "rule": r.rule,
            }
            if r.cone is not None:
                cdoc["cone"] = {
                    "missing_variable": r.cone.missing_variable,
                    "base_variables": list(r.cone.base_variables),
                    "base_weights": list(r.cone.base_weights),
                }
            if r.chart is not None:
                cdoc["chart"] = pretty(r.chart)
                cdoc["chart_variables"] = list(r.chart_variables)
            if r.polygon is not None:
                cdoc["polygon"] = _polygon(r.polygon)
            if r.genus is not None:
                cdoc["genus"] = r.genus
                cdoc["hyperelliptic"] = r.hyperelliptic
                if r.hyperelliptic_by_convention:
                    cdoc["hyperelliptic_by_convention"] = True
            if r.chart_verdict is not None:
                cdoc["chart_nondegeneracy"] = _verdict(r.chart_verdict)
            if comp.warnings:
                cdoc["warnings"] = list(comp.warnings)
            comps.append(cdoc)
        entry["components"] = comps
        weight_docs.append(entry)
    return {
        "input": pretty(result.input_polynomial),
        "classification": result.classification.label(),
        "normal_form": _certificate_doc(result.certificate),
        "diagram": {
            "vertices": [list(v) for v in result.diagram.vertices],
            "face_count": len(result.diagram.faces),
            "faces_by_dimension": {
                str(d): sum(1 for f in result.diagram.faces if f.dimension == d)
                for d in range(4)
            },
        },
        "weights": weight_docs,
        "uniqueness": {
            "non_rational_discrepancy_one": result.non_rational_count,
            "uniqueness_violation": result.uniqueness_violation,
        },
        "warnings": list(result.warnings),
    }


# -- commands ----------------------------------------------------------------


def _cmd_classify(config: RunConfig) -> Dict[str, Any]:
    f = _load_polynomial(config)
    try:
        from cdvdiv.normalform import classify_type

        sig = classify_type(f, config.truncation)
    except ValueError as err:
        raise InputError(str(err)) from err
    return {"input": pretty(f), "type": sig.label()}


def _cmd_diagram(config: RunConfig) -> Dict[str, Any]:
    f = _load_polynomial(config)
    try:
        diagram = build_diagram(f)
    except ValueError as err:
        raise InputError(str(err)) from err
    verdicts = check_nondegeneracy(diagram)
    return {
        "input": pretty(f),
        "vertices": [list(v) for v in diagram.vertices],
        "faces": [
            {
                "dimension": face.dimension,
                "lattice_points": [list(p) for p in face.lattice_points],
                "witness": list(face.witness),
                "nondegeneracy": _verdict(verdict),
            }
            for face, verdict in verdicts
        ],
    }


def _cmd_weights(config: RunConfig) -> Dict[str, Any]:
    f = _load_polynomial(config)
    from cdvdiv.blowup import enumerate_weights
    from cdvdiv.newton import support_value

    try:
        diagram = build_diagram(f)
        weights = enumerate_weights(diagram)
    except ValueError as err:
        raise InputError(str(err)) from err
    return {
        "input": pretty(f),
        "weights": [
            {
                "weight": _weight(w),
                "support_value": support_value(diagram, w.w),
                "discrepancy": 1,
            }
            for w in weights
        ],
    }


def _cmd_analyze(config: RunConfig) -> Dict[str, Any]:
    f = _load_polynomial(config)
    try:
        result = analyze(f, AnalyzeOptions(truncation=config.truncation))
    except ValueError as err:
        raise InputError(str(err)) from err
    return _analysis_doc(result)


def _cmd_lemmas(config: RunConfig) -> Dict[str, Any]:
    kind = _parse_type(config.type_name)
    quads = lemma_quadruples(kind)
    correspondence = catalog_correspondence(kind)
    return {
        "type": kind.label(),
        "quadruples": [
            {
                "intercepts": [_frac(q) for q in quad.intercepts],
                "m": quad.m,
                "weight": _weight(quad.derived_weight()),
            }
            for quad in quads
        ],
        "weights": [_weight(w) for w in candidate_weights(kind)],
        "correspondence": [
            {
                "quadruple": [_frac(q) for q in entry.quadruple.intercepts],
                "weight": _weight(entry.weight),
                "status": entry.status,
                "note": entry.note,
            }
            for entry in correspondence
        ],
    }


def _cmd_corpus(config: RunConfig) -> Dict[str, Any]:
    result = run_corpus(seed=config.seed)
    return {
        "instances": result.instances,
        "max_non_rational_per_instance": result.max_non_rational,
        "uniqueness_violations": result.violations,
        "genus_failures": result.genus_failures,
        "classification_failures": result.classification_failures,
        "ok": result.ok,
        "undecided_verdicts": result.undecided_verdicts,
        "undecided_components": result.undecided_components,
        "degenerate_verdicts": {
            "exact_witness": result.degenerate_exact_witness,
            "no_exact_witness": result.degenerate_no_exact_witness,
        },
    }


# -- rendering ----------------------------------------------------------------


def _render_text(command: str, doc: Dict[str, Any], out) -> None:
    if command == "classify":
        out.write(f"{doc['type']}\n")
        return
    if command == "diagram":
        out.write(f"input: {doc['input']}\n")
        out.write("vertices: " + " ".join(str(tuple(v)) for v in doc["vertices"]) + "\n")
        for face in doc["faces"]:
            pts = " ".join(str(tuple(p)) for p in face["lattice_points"])
            nd = face["nondegeneracy"]["status"]
            out.write(
                f"face dim {face['dimension']} witness {tuple(face['witness'])} "
                f"[{nd}]: {pts}\n"
            )
        return
    if command == "weights":
        out.write(f"input: {doc['input']}\n")
        for w in doc["weights"]:
            out.write(
                f"w = {tuple(w['weight'])}  w(f) = {w['support_value']}  "
                f"discrepancy = {w['discrepancy']}\n"
            )
        if not doc["weights"]:
            out.write("no discrepancy-1 weights\n")
        return
    if command == "analyze":
        out.write(f"input: {doc['input']}\n")
        out.write(f"type: {doc['classification']}\n")
        nf = doc["normal_form"]
        if nf:
            out.write(
                f"normal form ({nf['change_count']} changes): {nf['reduced']}\n"
            )
        for w in doc["weights"]:
            out.write(
                f"weight {tuple(w['weight'])}: face dim {w['face_dimension']}, "
                f"{w['face_polynomial']}\n"
            )
            if w.get("note"):
                out.write(f"  [{w['rationality']}] {w['note']}\n")
            for comp in w["components"]:
                line = (
                    f"  component {comp['equation']} (m={comp['multiplicity']}, "
                    f"a={comp['discrepancy']}): {comp['rationality']}"
                )
                if "genus" in comp:
                    line += f", genus {comp['genus']}"
                    line += ", hyperelliptic" if comp["hyperelliptic"] else ", non-hyperelliptic"
                out.write(line + f"  [{comp['rule']}]\n")
        uniq = doc["uniqueness"]
        out.write(
            f"non-rational discrepancy-1 components: "
            f"{uniq['non_rational_discrepancy_one']}\n"
        )
        if uniq["uniqueness_violation"]:
            out.write("UNIQUENESS VIOLATION DIAGNOSTIC\n")
        for warning in doc["warnings"]:
            out.write(f"warning: {warning}\n")
        return
    if command == "lemmas":
        out.write(f"type: {doc['type']}\n")
        for quad in doc["quadruples"]:
            out.write(
                "(" + ", ".join(quad["intercepts"]) + f")  m = {quad['m']}  "
                f"w = {tuple(quad['weight'])}\n"
            )
        out.write(
            "catalog weights: "
            + " ".join(str(tuple(w)) for w in doc["weights"])
            + "\n"
        )
        for entry in doc["correspondence"]:
            note = f"  ({entry['note']})" if entry["note"] else ""
            out.write(
                f"({', '.join(entry['quadruple'])}) -> {tuple(entry['weight'])}: "
                f"{entry['status']}{note}\n"
            )
        return
    if command == "corpus":
        out.write(f"instances: {doc['instances']}\n")
        out.write(
            f"max non-rational per instance: {doc['max_non_rational_per_instance']}\n"
        )
        out.write(f"uniqueness violations: {doc['uniqueness_violations']}\n")
        degenerate = doc["degenerate_verdicts"]
        out.write(
            f"undecided verdicts: {doc['undecided_verdicts']}, undecided components: "
            f"{doc['undecided_components']}, degenerate verdicts: "
            f"{degenerate['exact_witness']} with an exact witness, "
            f"{degenerate['no_exact_witness']} without\n"
        )
        for failure in doc["genus_failures"] + doc["classification_failures"]:
            out.write(f"failure: {failure}\n")
        out.write("ok\n" if doc["ok"] else "FAILED\n")
        return
    raise ValueError(f"unknown command {command!r}")


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one command; returns the process exit status."""
    out = out or sys.stdout
    err = err or sys.stderr
    handlers = {
        "classify": _cmd_classify,
        "diagram": _cmd_diagram,
        "weights": _cmd_weights,
        "analyze": _cmd_analyze,
        "lemmas": _cmd_lemmas,
        "corpus": _cmd_corpus,
    }
    handler = handlers.get(config.command)
    if handler is None:
        err.write(f"unknown command: {config.command}\n")
        return EXIT_INPUT_ERROR
    try:
        doc = handler(config)
    except InputError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "seed": config.seed,
        "report": doc,
    }
    if config.output_format == "structured":
        json.dump(document, out, indent=2)
        out.write("\n")
    else:
        _render_text(config.command, doc, out)
    if config.command == "analyze" and doc["uniqueness"]["uniqueness_violation"]:
        err.write("diagnostic: uniqueness violation (degenerate input or bug)\n")
        return EXIT_VIOLATION
    if config.command == "corpus" and not doc["ok"]:
        err.write("diagnostic: corpus property suite failed\n")
        return EXIT_VIOLATION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdvdiv",
        description=(
            "Classify cDV hypersurface singularities and their non-rational "
            "discrepancy-1 weighted blowups."
        ),
    )
    parser.add_argument(
        "command",
        choices=["classify", "diagram", "weights", "analyze", "lemmas", "corpus"],
    )
    parser.add_argument("--input", dest="input_path", help="polynomial file (UTF-8)")
    parser.add_argument(
        "--truncation",
        type=int,
        help="reduce at this total degree only (default: the smallest degree "
        "whose S_max certificate holds, at most 2*deg+4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the `corpus` family (default 0)"
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=["text", "structured"],
        default="text",
        help="text (default) or structured JSON",
    )
    parser.add_argument(
        "--type",
        dest="type_name",
        help="singularity type for `lemmas`: cD:N, cE6, cE7 or cE8",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input_path,
        truncation=args.truncation,
        seed=args.seed,
        output_format=args.output_format,
        type_name=args.type_name,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

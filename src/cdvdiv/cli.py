"""Command-line interface.

Commands:
  classify  - cDV type of the input polynomial
  diagram   - Newton diagram vertices, compact faces, non-degeneracy verdicts
  weights   - table of discrepancy-1 weights
  analyze   - full divisor reports plus the uniqueness summary
  lemmas    - intercept quadruples and the weight catalog for a named type
  corpus    - seeded uniqueness/genus property suite over normal forms

The structured format is a single JSON document (schema_version "2") per
run: exactly the text `json.dumps(document, indent=2)` would produce,
written by this module's own encoder (`_json_text`), since `indent` makes
the standard library fall back from its C encoder to a slower pure-Python
one.  The text format renders the same facts.  The only randomness is the
`corpus` family, seeded by --seed, so reports are byte-identical across
runs with equal configuration.  Exit status: 0 success, 2 input error, 3
when analyze detects a uniqueness violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from cdvdiv.catalog import candidate_weights, catalog_correspondence, lemma_quadruples
from cdvdiv.newton import build_diagram, check_nondegeneracy, support_value
from cdvdiv.normalform import SingularityType, classify_type
from cdvdiv.pipeline import AnalyzeOptions, analyze, germ_weights, run_corpus
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
    try:
        text = path.read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from err
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


def _polygon(polygon) -> Dict[str, Any]:
    return {
        "vertices": polygon.vertices,
        "interior_points": polygon.interior_points,
        "boundary_count": polygon.boundary_count,
        "doubled_area": polygon.doubled_area,
    }


def _verdict(verdict) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"status": verdict.status, "detail": verdict.detail}
    if verdict.witness is not None:
        doc["witness"] = {
            "variables": verdict.witness.variables,
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
        "notes": certificate.notes,
    }


def _analysis_doc(result) -> Dict[str, Any]:
    weight_docs = []
    for wr in result.weight_reports:
        entry: Dict[str, Any] = {
            "weight": wr.weight.w,
            "support_value": wr.support_value,
            "face_dimension": wr.face_dimension,
            "face_polynomial": pretty(wr.surface.equation),
            "toric_content": wr.surface.toric_content,
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
                    "base_variables": r.cone.base_variables,
                    "base_weights": r.cone.base_weights,
                }
            if r.chart is not None:
                cdoc["chart"] = pretty(r.chart)
                cdoc["chart_variables"] = r.chart_variables
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
                cdoc["warnings"] = comp.warnings
            comps.append(cdoc)
        entry["components"] = comps
        weight_docs.append(entry)
    return {
        "input": pretty(result.input_polynomial),
        "classification": result.classification.label(),
        "normal_form": _certificate_doc(result.certificate),
        "diagram": {
            "vertices": result.diagram.vertices,
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
        "warnings": result.warnings,
    }


# -- commands ----------------------------------------------------------------


def _cmd_classify(config: RunConfig) -> Dict[str, Any]:
    f = _load_polynomial(config)
    try:
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
        "vertices": diagram.vertices,
        "faces": [
            {
                "dimension": face.dimension,
                "lattice_points": face.lattice_points,
                "witness": face.witness,
                "nondegeneracy": _verdict(verdict),
            }
            for face, verdict in verdicts
        ],
    }


def _cmd_weights(config: RunConfig) -> Dict[str, Any]:
    f = _load_polynomial(config)
    try:
        diagram, weights = germ_weights(f)
    except ValueError as err:
        raise InputError(str(err)) from err
    return {
        "input": pretty(f),
        "weights": [
            {
                "weight": w.w,
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
                "weight": quad.derived_weight().w,
            }
            for quad in quads
        ],
        "weights": [w.w for w in candidate_weights(kind)],
        "correspondence": [
            {
                "quadruple": [_frac(q) for q in entry.quadruple.intercepts],
                "weight": entry.weight.w,
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
        "catalog_disagreements": result.catalog_disagreements,
    }


# -- rendering ----------------------------------------------------------------

_INT = frozenset((int,))


def _json_text(value: Any, newline: str, points: Dict[Tuple[tuple, str], str]) -> str:
    """The text `json.dumps(value, indent=2)` gives for value, nested at the
    depth of newline ("\n" and two spaces per level).

    Takes dicts with str keys, lists, tuples, str, int, bool and None, and
    raises TypeError on anything else (encode_basestring_ascii refuses a
    key that is not a str).  A tuple of ints (a lattice point, weight or
    witness) is rendered once per depth and kept in points; its elements'
    types are checked first, since 1 == True == Fraction(1).
    """
    if isinstance(value, tuple):
        if set(map(type, value)) == _INT:
            key = (value, newline)
            text = points.get(key)
            if text is None:
                inner = newline + "  "
                text = points[key] = (
                    "[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]"
                )
            return text
        value = list(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, inner, points)
            for key, item in value.items()
        ]
    elif isinstance(value, list):
        brackets = "[]"
        items = [_json_text(item, inner, points) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _render_text(command: str, doc: Dict[str, Any], out) -> None:
    if command == "classify":
        out.write(f"{doc['type']}\n")
        return
    if command == "diagram":
        out.write(f"input: {doc['input']}\n")
        out.write("vertices: " + " ".join(str(v) for v in doc["vertices"]) + "\n")
        for face in doc["faces"]:
            pts = " ".join(str(p) for p in face["lattice_points"])
            nd = face["nondegeneracy"]["status"]
            out.write(
                f"face dim {face['dimension']} witness {face['witness']} "
                f"[{nd}]: {pts}\n"
            )
        return
    if command == "weights":
        out.write(f"input: {doc['input']}\n")
        for w in doc["weights"]:
            out.write(
                f"w = {w['weight']}  w(f) = {w['support_value']}  "
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
                f"weight {w['weight']}: face dim {w['face_dimension']}, "
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
                f"w = {quad['weight']}\n"
            )
        out.write(
            "catalog weights: "
            + " ".join(str(w) for w in doc["weights"])
            + "\n"
        )
        for entry in doc["correspondence"]:
            note = f"  ({entry['note']})" if entry["note"] else ""
            out.write(
                f"({', '.join(entry['quadruple'])}) -> {entry['weight']}: "
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
        out.write(f"catalog disagreements: {doc['catalog_disagreements']}\n")
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
    if config.truncation is not None and config.truncation < 1:
        err.write(f"error: --truncation must be at least 1, not {config.truncation}\n")
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
        out.write(_json_text(document, "\n", {}))
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

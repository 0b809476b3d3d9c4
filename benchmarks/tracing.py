"""Spans around the public functions of each cdvdiv module.

``Tracer.install`` rebinds every module global under which a traced function
is reachable: its home module, and each cdvdiv module that copied it with
``from ... import``.  ``uninstall`` restores the originals, so untraced
passes run the unmodified program.  No program file is edited.

A span is (name, layer, start, end, parent span, op id) plus the counts that
the function's counter reads off its arguments and result.  Spans stay in
memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "poly",
    "normalform",
    "newton",
    "blowup",
    "factorize",
    "curvegeom",
    "catalog",
    "pipeline",
    "cli",
)


def _count_substitution(args, kwargs, result, error):
    return {"terms": len(result)} if result is not None else {}


def _count_reduction(args, kwargs, result, error):
    if result is not None:
        return {"changes": len(result.applied_changes), "truncation": result.truncation_degree}
    from cdvdiv.normalform import default_truncation

    requested = args[1] if len(args) > 1 else kwargs.get("truncation_degree")
    return {"truncation": requested or default_truncation(args[0])}


def _count_diagram(args, kwargs, result, error):
    if result is None:
        return {}
    return {"faces": len(result.faces), "vertices": len(result.vertices)}


def _count_verdict(args, kwargs, result, error):
    return {"status": result.status} if result is not None else {}


def _count_weights(args, kwargs, result, error):
    return {"weights": len(result)} if result is not None else {}


def _count_factors(args, kwargs, result, error):
    counts = {"input_terms": len(args[0])}
    if result is not None:
        counts["factors"] = len(result[1])
    return counts


def _count_rationality(args, kwargs, result, error):
    return {"verdict": result.verdict} if result is not None else {}


def _count_quadruples(args, kwargs, result, error):
    return {"quadruples": len(result)} if result is not None else {}


# (layer, module, function, counter).  Spans are named "<layer>.<function>".
TRACED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("poly", "cdvdiv.poly", "parse_polynomial", None),
    ("poly", "cdvdiv.poly", "apply_substitution", _count_substitution),
    ("normalform", "cdvdiv.normalform", "reduce_to_normal_form", _count_reduction),
    ("normalform", "cdvdiv.normalform", "classify_type", None),
    ("newton", "cdvdiv.newton", "build_diagram", _count_diagram),
    ("newton", "cdvdiv.newton", "check_nondegeneracy", None),
    ("newton", "cdvdiv.newton", "singular_torus_search", _count_verdict),
    ("newton", "cdvdiv.newton", "face_polynomial", None),
    ("blowup", "cdvdiv.blowup", "enumerate_weights", _count_weights),
    ("blowup", "cdvdiv.blowup", "exceptional_surface", None),
    ("blowup", "cdvdiv.blowup", "decompose_components", None),
    ("factorize", "cdvdiv.factorize", "rational_factors", _count_factors),
    ("curvegeom", "cdvdiv.curvegeom", "classify_rationality", _count_rationality),
    ("curvegeom", "cdvdiv.curvegeom", "chart_nondegeneracy", None),
    ("catalog", "cdvdiv.catalog", "lemma_quadruples", _count_quadruples),
    ("catalog", "cdvdiv.catalog", "catalog_correspondence", None),
    ("catalog", "cdvdiv.catalog", "candidate_weights", None),
    ("pipeline", "cdvdiv.pipeline", "analyze", None),
    ("cli", "cdvdiv.cli", "run", None),
)

# Span record fields, kept as a list for low overhead.
NAME, LAYER, START, END, PARENT, OP, CHILD, COUNTS, ERROR = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cdvdiv"]
        for layer, module_name, func_name, counter in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{layer}.{func_name}", layer, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, None, parent, tracer.op_id, 0.0, None, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            result = error = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                span[ERROR] = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                span[END] = end
                if stack and stack[-1] == index:
                    stack.pop()
                    if stack:
                        tracer.spans[stack[-1]][CHILD] += end - span[START]
                if counter is not None:
                    span[COUNTS] = counter(args, kwargs, result, error)

        return wrapper

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.clear()

    def end_op(self) -> None:
        """Close spans an interrupted op left open (a timeout mid-call)."""
        end = perf_counter()
        for index in self._stack:
            span = self.spans[index]
            if span[END] is None:
                span[END] = end
                span[ERROR] = span[ERROR] or "interrupted"
        self._stack.clear()
        self.op_id = -1

    def dump(self, path: Path) -> None:
        fields = ("name", "layer", "start", "end", "parent", "op", "child_s", "counts", "error")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, better.  Values are per pass over the workload's inputs.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "normalform.reduce_self_s": ("s", "lower"),
    "normalform.changes_applied": ("count", "lower"),
    "normalform.truncation_degree": ("degree", "lower"),
    "normalform.failures": ("count", "lower"),
    "poly.substitution_s": ("s", "lower"),
    "poly.substitution_calls": ("count", "lower"),
    "poly.substitution_max_terms": ("count", "lower"),
    "blowup.enumerate_weights_s": ("s", "lower"),
    "blowup.weights_found": ("count", "lower"),
    "factorize.rational_factors_s": ("s", "lower"),
    "factorize.calls": ("count", "lower"),
    "factorize.input_terms": ("count", "lower"),
    "factorize.factors_out": ("count", "lower"),
    "newton.build_diagram_s": ("s", "lower"),
    "newton.faces": ("count", "lower"),
    "newton.vertices": ("count", "lower"),
    "newton.torus_search_s": ("s", "lower"),
    "newton.torus_search_calls": ("count", "lower"),
    "newton.verdict_certified": ("count", "higher"),
    "newton.verdict_probable": ("count", "lower"),
    "newton.verdict_degenerate": ("count", "lower"),
    "newton.certified_ratio": ("ratio", "higher"),
    "curvegeom.classify_rationality_self_s": ("s", "lower"),
    "curvegeom.chart_nondegeneracy_s": ("s", "lower"),
    "curvegeom.verdict_non_rational": ("count", "lower"),
    "curvegeom.verdict_undecided": ("count", "lower"),
    "catalog.lemma_quadruples_s": ("s", "lower"),
    "catalog.correspondence_s": ("s", "lower"),
    "catalog.quadruples": ("count", "lower"),
    "pipeline.analyze_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "poly.parse_s": ("s", "lower"),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower")

# Which layer should carry the most self time on each workload.
PREDICTED_TOP = {
    "corpus": ("factorize", "blowup", "newton"),
    "analyze": ("blowup",),
    "reduction": ("normalform", "poly"),
    "diagram": ("newton",),
}


def layer_metrics(spans: List[list], passes: int) -> Dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes."""
    total: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
        duration = span[END] - span[START]
        total[f"{span[LAYER]}.calls"] += 1
        total[f"{span[LAYER]}.self_s"] += duration - span[CHILD]

    def inclusive(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s[END] - s[START] - s[CHILD] for s in by_name[name])

    def count(name: str, key: str) -> int:
        return sum((s[COUNTS] or {}).get(key, 0) for s in by_name[name])

    def tally(name: str, key: str, value: str) -> int:
        return sum(1 for s in by_name[name] if (s[COUNTS] or {}).get(key) == value)

    reduce_spans = by_name["normalform.reduce_to_normal_form"]
    truncations = [s[COUNTS]["truncation"] for s in reduce_spans if s[COUNTS]]
    torus = "newton.singular_torus_search"
    torus_calls = len(by_name[torus])
    certified = tally(torus, "status", "nondegenerate_certified")
    rationality = "curvegeom.classify_rationality"
    total.update(
        {
            "normalform.reduce_self_s": self_time("normalform.reduce_to_normal_form"),
            "normalform.changes_applied": count("normalform.reduce_to_normal_form", "changes"),
            "normalform.failures": sum(1 for s in reduce_spans if s[ERROR] == "ReductionError"),
            "poly.substitution_s": inclusive("poly.apply_substitution"),
            "poly.substitution_calls": len(by_name["poly.apply_substitution"]),
            "blowup.enumerate_weights_s": inclusive("blowup.enumerate_weights"),
            "blowup.weights_found": count("blowup.enumerate_weights", "weights"),
            "factorize.rational_factors_s": inclusive("factorize.rational_factors"),
            "factorize.calls": len(by_name["factorize.rational_factors"]),
            "factorize.input_terms": count("factorize.rational_factors", "input_terms"),
            "factorize.factors_out": count("factorize.rational_factors", "factors"),
            "newton.build_diagram_s": inclusive("newton.build_diagram"),
            "newton.faces": count("newton.build_diagram", "faces"),
            "newton.vertices": count("newton.build_diagram", "vertices"),
            "newton.torus_search_s": inclusive(torus),
            "newton.torus_search_calls": torus_calls,
            "newton.verdict_certified": certified,
            "newton.verdict_probable": tally(torus, "status", "nondegenerate_probable"),
            "newton.verdict_degenerate": tally(torus, "status", "degenerate"),
            "curvegeom.classify_rationality_self_s": self_time(rationality),
            "curvegeom.chart_nondegeneracy_s": inclusive("curvegeom.chart_nondegeneracy"),
            "curvegeom.verdict_non_rational": tally(rationality, "verdict", "non_rational"),
            "curvegeom.verdict_undecided": tally(rationality, "verdict", "undecided"),
            "catalog.lemma_quadruples_s": inclusive("catalog.lemma_quadruples"),
            "catalog.correspondence_s": inclusive("catalog.catalog_correspondence"),
            "catalog.quadruples": count("catalog.lemma_quadruples", "quadruples"),
            "pipeline.analyze_self_s": self_time("pipeline.analyze"),
            "poly.parse_s": inclusive("poly.parse_polynomial"),
        }
    )
    per_pass = {name: total.get(name, 0.0) / max(1, passes) for name in LAYER_METRICS}
    # Ratios and maxima are not additive over passes.
    per_pass["newton.certified_ratio"] = certified / torus_calls if torus_calls else 0.0
    per_pass["normalform.truncation_degree"] = (
        sum(truncations) / len(truncations) if truncations else 0.0
    )
    per_pass["poly.substitution_max_terms"] = max(
        (s[COUNTS]["terms"] for s in by_name["poly.apply_substitution"] if s[COUNTS]),
        default=0,
    )
    return per_pass


def top_layer(metrics: Dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])

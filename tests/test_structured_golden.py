"""`analyze` and `diagram --format structured` must reproduce stored reports byte for byte.

The `analyze` germs cover the paper's worked examples, one germ per row of
the normal-form elimination table, ten perturbed normal forms (the
criterion-8 family, seed 0) and one germ whose reduction fails, so the
warnings path is covered too.  The `diagram` germs cover edges and 2-faces
decided exactly in their own dimension (two corpus germs, seed 0, whose
edges a GF(257) scan once called degenerate, and a germ with a 2-face in
y, z, t), a worked example, and two germs with dense supports, whose
diagrams have dozens of faces of every dimension.

A second fixture stores the normal-form certificate (type, reduced
polynomial, every change's `describe()`, constraints, notes, truncation
degree, S_max and whether it certifies the degree) of each germ of the
benchmark's seed-0 `reduction` workload that reduces within 10 s, and the
error text of those that are refused, plus one pinned germ that every
truncation degree refuses.  A change that alters any of these must
regenerate both fixtures and explain the difference:

    PYTHONPATH=src python tests/test_structured_golden.py

With `--diff` it prints, per germ, the JSON paths at which the current
output differs from the stored fixtures, and writes nothing.
"""

import io
import json
import signal
import sys
from pathlib import Path

import pytest

from cdvdiv.cli import RunConfig, run
from cdvdiv.normalform import ReductionError, reduce_to_normal_form
from cdvdiv.poly import parse_polynomial, pretty

FIXTURE = Path(__file__).with_name("structured_golden.json")
REDUCTION_FIXTURE = Path(__file__).with_name("reduction_golden.json")
# Germs of the fixture's source workload that take longer than this are
# left out of it.
REDUCTION_LIMIT_S = 10
# Refused at every truncation degree from 9 to 21 and at the ceiling 22:
# the cE7 y*z^3 and z^k rows revive each other's offenders.
REFUSED_GERMS = [("cE7 elimination cycle", "x^2 + y^3 + y*z^3 + z^5 + z^6*t + t^9")]

ANALYZE_GERMS = [
    # worked examples
    "x^2 + y^2*z + z^3 + t^3",
    "x^2 + y^2*z + z^5 + t^5",
    "x^2 + y^2*z + z^7 + t^7",
    "x^2 + y^2*z + z^9 + t^9",
    "x^2 + y^2*z + z^11 + t^11",
    "x^2 + y^3 + y*z^3 + t^9",
    "x^2 + y^3 + z^5 + t^15",
    # elimination rows: cE6 (both rows), cE8 (z row), cD (z-free y^2 row)
    "x^2 + y^3 + z^4 + z^3*t + y*z^3*t + t^5",
    "x^2 + y^3 + z^5 + t^5*z^3 + y*z^3*t + t^7 + z^4*t^2",
    "x^2 + y^2*z + z^4 + y^2*t^2 + t^5",
    # perturbed normal forms
    "t^9 + 2*x*z^4*t^3 + 1/2*y^2*z^4*t^2 + y*z^3 + y^3 + x^2",
    "t^15 + 2*y^2*z^5*t^2 + 5/2*x*z^7 + z^5 + y^3 + x^2",
    "2*x*z^4*t^5 + 5*y^2*z^2*t^5 + z^6 + t^6 + y^2*z + x^2",
    "5*x*z^2*t^5 + 3*y^2*z^2*t^4 + z^4 + t^4 + y^2*z + x^2",
    "1/3*x*z^5*t^2 + y^2*z^3*t^2 + z^4 + t^4 + y^2*z + x^2",
    "3*y^2*z^4*t^2 + 5*x*z^2*t^4 + z^4 + t^4 + y^2*z + x^2",
    "1/3*x*z^7*t^2 + 3/2*y^2*z^8 + z^6 + t^6 + y^2*z + x^2",
    "3/2*y^2*z*t^9 + 5*x*t^8 + z^7 + t^7 + y^2*z + x^2",
    "2/3*y^2*z^7*t + x*t^8 + t^9 + y*z^3 + y^3 + x^2",
    "5/2*y^2*z*t^6 + 2*x*z^2*t^3 + z^4 + t^4 + y^3 + x^2",
    # cE7 at (9,6,4,1): the component x^2 + y^3 + y*z^3 has no weight-1
    # variable, and its lattice polygon has no interior point
    "x^2 + y^3 + y*z^3 + z^9 + t^20",
    # the reduction fails, so the report carries a warning
    "x^2 + y^3 + z^3 + t^3",
]

DIAGRAM_GERMS = [
    # corpus cD_8 and cD_9, offset 0, draw 0 (seed 0): squarefree edges
    # with singular points over GF(257)
    "z^7 + 4*z^5*t^2 - 1/4*t^7 - 5/2*y*t^4 + y^2*z + x^2",
    "z^8 + 7*z^6*t^2 + 5/4*t^8 + 3/2*y*t^5 + y^2*z + x^2",
    # corpus cD_4 offset 0 draw 0: a 2-face in y, z, t
    "y^2*z + 5/4*y*t^2 + z^3 + 9/4*z*t^2 + 7/4*t^3 + x^2",
    # worked example
    "x^2 + y^2*z + z^5 + t^5",
    # the first two supports of the "dense" oracle source of test_newton.py:
    # 13 and 10 points of total degree 11 to 13, none dominating another
    "x^2*y^8*z^2*t + x*y^9*z*t^2 + x^5*y^6*z + x^5*z^4*t^3 + x^4*y*z^6*t + x^2*z*t^9"
    " + x^5*y^2*z*t^3 + x^5*y*z*t^4 + x^5*z^2*t^4 + x^3*y^2*z^3*t^3 + x^2*y^4*z^5"
    " + y^5*z^5*t + y^5*z*t^5",
    "x^5*z^4*t^4 + x*y^5*z^7 + x^7*y^3*t^2 + x*y^6*z^3*t^2 + x*y*z*t^9 + y^5*z^6*t"
    " + y^2*z^4*t^6 + x^5*y^2*z^4 + x^4*y^2*z*t^4 + x*y^2*z^3*t^5",
]

CASES = [("analyze", text) for text in ANALYZE_GERMS] + [
    ("diagram", text) for text in DIAGRAM_GERMS
]


def structured_report(command: str, text: str, directory: Path):
    path = directory / "germ.txt"
    path.write_text(text + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    status = run(
        RunConfig(command=command, input_path=str(path), output_format="structured"),
        out,
        err,
    )
    return {"command": command, "input": text, "status": status, "stdout": out.getvalue()}


def _expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_lists_the_germs():
    assert [(entry["command"], entry["input"]) for entry in _expected()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_report_is_byte_identical(index, tmp_path):
    expected = _expected()[index]
    assert structured_report(expected["command"], expected["input"], tmp_path) == expected


def reduction_record(label: str, text: str):
    record = {"label": label, "input": text}
    try:
        cert = reduce_to_normal_form(parse_polynomial(text))
    except ReductionError as exc:
        record["error"] = str(exc)
        return record
    record.update(
        type=cert.type.label(),
        reduced=pretty(cert.reduced),
        changes=[sub.describe() for sub in cert.applied_changes],
        constraints=[[check.name, check.holds] for check in cert.satisfied_constraints],
        notes=list(cert.notes),
        truncation_degree=cert.truncation_degree,
        s_max=None if cert.s_max is None else str(cert.s_max),
        truncation_certified=cert.truncation_certified,
    )
    return record


def _reduction_expected():
    return json.loads(REDUCTION_FIXTURE.read_text(encoding="utf-8"))


def test_reduction_fixture_covers_success_and_refusal():
    expected = _reduction_expected()
    assert any("error" in entry for entry in expected)
    assert sum("reduced" in entry for entry in expected) >= 50


@pytest.mark.parametrize("index", range(len(_reduction_expected())))
def test_reduction_certificate_is_identical(index):
    expected = _reduction_expected()[index]
    assert reduction_record(expected["label"], expected["input"]) == expected


def _timed_reduction_records():
    """Records of the seed-0 `reduction` workload germs that finish in time."""

    class _Late(Exception):
        pass

    def _alarm(_signum, _frame):
        raise _Late

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from workloads import reduction_inputs

    previous = signal.signal(signal.SIGALRM, _alarm)
    records = []
    try:
        for inp in reduction_inputs(0, tiny=False):
            signal.alarm(REDUCTION_LIMIT_S)
            try:
                records.append(reduction_record(inp.label, pretty(inp.polynomial)))
            except _Late:
                print(f"left out (over {REDUCTION_LIMIT_S} s): {inp.label}", file=sys.stderr)
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records + [reduction_record(label, text) for label, text in REFUSED_GERMS]


def test_failed_reduction_warns():
    doc = json.loads(_expected()[len(ANALYZE_GERMS) - 1]["stdout"])["report"]
    assert doc["normal_form"] is None
    assert doc["warnings"]


def _differing_paths(old, new, path=""):
    """JSON paths at which two decoded documents differ; a `stdout` string
    that holds a JSON document is compared inside."""
    if isinstance(old, str) and isinstance(new, str) and path.endswith("stdout"):
        try:
            old, new = json.loads(old), json.loads(new)
        except ValueError:
            pass
    if isinstance(old, dict) and isinstance(new, dict):
        paths = []
        for key in list(old) + [k for k in new if k not in old]:
            sub = f"{path}.{key}" if path else key
            if key not in new:
                paths.append(f"{sub} (removed)")
            elif key not in old:
                paths.append(f"{sub} (added)")
            else:
                paths += _differing_paths(old[key], new[key], sub)
        return paths
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new)) for p in _differing_paths(a, b, f"{path}[{i}]")]
    return [] if old == new else [path]


def _print_diff(name, stored, current):
    def key(entry):
        return entry.get("command") or entry["label"], entry["input"]

    old_entries = {key(entry): entry for entry in stored}
    new_keys = {key(entry) for entry in current}
    for entry in current:
        label = " ".join(key(entry))
        if key(entry) not in old_entries:
            print(f"{name} {label}: entry added")
            continue
        paths = _differing_paths(old_entries[key(entry)], entry)
        if paths:
            print(f"{name} {label}: {', '.join(paths)}")
    for entry in stored:
        if key(entry) not in new_keys:
            print(f"{name} {' '.join(key(entry))}: entry removed")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = [structured_report(command, text, Path(tmp)) for command, text in CASES]
    reductions = _timed_reduction_records()
    if "--diff" in sys.argv[1:]:
        _print_diff("structured", _expected(), entries)
        _print_diff("reduction", _reduction_expected(), reductions)
        sys.exit(0)
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    REDUCTION_FIXTURE.write_text(json.dumps(reductions, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)

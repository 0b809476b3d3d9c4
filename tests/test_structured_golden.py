"""`analyze --format structured` must reproduce a stored report byte for byte.

The germs cover the paper's worked examples, one germ per row of the
normal-form elimination table, ten perturbed normal forms (the
criterion-8 family, seed 0) and one germ whose reduction fails, so the
warnings path is covered too.  A change that alters any of these reports
must regenerate the fixture and explain the difference:

    PYTHONPATH=src python tests/test_structured_golden.py
"""

import io
import json
import sys
from pathlib import Path

import pytest

from cdvdiv.cli import RunConfig, run

FIXTURE = Path(__file__).with_name("structured_golden.json")

GERMS = [
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
    # the reduction fails, so the report carries a warning
    "x^2 + y^3 + z^3 + t^3",
]


def structured_analyze(text: str, directory: Path):
    path = directory / "germ.txt"
    path.write_text(text + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    status = run(
        RunConfig(command="analyze", input_path=str(path), output_format="structured"),
        out,
        err,
    )
    return {"input": text, "status": status, "stdout": out.getvalue()}


def _expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_lists_the_germs():
    assert [entry["input"] for entry in _expected()] == GERMS


@pytest.mark.parametrize("index", range(len(GERMS)))
def test_report_is_byte_identical(index, tmp_path):
    expected = _expected()[index]
    assert structured_analyze(expected["input"], tmp_path) == expected


def test_failed_reduction_warns():
    doc = json.loads(_expected()[-1]["stdout"])["report"]
    assert doc["normal_form"] is None
    assert doc["warnings"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = [structured_analyze(text, Path(tmp)) for text in GERMS]
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)

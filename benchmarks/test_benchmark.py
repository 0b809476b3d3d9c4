"""Checks of the benchmark itself: its inputs and its output contract.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cdvdiv.pipeline import generate_corpus  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_corpus_family_is_the_programs_corpus(seed):
    ours = workloads.corpus_family(seed)
    theirs = [(i.label, i.polynomial, i.kind, i.n) for i in generate_corpus(seed)]
    assert ours == theirs


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in run.WORKLOADS:
        first = workloads.generate(name, 3, False, tmp_path)
        again = workloads.generate(name, 3, False, tmp_path)
        assert [(i.label, i.polynomial) for i in first] == [(i.label, i.polynomial) for i in again]


def test_spec_lists_the_metrics_the_code_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: unit for name, (unit, _better) in tracing.LAYER_METRICS.items()}
    layer_units.update(run.UNBOUNDED)
    layer_units.update(run.TRACE_EXTRA)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_printed(workload, capsys):
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", workload, "--seed", "0", "--seconds", "0.1"]
        status = run.main(argv + ["--trace", str(trace), "--tiny"])
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert status == 0 and result["correct"] is True
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
        names = [m["name"] for m in spec[section]]
        assert sorted(result["metrics"]) == sorted(names)
        for name in names:
            assert isinstance(result["metrics"][name]["value"], (int, float))
            assert any(line.split()[:1] == [name] for line in lines), name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "corpus"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

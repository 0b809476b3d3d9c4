"""Benchmark of the cdvdiv pipeline: one workload per process, closed loop.

    python3 benchmarks/run.py --workload corpus --seed 0 --seconds 25 --trace 0

One client runs one operation at a time, with no worker threads.  The run
repeats passes over the workload's inputs until --seconds is spent (at least
three passes; two untraced and two traced with --trace 1).  Caches of sympy
are cleared before each pass, so every pass does the work of a fresh run,
except that an untraced pass does not rerun an input that timed out.
Outputs are checked outside the timed region: the first output of each input
by the workload's oracle, later ones for equality with the first.

Times are reported in reference seconds, the seconds an unloaded core would
take.  A fixed computation that does not run the program is timed before and
after every operation; its time over its time on an unloaded core is the
host's slowdown (see slowdown), and the operation's time is divided by the
mean of the two slowdowns.  The speed of a shared host drifts by a third
and more, over seconds and over minutes, and this divides the drift out
while a change to the program still moves the numbers one for one.  Raw
seconds are printed beside them.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and the JSON
carries the per-layer metrics, the exact correctness counts and the tracing
overhead.  Human-readable lines before it print every metric with its unit
and the label of every failed operation.  The exit status is 0 when every
output check passed, 1 when one failed, 2 when the program cannot be
imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

WORKLOADS = ("corpus", "analyze", "reduction", "diagram")
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
SETUP_SAMPLES = 5
# Per-operation limit outside the reduction workload: a safety net only.
OTHER_LIMIT_S = 30.0
# Times of the two reference computations on an unloaded core of a 2-vCPU
# Intel Xeon host.
REFERENCE_PYTHON_S = 0.0018
REFERENCE_NUMPY_S = 0.0018
# Share of the numpy reference in each workload's slowdown.  A busy host
# slows pure-Python and numpy arithmetic by different factors.  corpus and
# reduction are pure Python, and over ten seeds a half-and-half reference
# left their times higher on a slow host.  analyze and diagram mix numpy
# (the weight-box scan, the torus search) with Python, and the numpy
# reference alone tracked diagram no better than half-and-half.
NUMPY_SHARE = {"corpus": 0.0, "reduction": 0.0, "analyze": 0.5, "diagram": 0.5}
# Share for the set-up of every workload: with the Python reference alone,
# import times spread twice as wide over ten seeds.
SETUP_NUMPY_SHARE = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_mid_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed on every run but carried by the traced run's JSON line, without a
# bound: the counts are 0 on some workloads, and the median jumps between
# clusters of operation times when the seed moves one input across it.
UNBOUNDED = {
    "op_p50_ms": "ms",
    "fail_ratio": "ratio",
    "probable_verdicts": "count",
    "undecided_components": "count",
    "modp_degenerate_verdicts": "count",
    "catalog_disagreements": "count",
}
TRACE_EXTRA = {"traced_wall_s": "s", "trace_overhead_s": "s"}

# Counts rare enough to name the inputs behind them.
FLAGGED = ("undecided_components", "modp_degenerate_verdicts", "catalog_disagreements")

OK, TIMEOUT, REFUSED, CRASH = "ok", "timeout", "refused", "crash"

# One pass: (seconds, outcome) per input, in input order.
Pass = List[Tuple[float, str]]


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


class Alarm:
    """In-process per-operation time limit; works because the program is
    Python code that returns to the interpreter often."""

    def __init__(self) -> None:
        self.armed = False
        self._previous = None

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def __enter__(self) -> "Alarm":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# The two kinds of arithmetic the program spends its time on: a sparse
# polynomial with Fraction coefficients keyed by exponent vectors (pure
# Python), and int64 vectors reduced mod a prime (numpy, as in the
# weight-box scan and the torus search).
_REFERENCE_POLY = {
    (i, j, k, m): Fraction(i + 2 * j + 1, k + m + 1)
    for i in range(3)
    for j in range(2)
    for k in range(2)
    for m in range(2)
}
_REFERENCE_PRIME = 1009
_REFERENCE_VECTOR = np.random.default_rng(0).integers(
    1, _REFERENCE_PRIME, size=30000, dtype=np.int64
)


def python_reference_seconds() -> float:
    """Time one squaring of _REFERENCE_POLY."""
    start = perf_counter()
    product: Dict[Tuple[int, ...], Fraction] = {}
    for ea, ca in _REFERENCE_POLY.items():
        for eb, cb in _REFERENCE_POLY.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            product[e] = product.get(e, 0) + ca * cb
    sorted(product.items())
    return perf_counter() - start


def numpy_reference_seconds() -> float:
    """Time one power of _REFERENCE_VECTOR mod _REFERENCE_PRIME."""
    start = perf_counter()
    power, base = np.ones_like(_REFERENCE_VECTOR), _REFERENCE_VECTOR
    for _ in range(6):
        power = power * base % _REFERENCE_PRIME
        base = base * base % _REFERENCE_PRIME
    return perf_counter() - start


def slowdown(numpy_share: float) -> float:
    """How many times slower than an unloaded core the host runs now, by the
    reference computations mixed in the given share."""
    factor = 0.0
    if numpy_share < 1:
        factor += (1 - numpy_share) * python_reference_seconds() / REFERENCE_PYTHON_S
    if numpy_share > 0:
        factor += numpy_share * numpy_reference_seconds() / REFERENCE_NUMPY_S
    return factor


def scaled(measure, numpy_share: float) -> Tuple[float, float]:
    """(reference seconds, raw seconds) of measure(), which returns raw seconds."""
    before = slowdown(numpy_share)
    raw = measure()
    after = slowdown(numpy_share)
    return raw * 2 / (before + after), raw


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduction-limit-s",
        type=float,
        default=0.3,
        help="time limit of one reduction in reference seconds; a reduction that runs past it fails",
    )
    parser.add_argument(
        "--tiny", action="store_true", help="a few inputs per workload (smoke test)"
    )
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import cdvdiv from ./src into this process."""
    if not (SRC / "cdvdiv" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cdvdiv.cli  # noqa: F401  (imports numpy and sympy)

    if not Path(cdvdiv.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cdvdiv was imported from {cdvdiv.cli.__file__}, not {SRC}")


def _import_in_fresh_process(numpy_share: float) -> Tuple[float, float]:
    """(reference, raw) seconds of importing cdvdiv in a fresh interpreter.

    The child measures the slowdown itself right after the import, since it
    may run on another core than this process.
    """
    code = (
        "import statistics, sys, time; start = time.perf_counter(); import cdvdiv.cli; "
        "raw = time.perf_counter() - start; sys.path.insert(0, sys.argv[1]); import run; "
        "factor = statistics.median([run.slowdown(float(sys.argv[2])) for _ in range(4)][1:]); "
        "print(raw / factor, raw)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(numpy_share)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    scaled_s, raw = proc.stdout.split()[-2:]
    return float(scaled_s), float(raw)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


class Bench:
    def __init__(self, args: argparse.Namespace, workloads_module, tracing_module) -> None:
        self.args = args
        self.w = workloads_module
        self.tracing = tracing_module
        self.runner = workloads_module.Runner(args.workload, args.seed)
        self.limit = args.reduction_limit_s if args.workload == "reduction" else OTHER_LIMIT_S
        self.numpy_share = NUMPY_SHARE[args.workload]
        self.expected_errors = workloads_module.EXPECTED_ERRORS.get(args.workload, ())
        self.inputs = []
        self.keys: Dict[int, object] = {}
        self.counts: Counter = Counter()
        self.problems: List[str] = []
        self.outcomes: Dict[int, Counter] = defaultdict(Counter)
        self.errors: Dict[int, str] = {}
        self.flagged: Dict[int, Dict[str, int]] = {}
        self.pass_index = 0
        self.raw_seconds: Dict[str, List[float]] = defaultdict(list)
        # Reference seconds of each input that timed out in an untraced pass.
        self.timeouts: Dict[int, float] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self, directory: Path) -> Tuple[float, float]:
        """Median import plus median input generation, (reference, raw) seconds."""
        samples = 1 if self.args.tiny else SETUP_SAMPLES
        imports = [_import_in_fresh_process(SETUP_NUMPY_SHARE) for _ in range(samples)]
        generation = []
        for index in range(samples):
            target = directory / f"inputs-{index}"
            target.mkdir()

            def generate() -> float:
                start = perf_counter()
                self.inputs = self.w.generate(
                    self.args.workload, self.args.seed, self.args.tiny, target
                )
                return perf_counter() - start

            generation.append(scaled(generate, SETUP_NUMPY_SHARE))
        return tuple(
            statistics.median(i[k] for i in imports) + statistics.median(g[k] for g in generation)
            for k in (0, 1)
        )

    # -- passes --------------------------------------------------------------

    def run_op(self, alarm: Alarm, inp, limit: float) -> Tuple[float, str, object]:
        """Run one input with a limit in raw seconds; returns (raw seconds, status, output)."""
        output = None
        alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = perf_counter()
        try:
            output = self.runner.run(inp)
            elapsed = perf_counter() - start
            alarm.armed = False
            status = OK
        except OpTimeout:
            elapsed = perf_counter() - start
            status = TIMEOUT
        except self.expected_errors as exc:
            elapsed = perf_counter() - start
            status, output = REFUSED, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # the op boundary: record and go on
            elapsed = perf_counter() - start
            status, output = CRASH, "".join(traceback.format_exception(exc))
        finally:
            alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, status, output

    def run_pass(self, alarm: Alarm, tracer=None) -> Tuple[Pass, float]:
        """One pass over the inputs; returns its samples and its raw seconds.

        In untraced passes a timeout is final for the run: the input is not
        run again, and later passes record the same timeout.  Running it
        again would spend the limit to learn the same outcome, and the
        passes this saves make every other input's time steadier.  Traced
        passes run every input, so that each carries the whole per-layer work.
        """
        from sympy.core.cache import clear_cache

        clear_cache()
        gc.collect()
        results = []
        slowdowns = [slowdown(self.numpy_share)]
        if tracer is not None:
            tracer.install()
        try:
            for index, inp in enumerate(self.inputs):
                if tracer is None and index in self.timeouts:
                    results.append((0.0, self.timeouts[index], TIMEOUT, None))
                    continue
                if tracer is not None:
                    tracer.begin_op(len(self.inputs) * self.pass_index + index)
                # The limit is in reference seconds, so that a slow host
                # times out the same operations as a fast one.
                limit_factor = statistics.median(slowdowns[-3:])
                limit = self.limit * limit_factor
                elapsed, status, output = self.run_op(alarm, inp, limit)
                if tracer is not None:
                    tracer.end_op()
                slowdowns.append(slowdown(self.numpy_share))
                # A timed-out operation is scaled by the slowdown that set its
                # limit, so it reads the limit plus the timer's overshoot.
                factor = limit_factor if status == TIMEOUT else sum(slowdowns[-2:]) / 2
                scaled_s = elapsed / factor
                if status == TIMEOUT and tracer is None:
                    self.timeouts[index] = scaled_s
                results.append((elapsed, scaled_s, status, output))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.pass_index += 1
        samples = [
            self.record(index, scaled_s, status, output)
            for index, (_, scaled_s, status, output) in enumerate(results)
        ]
        return samples, sum(raw for raw, _, _, _ in results)

    def record(self, index: int, elapsed: float, status: str, output) -> Tuple[float, str]:
        """Check one output (outside the timed region); returns (elapsed, outcome)."""
        inp = self.inputs[index]
        if status == OK:
            if index not in self.keys:
                verdict = self.w.check(self.args.workload, inp, output)
                self.counts.update(verdict.counts)
                flagged = {k: n for k, n in verdict.counts.items() if k in FLAGGED and n}
                if flagged:
                    self.flagged[index] = flagged
                self.keys[index] = self.w.output_key(inp, output)
                if verdict.problems:
                    self.problems.extend(verdict.problems)
                    status = "wrong"
            elif self.w.output_key(inp, output) != self.keys[index]:
                self.problems.append(f"{inp.label}: output differs between passes")
                status = "wrong"
        elif status == CRASH:
            self.problems.append(f"{inp.label}: unexpected exception\n{output}")
        if status in (REFUSED, CRASH):
            self.errors[index] = str(output).strip().splitlines()[-1]
        self.outcomes[index][status] += 1
        return elapsed, status

    def measure(self, traced: bool) -> Tuple[List[Pass], List[Pass], object]:
        """Run passes until the time is spent; returns (untraced, traced, tracer).

        The raw seconds of each pass go to self.raw_seconds.
        """
        tracer = self.tracing.Tracer() if traced else None
        plan = ["plain", "traced"] if traced else ["plain"]
        minimum = MIN_TRACE_PAIRS * 2 if traced else MIN_PASSES
        plain: List[Pass] = []
        traced_passes: List[Pass] = []
        last = {kind: 0.0 for kind in plan}
        self.pass_index = 0
        start = perf_counter()
        with Alarm() as alarm:
            while True:
                kind = plan[self.pass_index % len(plan)]
                elapsed = perf_counter() - start
                if self.pass_index >= minimum and elapsed + last[kind] > self.args.seconds:
                    break
                pass_start = perf_counter()
                samples, raw = self.run_pass(alarm, tracer if kind == "traced" else None)
                last[kind] = perf_counter() - pass_start
                (traced_passes if kind == "traced" else plain).append(samples)
                self.raw_seconds[kind].append(raw)
        return plain, traced_passes, tracer


def typical_times(passes: List[Pass]) -> List[float]:
    """Each input's typical time in reference seconds: the mean over its
    faster half of the passes (at least one).

    The reference divides out the host's drift but not a burst of contention
    shorter than an operation, and such a burst slows the operation down; it
    can cover most of a pass, so the slower half is dropped.
    """
    typical = []
    for column in zip(*passes):
        times = sorted(sample[0] for sample in column)
        faster = times[: max(1, len(times) // 2)]
        typical.append(sum(faster) / len(faster))
    return typical


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half of the values."""
    ordered = sorted(values)
    middle = ordered[len(ordered) // 4 : len(ordered) - len(ordered) // 4]
    return sum(middle) / len(middle)


def tail_percentile(inputs: int) -> int:
    """Highest whole percentile with at least 10 of the inputs beyond it.

    Fixed by the workload's size, so every run reports the same percentile.
    """
    return max(50, math.floor(100 * (1 - 10 / inputs)))


def end_to_end(passes: List[Pass], setup_s: float) -> Tuple[Dict[str, float], str]:
    typical = typical_times(passes)
    p = tail_percentile(len(typical))
    beyond = len(typical) - max(1, math.ceil(p / 100 * len(typical)))
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "op_mid_ms": 1000 * interquartile_mean(typical),
        "op_tail_ms": 1000 * percentile(typical, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = f"p{p} of {len(typical)} inputs' typical times over {len(passes)} passes, {beyond} beyond it"
    return metrics, note


def unbounded(bench: Bench, plain: List[Pass], passes: List[Pass]) -> Dict[str, float]:
    outcomes = [status for samples in passes for _, status in samples]
    failed = sum(1 for status in outcomes if status != OK)
    metrics = {
        "op_p50_ms": 1000 * statistics.median(typical_times(plain)),
        "fail_ratio": failed / len(outcomes),
    }
    metrics.update({name: float(bench.counts[name]) for name in bench.w.COUNT_NAMES})
    return metrics


def _print_metrics(
    title: str, metrics: Dict[str, float], units: Dict[str, str], notes: Dict[str, str]
) -> None:
    print(title)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {metrics[name]:14.6f} {unit}{note}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args, workloads, tracing)
        slowdown(SETUP_NUMPY_SHARE)  # warm-up
        setup_s, raw_setup_s = bench.setup(directory)
        plain, traced, tracer = bench.measure(bool(args.trace))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    all_passes = plain + traced
    attempted = sum(len(samples) for samples in all_passes)
    failed = sum(1 for samples in all_passes for _, status in samples if status != OK)
    correct = not bench.problems

    e2e, tail_note = end_to_end(plain, setup_s)
    counts = unbounded(bench, plain, all_passes)
    print(
        f"workload {args.workload} seed {args.seed}: {len(bench.inputs)} inputs, "
        f"{len(plain)} untraced and {len(traced)} traced passes, closed loop, one client"
    )
    _print_metrics(
        f"end-to-end (untraced passes; times in reference seconds, numpy share {bench.numpy_share})",
        e2e,
        END_TO_END,
        {"op_tail_ms": tail_note},
    )
    print(f"  raw setup seconds: {raw_setup_s:.3f}")
    for kind, name, passes in (("plain", "untraced", plain), ("traced", "traced", traced)):
        if passes:
            times = " ".join(f"{sum(t for t, _ in samples):.3f}" for samples in passes)
            raw = " ".join(f"{t:.3f}" for t in bench.raw_seconds[kind])
            print(f"  {name} pass reference seconds: {times}")
            print(f"  {name} pass raw seconds: {raw}")
    _print_metrics(
        "unbounded (p50 of inputs' typical times; counts per pass; fail_ratio over all passes)",
        counts,
        UNBOUNDED,
        {},
    )
    for index, flagged in sorted(bench.flagged.items()):
        print(f"  counted in {bench.inputs[index].label!r}: {flagged}")
    for index, outcome in sorted(bench.outcomes.items()):
        bad = {status: n for status, n in outcome.items() if status != OK}
        if bad:
            detail = f": {bench.errors[index]}" if index in bench.errors else ""
            if TIMEOUT in bad:
                detail += f" (limit {bench.limit:g} s)"
            print(f"  failed op {bench.inputs[index].label!r} {dict(bad)}{detail}")

    if args.trace:
        layer = tracing.layer_metrics(tracer.spans, len(traced))
        layer.update(counts)
        layer["traced_wall_s"] = sum(typical_times(traced))
        layer["trace_overhead_s"] = layer["traced_wall_s"] - e2e["wall_s"]
        units = {name: unit for name, (unit, _better) in tracing.LAYER_METRICS.items()}
        units.update(UNBOUNDED)
        units.update(TRACE_EXTRA)
        _print_metrics("per-layer (traced passes, per pass)", layer, units, {})
        top = tracing.top_layer(layer)
        predicted = tracing.PREDICTED_TOP[args.workload]
        verdict = "matches" if top in predicted else "MISMATCH with"
        print(f"largest self-time layer: {top}; {verdict} the prediction {'/'.join(predicted)}")
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        metrics, metric_units = layer, units
    else:
        metrics, metric_units = e2e, END_TO_END

    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in metric_units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

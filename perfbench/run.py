#!/usr/bin/env python3
"""Benchmark harness for wdn-lipschitz.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-fixtures --seed 1 --seconds 30 --trace 0

The harness imports the package from ``src/`` of the checkout it sits in,
sets up the workload's inputs, then repeats closed-loop passes of the
workload (see ``pipeline.py``) for ``--seconds`` seconds.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` untraced and traced passes alternate; the
metrics are per-layer self times and counts from the traced passes, plus
the tracing overhead, and the spans are written to ``perfbench/out/``.
Every time metric is normalised to the machine's speed (see ``_calibrate``).
The line before the result holds the details: environment, output digest,
skipped operations, failures, raw pass and calibration times and, when
traced, per-layer self time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7

# The machine is shared, and its speed moves by up to a quarter over seconds
# and over minutes.  Every time metric is scaled to the speed at which
# _calibrate takes CALIBRATION_S, its typical time on the 2-core Xeon VM
# (Python 3.11.7, numpy 2.4.6) where the baseline in README.md was measured.
CALIBRATION_S = 0.030
CALIBRATION_EVERY_S = 1.0
_CALIBRATION_ARRAY = np.linspace(0.5, 2.0, 150_000)
_CALIBRATION_OUT = np.empty_like(_CALIBRATION_ARRAY)   # no allocation while timing

# per-layer metric -> span whose self time it sums
SPAN_METRICS = {
    "inp.parse_s": "inp.parse",
    "network.build_s": "network.build",
    "bounds.load_s": "bounds.load",
    "analytical.k_network_s": "analytical.k_network",
    "bnb.max_s": "bnb.max",
    "bnb.sqrt_s": "bnb.sqrt",
    "sampling.trace_s": "sampling.trace",
    "sampling.sobol_gen_s": "sampling.sobol_gen",
    "sampling.halton_gen_s": "sampling.halton_gen",
    "sampling.random_gen_s": "sampling.random_gen",
    "network.jacobian_batch_s": "network.jacobian_batch",
    "report.to_json_s": "report.to_json",
    "dae.build_s": "dae.build",
}


def _parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the harness's own test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the wall-clock time and exit")
    return parser.parse_args(argv)


def _use_source_tree() -> bool:
    """Put the checkout's src/ first on the path; False if it is missing."""
    src = ROOT / "src"
    if not (src / "wdn_lipschitz" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import wdn_lipschitz
    return Path(wdn_lipschitz.__file__).resolve().parent == (src / "wdn_lipschitz").resolve()


def _setup(pipeline, workload, smoke: bool):
    inputs = pipeline.load_inputs(workload, ROOT, smoke)
    pipeline.SampleSequence("sobol", 1)   # loads and checks the Sobol direction table
    return inputs


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Process start to the end of set-up in fresh interpreters, each
    normalised by the mean of the calibrations just before and after it."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    before = _calibrate()
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        seconds = float(done.stdout.split()[-1]) - start
        after = _calibrate()
        times.append(_normalised(seconds, (before + after) / 2))
        before = after
    return times


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown"
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _self_times(spans) -> dict[int, dict[str, float]]:
    """Per run id, the self time of each span name: duration minus the
    durations of its direct children."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span_id, _, run_id, name, start, end in spans:
        out[run_id][name] += end - start - child_time[span_id]
    return out


def _calibrate() -> float:
    """Wall time of a fixed mix of interpreter and numpy work (about 30 ms).

    The program never runs this code, so its time tracks only how fast the
    shared machine runs at the moment; time metrics are scaled by it.
    """
    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k
    for _ in range(20):
        np.power(_CALIBRATION_ARRAY, 0.852, out=_CALIBRATION_OUT)
    table = {}
    for k in range(50_000):
        table[k % 997] = k
    return time.perf_counter() - start


def _normalised(seconds: float, calibration: float) -> float:
    """seconds as they would read when the calibration loop takes CALIBRATION_S."""
    return seconds * CALIBRATION_S / calibration


class Calibrator:
    """Samples the machine's speed between calls into the package.

    Called before each call, it runs _calibrate when CALIBRATION_EVERY_S
    have passed since the last sample, and keeps the time it spent so that
    the pass can leave it out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def __call__(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self._last < CALIBRATION_EVERY_S:
            return
        self.samples.append(_calibrate())
        self._last = time.perf_counter()
        self.spent += self._last - start


@dataclass
class Pass:
    wall: float          # seconds, calibration left out
    calibration: float   # mean calibration time from just before to just after
    result: object       # pipeline.PassResult


def _run_loop(pipeline, workload, inputs, seed: int, seconds: float, traced: bool):
    """Closed-loop passes until the time is up, calibrated before, during and
    after each; with tracing, untraced and traced passes alternate.
    Returns the untraced and traced passes and the tracer."""
    calibrator = Calibrator()
    plain = pipeline.Tracer(enabled=False, between_calls=calibrator)
    tracer = pipeline.Tracer(enabled=True, between_calls=calibrator)
    untraced, traced_runs = [], []
    deadline = time.perf_counter() + seconds
    calibrator(force=True)
    while True:
        use_trace = traced and len(traced_runs) < len(untraced)
        tracer.run_id = len(traced_runs)
        first, spent = len(calibrator.samples) - 1, calibrator.spent
        start = time.perf_counter()
        result = pipeline.run_pass(workload, inputs, seed, tracer if use_trace else plain)
        wall = time.perf_counter() - start - (calibrator.spent - spent)
        calibrator(force=True)
        calibration = statistics.fmean(calibrator.samples[first:])
        (traced_runs if use_trace else untraced).append(Pass(wall, calibration, result))
        if time.perf_counter() >= deadline and (not traced or traced_runs):
            return untraced, traced_runs, tracer


def _end_to_end(untraced: list[Pass], setup_times: list[float]) -> dict:
    """Times are medians of normalised passes; see _calibrate."""
    return {
        "run_s": (statistics.median(_normalised(p.wall, p.calibration) for p in untraced), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "points_per_s": (statistics.median(
            p.result.points / _normalised(p.result.trace_s, p.calibration) for p in untraced),
            "1/s"),
        "certify_rel_gap": (max(g for p in untraced for g in p.result.rel_gaps), "1"),
    }


def _per_layer(untraced: list[Pass], traced_runs: list[Pass], spans) -> dict:
    """Medians over traced passes of the per-layer metrics, times and rates
    normalised like the end-to-end ones."""
    self_by_run = _self_times(spans)
    probe_s = defaultdict(float)
    for _, _, run_id, name, start, end in spans:
        if name == "bench.probe":
            probe_s[run_id] += end - start
    units = {"bnb.boxes": "count", "bnb.boxes_per_s": "1/s", "bnb.converged_ratio": "1",
             "network.jacobian_entries_per_s": "1/s", "sampling.block_mb": "MiB"}
    rows = []
    for run_id, p in enumerate(traced_runs):
        own = self_by_run[run_id]
        row = {metric: own.get(name, 0.0) for metric, name in SPAN_METRICS.items()}
        bnb_s = row["bnb.max_s"] + row["bnb.sqrt_s"]
        gen_s = sum(row[f"sampling.{k}_gen_s"] for k in ("sobol", "halton", "random"))
        result = p.result
        row.update({
            "bnb.boxes": result.boxes,
            "bnb.boxes_per_s": result.boxes / bnb_s,
            "bnb.converged_ratio": result.converged / len(result.rel_gaps),
            "network.jacobian_entries_per_s":
                result.jacobian_entries / row["network.jacobian_batch_s"],
            "sampling.reduce_s":
                row["sampling.trace_s"] - gen_s - row["network.jacobian_batch_s"],
            "sampling.block_mb": result.block_bytes / 2 ** 20,
            # the probes re-generate points; untraced passes have no such work
            "trace.overhead_s": p.wall - probe_s[run_id],
        })
        for name, value in row.items():
            unit = units.get(name, "s")
            if unit == "s":
                row[name] = _normalised(value, p.calibration)
            elif unit == "1/s":
                row[name] = value * p.calibration / CALIBRATION_S
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] -= statistics.median(
        _normalised(p.wall, p.calibration) for p in untraced)
    return {name: (value, units.get(name, "s")) for name, value in metrics.items()}


def _layer_self_times(spans) -> dict[str, float]:
    """Median over traced passes of each layer's self time (layer = span
    name up to the first dot; "bench" is the harness's own code)."""
    per_run = []
    for own in _self_times(spans).values():
        layers = defaultdict(float)
        for name, seconds in own.items():
            layers[name.split(".")[0]] += seconds
        per_run.append(layers)
    names = sorted({name for layers in per_run for name in layers})
    return {name: statistics.median(layers.get(name, 0.0) for layers in per_run)
            for name in names}


def main(argv: list[str] | None = None) -> int:
    if not _use_source_tree():
        print(f"error: no wdn_lipschitz package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import pipeline

    args = _parse_args(argv, pipeline.WORKLOADS)
    workload = pipeline.WORKLOADS[args.workload]
    if args.smoke:
        workload = pipeline.smoke_size(workload)
    inputs = _setup(pipeline, workload, args.smoke)
    if args.setup_only:
        print(repr(time.time()))
        return 0

    setup_times = [] if args.trace else _setup_seconds(args)
    untraced, traced_runs, tracer = _run_loop(pipeline, workload, inputs, args.seed,
                                              args.seconds, bool(args.trace))
    runs = untraced + traced_runs
    results = [p.result for p in runs]
    digests = {r.digest for r in results}
    failures = [f for r in results for f in r.failures]
    if len(digests) > 1:
        failures.append(f"outputs differ between passes: {len(digests)} digests")
    attempted = sum(r.ops for r in results)
    details = {
        "workload": workload.name,
        "environment": _environment(args.seed),
        "passes": len(runs),
        "pass_s": [p.wall for p in runs],
        "calibration_s": [p.calibration for p in runs],
        "setup_s": setup_times,
        "output_digest": results[0].digest,
        "skipped_ops": sum(r.skipped for r in results),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if args.trace:
        metrics = _per_layer(untraced, traced_runs, tracer.spans)
        details["layer_self_s"] = _layer_self_times(tracer.spans)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            [dict(zip(("id", "parent", "run", "name", "start", "end"), s))
             for s in tracer.spans]))
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = _end_to_end(untraced, setup_times)
    print(json.dumps(details))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

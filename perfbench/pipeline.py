"""Workloads of the wdn-lipschitz benchmark.

Every workload runs the same per-network pipeline through the package's
public functions, in the order the ``analyze`` and ``convergence``
subcommands call them:

    parse_inp -> build_network -> loads_bounds -> k_network
    -> k_upper_max -> k_upper_sqrt -> k_lower_trace (per sampler and mode)
    -> AnalysisReport.to_json -> build_dae

The workloads differ in their networks and in how much work each route
gets (box budget, samplers, points).  A pass runs the pipeline once over
every network of the workload; the harness repeats passes in a closed loop
(one caller, each call waits for the previous one).

Each pass checks the certified ordering of its outputs and hashes them, so a
run whose numbers break ``point <= analytical <= interval_max <=
interval_sqrt`` or change between passes is reported as failed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wdn_lipschitz import (
    AnalysisReport,
    DimensionTooLarge,
    SampleSequence,
    build_dae,
    build_network,
    jacobian_diag_batch,
    k_lower_trace,
    k_network,
    k_upper_max,
    k_upper_sqrt,
    loads_bounds,
    parse_inp,
)

GAP_TOL = 1e-9
MODES = ("max", "sqrt")
SAMPLERS = ("random", "halton", "sobol")
FIXTURES = ("three_node", "eight_node", "anytown", "net2", "net3", "obcl")

# The scale network is generated at bench time from a fixed generator seed:
# its interval gap depends on the drawn pump curves, and across generator
# seeds that alone spread certify_rel_gap by about a fifth of its median.
# The workload seed still drives the random sampler.
SCALE_COUNTS = (4000, 2, 3, 5000, 2, 0)
SCALE_SMOKE_COUNTS = (1000, 2, 3, 1200, 2, 0)
SCALE_NETWORK_SEED = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    networks: str           # comma list of fixture names, or "scale"
    max_boxes: int          # interval box budget per mode
    points: int             # sampled points per k_lower_trace call


WORKLOADS = {
    w.name: w for w in (
        # BnB does almost all the work; the short point route feeds the ordering gate
        Workload("certify-fixtures", ",".join(FIXTURES), max_boxes=400, points=1000),
        # the convergence subcommand's work; the interval route stops at the root box
        Workload("point-convergence", "net3,obcl", max_boxes=1, points=100_000),
        # few boxes and points over a large n
        Workload("scale-5k", "scale", max_boxes=4, points=10_000),
    )
}


def smoke_size(workload: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    return Workload(workload.name, workload.networks, max_boxes=min(workload.max_boxes, 8),
                    points=min(workload.points, 1000))


@dataclass(frozen=True)
class NetworkInput:
    name: str
    inp_text: str
    bounds_text: str


def load_inputs(workload: Workload, root: Path, smoke: bool) -> list[NetworkInput]:
    """Read the fixture texts, or generate the scale network, outside the timed loop."""
    if workload.networks == "scale":
        spec = importlib.util.spec_from_file_location(
            "gen_fixtures", root / "scripts" / "gen_fixtures.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        counts = SCALE_SMOKE_COUNTS if smoke else SCALE_COUNTS
        inp_text, bounds_text = gen.synthetic("scale", counts, SCALE_NETWORK_SEED)
        return [NetworkInput("scale", inp_text, bounds_text)]
    fixtures = root / "fixtures"
    return [NetworkInput(name, (fixtures / f"{name}.inp").read_text(),
                         (fixtures / f"{name}_bounds.csv").read_text())
            for name in workload.networks.split(",")]


class Tracer:
    """Times each call into a layer; when enabled, also records a span.

    A span is (id, parent id, run id, name, start, end) in perf_counter
    seconds.  Spans stay in memory until the harness writes them out.
    ``between_calls`` runs before each call, outside its span and timing.
    """

    def __init__(self, enabled: bool, between_calls=lambda: None):
        self.enabled = enabled
        self.between_calls = between_calls
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.run_id = 0
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        self.spans.append((span_id, self._stack[-1], self.run_id, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, self.spans[span_id][1], self.run_id,
                                   name, start, end)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) and its wall time in seconds."""
        self.between_calls()
        with self.span(name):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        return value, seconds


@dataclass
class PassResult:
    ops: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)
    rel_gaps: list[float] = field(default_factory=list)
    boxes: int = 0
    converged: int = 0
    points: int = 0
    trace_s: float = 0.0
    jacobian_entries: int = 0
    block_bytes: int = 0
    digest: str = ""


def _checkpoints(n: int) -> tuple[int, ...]:
    """Each power of ten below n, then n."""
    marks = []
    mark = 10
    while mark < n:
        marks.append(mark)
        mark *= 10
    return (*marks, n)


def _probe(tracer: Tracer, kind: str, net, box, n: int, seed: int, out: PassResult) -> None:
    """Re-generate the points of one trace and evaluate their Jacobians
    block by block, so the trace splits into generation, Jacobian and
    reduction (traced runs only)."""
    with tracer.span("bench.probe"):
        try:
            with tracer.span(f"sampling.{kind}_gen"):
                blocks = SampleSequence(kind, net.n_links, seed).blocks(n)
        except DimensionTooLarge:
            return
        while True:
            with tracer.span(f"sampling.{kind}_gen"):
                points = next(blocks, None)
            if points is None:
                return
            q = np.clip(box.lo + points * (box.hi - box.lo), box.lo, box.hi)
            with tracer.span("network.jacobian_batch"):
                jacobian_diag_batch(net, q)
            out.jacobian_entries += q.size
            out.block_bytes = max(out.block_bytes, points.nbytes)


def _nondecreasing(trace: list[tuple[int, float]]) -> bool:
    return all(a[1] <= b[1] for a, b in zip(trace, trace[1:]))


def _run_network(item: NetworkInput, workload: Workload, seed: int, tracer: Tracer,
                 out: PassResult, digest) -> None:
    def call(name, fn, *args, **kwargs):
        out.ops += 1
        return tracer.call(name, fn, *args, **kwargs)

    desc, _ = call("inp.parse", parse_inp, item.inp_text)
    net, _ = call("network.build", build_network, desc)
    box, _ = call("bounds.load", loads_bounds, item.bounds_text, net)
    analytical, t_analytical = call("analytical.k_network", k_network, net, box)
    upper_max, t_max = call("bnb.max", k_upper_max, net, box, GAP_TOL, workload.max_boxes)
    upper_sqrt, t_sqrt = call("bnb.sqrt", k_upper_sqrt, net, box, GAP_TOL, workload.max_boxes)
    for est in (upper_max, upper_sqrt):
        out.rel_gaps.append(est.gap / est.value)
        out.boxes += est.effort
        out.converged += est.gap <= GAP_TOL

    best = {}
    marks = _checkpoints(workload.points)
    for kind in SAMPLERS:
        for mode in MODES:
            try:
                (est, trace), seconds = call("sampling.trace", k_lower_trace, net, box, kind,
                                             workload.points, mode=mode, seed=seed,
                                             checkpoints=marks)
            except DimensionTooLarge:
                if kind != "sobol":
                    raise
                out.skipped += 1
                if tracer.enabled:
                    _probe(tracer, kind, net, box, workload.points, seed, out)
                continue
            out.points += workload.points
            out.trace_s += seconds
            if not _nondecreasing(trace) or trace[-1] != (workload.points, est.value):
                out.failures.append(f"{item.name}: {kind} {mode} trace is not a prefix maximum")
            digest.update(f"{item.name} {kind} {mode} {trace!r}\n".encode())
            if mode not in best or est.value > best[mode][0].value:
                best[mode] = (est, seconds)
            if tracer.enabled:
                _probe(tracer, kind, net, box, workload.points, seed, out)

    point_max, point_sqrt = best["max"][0].value, best["sqrt"][0].value
    ordering = {
        "point_max <= analytical": point_max <= analytical.value,
        "analytical <= interval_max": analytical.value <= upper_max.value,
        "interval_max <= interval_sqrt": upper_max.value <= upper_sqrt.value,
        "point_sqrt <= interval_sqrt": point_sqrt <= upper_sqrt.value,
    }
    out.failures += [f"{item.name}: {rule} violated" for rule, ok in ordering.items() if not ok]
    digest.update(f"{item.name} {analytical.value!r} {upper_max.value!r} "
                  f"{upper_sqrt.value!r}\n".encode())

    report = AnalysisReport.for_network(item.name, net, {"gap": GAP_TOL,
                                                         "max_boxes": workload.max_boxes,
                                                         "samples": workload.points,
                                                         "seed": seed})
    report.add("analytical", analytical, t_analytical)
    report.add("interval_max", upper_max, t_max)
    report.add("interval_sqrt", upper_sqrt, t_sqrt)
    report.add("point_max", *best["max"])
    report.add("point_sqrt", *best["sqrt"])
    call("report.to_json", report.to_json)
    call("dae.build", build_dae, net, "discrete", 1.0)


def run_pass(workload: Workload, inputs: list[NetworkInput], seed: int,
             tracer: Tracer) -> PassResult:
    """One closed-loop pass over the workload's networks.

    An exception other than the Sobol typed skip is a failure of its
    network; the pass goes on with the next network.
    """
    out = PassResult()
    digest = hashlib.sha256()
    with tracer.span("bench.pass"):
        for item in inputs:
            with tracer.span("bench.network"):
                try:
                    _run_network(item, workload, seed, tracer, out, digest)
                except Exception as exc:  # noqa: BLE001 - counted, then reported
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    out.failures.append(f"{item.name}: {type(exc).__name__}: {exc} "
                                        f"({where.filename}:{where.lineno})")
    out.digest = digest.hexdigest()
    return out

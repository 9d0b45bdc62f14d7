"""The public names and call shapes that the benchmark in ``perfbench/`` uses.

One reduced pass of each workload runs through ``perfbench/pipeline.py``
in-process, so a change to an exported name or a signature that the
benchmark calls fails here instead of in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_pipeline():
    spec = importlib.util.spec_from_file_location("pipeline", ROOT / "perfbench" / "pipeline.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look up their module in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


pipeline = load_pipeline()


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_smoke_pass_runs_clean(name):
    workload = pipeline.smoke_size(pipeline.WORKLOADS[name])
    inputs = pipeline.load_inputs(workload, ROOT, smoke=True)
    result = pipeline.run_pass(workload, inputs, 1, pipeline.Tracer(False))
    assert result.failures == []
    assert result.digest
    # the scale network has more links than the Sobol table has dimensions
    assert (result.skipped > 0) == (name == "scale-5k")


# One H-W pipe held at one flow, where numpy's pow is an ulp above libm's:
# the max point trace must still not exceed the analytical constant.
ONE_PIPE_INP = """[JUNCTIONS]
J1 0 0
[RESERVOIRS]
R1 100
[PIPES]
P1 R1 J1 1000 12 100
[OPTIONS]
UNITS GPM
HEADLOSS H-W
"""


def test_ordering_gate_holds_on_a_degenerate_one_pipe_box():
    workload = pipeline.smoke_size(pipeline.WORKLOADS["certify-fixtures"])
    item = pipeline.NetworkInput("one_pipe", ONE_PIPE_INP,
                                 "link_id,q_min,q_max\nP1,625.9446599438597,625.9446599438597\n")
    result = pipeline.run_pass(workload, [item], 1, pipeline.Tracer(False))
    assert result.failures == []

from __future__ import annotations

import math

import numpy as np
import pytest
from mpmath import mp, mpf, power

from wdn_lipschitz import (
    build_network,
    default_box,
    eval_f_batch,
    load_bounds,
    loads_bounds,
    pump_max_flow,
    save_bounds,
)
from wdn_lipschitz.bounds import box_from_intervals
from wdn_lipschitz.errors import (
    BoundsError,
    DuplicateLink,
    InvertedInterval,
    MissingLink,
    NoPumps,
    PumpNonpositiveLower,
    UnknownLink,
)

from conftest import make_single_pipe, make_single_pump, make_valve_network

mp.dps = 50

# frozen oracle: (393.7008 / 3.746e-6) ** (1 / 2.59)
PUMP_MAX_FLOW_BENCH = 1250.6687181083123


def bounds_text(rows: list[str]) -> str:
    return "\n".join(["link_id,q_min,q_max", *rows, ""])


def test_three_node_bounds_file(three_node):
    _, net, box = three_node
    assert box.lo.tolist() == [0.0, 1.0]
    assert box.hi.tolist() == [922.5, 922.5]
    assert box.link_ids == ("P1", "PU1")
    assert box.kinds == ("pipe", "pump")


def test_pump_nonpositive_lower_rejected(three_node):
    _, net, _ = three_node
    with pytest.raises(PumpNonpositiveLower):
        loads_bounds(bounds_text(["P1,0,900", "PU1,0,900"]), net)
    with pytest.raises(PumpNonpositiveLower):
        loads_bounds(bounds_text(["P1,0,900", "PU1,-2,900"]), net)


def test_missing_link(three_node):
    _, net, _ = three_node
    with pytest.raises(MissingLink):
        loads_bounds(bounds_text(["PU1,1,900"]), net)


def test_duplicate_link(three_node):
    _, net, _ = three_node
    with pytest.raises(DuplicateLink):
        loads_bounds(bounds_text(["P1,0,900", "P1,0,800", "PU1,1,900"]), net)


def test_inverted_interval(three_node):
    _, net, _ = three_node
    with pytest.raises(InvertedInterval):
        loads_bounds(bounds_text(["P1,5,-5", "PU1,1,900"]), net)


def test_unknown_link(three_node):
    _, net, _ = three_node
    with pytest.raises(UnknownLink):
        loads_bounds(bounds_text(["P1,0,900", "PU1,1,900", "PX,0,1"]), net)


def test_bad_header_and_nonnumeric(three_node):
    _, net, _ = three_node
    with pytest.raises(BoundsError):
        loads_bounds("id,lo,hi\nP1,0,900\nPU1,1,900\n", net)
    with pytest.raises(BoundsError):
        loads_bounds(bounds_text(["P1,zero,900", "PU1,1,900"]), net)


def test_nonfinite_bound_rejected(three_node):
    _, net, _ = three_node
    with pytest.raises(BoundsError):
        loads_bounds(bounds_text(["P1,0,inf", "PU1,1,900"]), net)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    net = build_network(make_valve_network())
    awkward = {
        "P1": (-math.pi * 100, 1e17 / 3),
        "P2": (0.1, 0.30000000000000004),
        "PU1": (5e-324, 1.0000000000000002),
        "PU2": (1e-6, 922.5),
        "V1": (-1.0, 1.0),
        "V2": (-2.2250738585072014e-308, 0.0),
    }
    box = box_from_intervals(net, awkward)
    path = tmp_path / "b.csv"
    save_bounds(box, path)
    again = load_bounds(path, net)
    assert np.array_equal(again.lo, box.lo)
    assert np.array_equal(again.hi, box.hi)
    save_bounds(again, tmp_path / "b2.csv")
    assert (tmp_path / "b2.csv").read_bytes() == path.read_bytes()


class TestPumpMaxFlow:
    def test_hand_values(self):
        assert pump_max_flow(16.0, 1.0, 2.0, 1.0) == pytest.approx(4.0)
        assert pump_max_flow(16.0, 1.0, 2.0, 0.5) == pytest.approx(2.0)

    def test_benchmark_oracle_value(self):
        exact = power(mpf("393.7008") / mpf("3.746e-6"), 1 / mpf("2.59"))
        assert float(exact) == pytest.approx(PUMP_MAX_FLOW_BENCH, rel=1e-15)
        got = pump_max_flow(393.7008, 3.746e-6, 2.59, 1.0)
        assert got == pytest.approx(PUMP_MAX_FLOW_BENCH, rel=1e-12)

    def test_headgain_vanishes_at_max_flow(self):
        q = pump_max_flow(393.7008, 3.746e-6, 2.59, 1.0)
        net = build_network(make_single_pump(393.7008, 3.746e-6, 2.59, 1.0))
        assert eval_f_batch(net, np.array([[q]]))[0, 0] == pytest.approx(0.0, abs=1e-9)


class TestDefaultBox:
    def test_three_node(self, three_node):
        _, net, _ = three_node
        box = default_box(net)
        cap = pump_max_flow(393.7008, 3.746e-6, 2.59, 1.0)
        assert box.lo.tolist() == [-cap, 1e-6]
        assert box.hi.tolist() == [cap, cap]

    def test_two_identical_pumps_share_cap(self):
        from wdn_lipschitz.inp import (JunctionDesc, NetworkDescription,
                                       PumpDesc, ReservoirDesc)
        desc = NetworkDescription(
            flow_units="GPM", headloss_exponent=2.0,
            junctions=[JunctionDesc("J1", 0.0)],
            reservoirs=[ReservoirDesc("R1", 10.0)], tanks=[], pipes=[],
            pumps=[PumpDesc("A", "R1", "J1", 16.0, 1.0, 2.0, 1.0),
                   PumpDesc("B", "R1", "J1", 16.0, 1.0, 2.0, 1.0)],
            valves=[],
        )
        net = build_network(desc)
        box = default_box(net)
        assert box.lo.tolist() == [1e-6, 1e-6]
        assert box.hi.tolist() == [4.0, 4.0]

    def test_no_pumps_raises(self, fixtures):
        _, net, _ = fixtures["net2"]
        with pytest.raises(NoPumps):
            default_box(net)

    def test_custom_floor(self, three_node):
        _, net, _ = three_node
        box = default_box(net, floor=0.5)
        assert box.lo[net.link_ids.index("PU1")] == 0.5


def test_single_pipe_box_widths():
    net = build_network(make_single_pipe())
    box = box_from_intervals(net, {"P1": (-3.0, 7.0)})
    assert box.hi[0] - box.lo[0] == 10.0
    assert len(box) == 1

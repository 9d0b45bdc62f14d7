from __future__ import annotations

import math

import numpy as np
import pytest
from mpmath import mp, mpf, power

from wdn_lipschitz import (
    FlowBox,
    build_network,
    default_box,
    eval_f,
    interval_bracket,
    k_lower_trace,
    k_network,
    k_upper_max,
    k_upper_sqrt,
    load_bounds,
    loads_bounds,
    parse_inp,
)
from wdn_lipschitz.bounds import PUMP_FLOW_FLOOR, pump_max_flow
from wdn_lipschitz.errors import (
    BoundsError,
    DuplicateLink,
    InvertedInterval,
    MissingLink,
    NoPumps,
    PumpNonpositiveLower,
    UnknownLink,
)

from conftest import bounds_csv, make_box, make_single_pipe, make_single_pump, make_valve_network

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


def test_blank_rows_are_skipped(three_node):
    _, net, box = three_node
    blank = loads_bounds(bounds_text(["P1,0,922.5", "", "  ", "PU1,1,922.5"]), net)
    assert blank.lo.tolist() == box.lo.tolist()
    assert blank.hi.tolist() == box.hi.tolist()


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


def test_missing_link_is_the_first_unseen_in_stacked_order(valve_net):
    _, net, _ = valve_net
    rows = ["V2,0,1", "PU2,1,2", "P1,0,1", "PU1,1,2"]
    with pytest.raises(MissingLink) as err:
        loads_bounds(bounds_text(rows), net)
    assert str(err.value) == "no bounds given for link 'P2'"


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


def loaded_table(box) -> dict[str, tuple[float, float]]:
    return {link_id: (float(lo), float(hi))
            for link_id, lo, hi in zip(box.link_ids, box.lo, box.hi)}


def test_save_load_round_trip_is_bit_exact(tmp_path):
    # repr form: shortest round-trip decimals, subnormals and all
    net = build_network(make_valve_network())
    text = bounds_text([
        "P1,-314.1592653589793,3.3333333333333332e+16",
        "P2,0.1,0.30000000000000004",
        "PU1,5e-324,1.0000000000000002",
        "PU2,1e-06,922.5",
        "V1,-1.0,1.0",
        "V2,-2.2250738585072014e-308,0.0",
    ])
    path = tmp_path / "b.csv"
    path.write_text(text)
    box = load_bounds(path, net)
    assert box.link_ids == ("P1", "P2", "PU1", "PU2", "V1", "V2")
    assert [x.hex() for x in box.lo.tolist()] == [x.hex() for x in (
        -math.pi * 100, 0.1, 5e-324, 1e-6, -1.0, -2.2250738585072014e-308)]
    assert [x.hex() for x in box.hi.tolist()] == [x.hex() for x in (
        1e17 / 3, 0.30000000000000004, 1.0000000000000002, 922.5, 1.0, 0.0)]
    assert bounds_csv(loaded_table(box)) == text


def test_save_load_round_trip_quotes_csv_ids(tmp_path):
    # ',' and '"' are legal in an INP token; a plain id stays unquoted
    net = build_network(parse_inp(
        "[JUNCTIONS]\nJ1 0 0\nJ,2 0 0\n[RESERVOIRS]\nR1 100\n[PIPES]\n"
        'P,1 J1 J,2 100 10 100\n"P" J,2 J1 100 10 100\nP1 J1 J,2 100 10 100\n'
        '[PUMPS]\nPU"1 R1 J1 HEAD C1\n[CURVES]\nC1 100 50\n'))
    text = bounds_text(['"P,1",-200.0,200.0', '"""P""",-200.0,200.0',
                        "P1,-200.0,200.0", '"PU""1",1e-06,200.0'])
    path = tmp_path / "b.csv"
    path.write_text(text)
    box = load_bounds(path, net)
    assert box.link_ids == ("P,1", '"P"', "P1", 'PU"1')
    default = default_box(net)
    assert box.lo.tobytes() == default.lo.tobytes()
    assert box.hi.tobytes() == default.hi.tobytes()
    assert bounds_csv(loaded_table(box)) == text


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
        assert eval_f(net, np.array([[q]]))[0, 0] == pytest.approx(0.0, abs=1e-9)


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

    def test_custom_floor(self, fixtures):
        # every pump's lower bound is the one constant floor
        for _, net, _ in fixtures.values():
            if net.n_pumps:
                box = default_box(net)
                pumps = slice(net.n_pipes, net.n_pipes + net.n_pumps)
                assert box.lo[pumps].tolist() == [PUMP_FLOW_FLOOR] * net.n_pumps


def test_single_pipe_box_widths():
    net = build_network(make_single_pipe())
    box = make_box(net, {"P1": (-3.0, 7.0)})
    assert box.hi[0] - box.lo[0] == 10.0
    assert len(box) == 1


def test_box_holds_read_only_copies(three_node):
    _, net, box = three_node
    for column in (box.lo, box.hi):
        assert column.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            column[1] = -5.0
    lo, hi = [0.0, 1.0], np.array([2.0, 3.0])
    made = FlowBox(link_ids=list(net.link_ids), kinds=net.kinds, lo=lo, hi=hi)
    hi[1] = 0.5
    assert made.link_ids == net.link_ids
    assert (made.lo.tolist(), made.hi.tolist()) == ([0.0, 1.0], [2.0, 3.0])
    assert not made.hi.flags.writeable


@pytest.mark.parametrize("lo, hi", [([0.0], [1.0, 2.0]), ([[0.0, 1.0]], [[1.0, 2.0]])])
def test_box_of_the_wrong_shape_is_rejected(three_node, lo, hi):
    _, net, _ = three_node
    with pytest.raises(BoundsError, match="^flow box field lengths disagree$"):
        FlowBox(link_ids=net.link_ids, kinds=net.kinds, lo=lo, hi=hi)


ENTRY_POINTS = {
    "k_network": k_network,
    "interval_max": lambda net, box: interval_bracket(net, box, "max"),
    "interval_sqrt": lambda net, box: interval_bracket(net, box, "sqrt"),
    "k_upper_max": k_upper_max,
    "k_upper_sqrt": k_upper_sqrt,
    "point_max": lambda net, box: k_lower_trace(net, box, "sobol", 10, mode="max"),
    "point_sqrt": lambda net, box: k_lower_trace(net, box, "random", 10, mode="sqrt"),
}


# both fixtures start with pipe 'P1'; three_node's second link is its pump,
# obcl's its second pipe
SWAPPED = {
    ("three_node", "obcl"): "the box has pipe 'P2', the network pump 'PU1'",
    ("obcl", "three_node"): "the box has pump 'PU1', the network pipe 'P2'",
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("net_name, box_name", sorted(SWAPPED))
def test_box_of_another_fixture_is_rejected(fixtures, entry, net_name, box_name):
    _, net, _ = fixtures[net_name]
    _, _, box = fixtures[box_name]
    with pytest.raises(BoundsError) as err:
        ENTRY_POINTS[entry](net, box)
    assert type(err.value) is BoundsError and err.value.exit_code == 3
    assert str(err.value) == ("flow box does not fit the network at stacked link 1: "
                              + SWAPPED[net_name, box_name])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_box_of_the_right_length_with_other_links_is_rejected(three_node, entry):
    _, net, box = three_node
    renamed = FlowBox(link_ids=("P1", "PU9"), kinds=box.kinds, lo=box.lo, hi=box.hi)
    with pytest.raises(BoundsError) as err:
        ENTRY_POINTS[entry](net, renamed)
    assert str(err.value) == ("flow box does not fit the network at stacked link 1: "
                              "the box has pump 'PU9', the network pump 'PU1'")
    retyped = FlowBox(link_ids=box.link_ids, kinds=("pipe", "pipe"), lo=box.lo, hi=box.hi)
    with pytest.raises(BoundsError, match="^flow box does not fit the network at stacked link 1: "
                                          "the box has pipe 'PU1', the network pump 'PU1'$"):
        ENTRY_POINTS[entry](net, retyped)


def test_box_with_fewer_links_names_the_first_missing(valve_net):
    _, net, box = valve_net
    short = FlowBox(link_ids=box.link_ids[:4], kinds=box.kinds[:4], lo=box.lo[:4],
                    hi=box.hi[:4])
    with pytest.raises(BoundsError, match="^flow box does not fit the network at stacked link 4: "
                                          "the box has no link, the network valve 'V1'$"):
        k_network(net, short)

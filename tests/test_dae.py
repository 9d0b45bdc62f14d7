from __future__ import annotations

import json

import numpy as np
import pytest

from wdn_lipschitz import (
    FlowVector,
    build_dae,
    build_network,
    dae_residual,
    eval_f,
    eval_f_batch,
    export_dae,
    junction_residual,
    tank_step,
)
from wdn_lipschitz.dae import TripletMatrix, read_matrix_market
from wdn_lipschitz.inp import (
    JunctionDesc,
    NetworkDescription,
    PipeDesc,
    PumpDesc,
    TankDesc,
    ValveDesc,
)

from conftest import FIXTURE_NAMES


def test_three_node_discrete_blocks(three_node):
    desc, net, _ = three_node
    dae = build_dae(net, "discrete", dt=60.0)
    area = desc.tanks[0].cross_section_area
    assert dae.layout.dim == 5
    assert dae.layout.z_offsets == {"x1": 0, "x2": 1, "x3": 2, "v": 3, "u": 4}
    assert dae.layout.row_offsets == {"pipes": 0, "pumps_valves": 1, "tanks": 2,
                                      "junctions": 3, "reservoirs": 4}

    # hand-built blocks: pipe J1->T1, pump R1->J1
    expected_a = np.zeros((5, 5))
    expected_a[0, 0] = -1.0   # pipe row: -h_J1
    expected_a[0, 2] = 1.0    # pipe row: +h_T1
    expected_a[1, 1] = -1.0   # pump row: -h_R1
    expected_a[1, 0] = 1.0    # pump row: +h_J1
    expected_a[2, 2] = 1.0    # tank carry-over
    expected_a[2, 3] = 60.0 / area   # tank: + dt/A * pipe inflow
    expected_a[3, 3] = 1.0    # junction: pipe leaves J1
    expected_a[3, 4] = -1.0   # junction: pump enters J1
    expected_a[4, 1] = -1.0   # reservoir pinning
    assert np.array_equal(dae.a_z.to_dense(), expected_a)

    expected_e = np.zeros((5, 5))
    expected_e[2, 2] = 1.0
    assert np.array_equal(dae.e_z.to_dense(), expected_e)
    assert dae.e_z.nnz == net.n_tanks
    assert all(v == 1.0 for v in dae.e_z.values)

    expected_f = np.zeros((5, 2))
    expected_f[0, 0] = 1.0
    expected_f[1, 1] = 1.0
    assert np.array_equal(dae.b_f.to_dense(), expected_f)

    expected_l = np.zeros((5, 2))
    expected_l[3, 0] = 1.0    # demand at J1
    expected_l[4, 1] = 1.0    # reservoir head
    assert np.array_equal(dae.b_l.to_dense(), expected_l)


def test_continuous_mode_drops_carry_over_and_dt(three_node):
    desc, net, _ = three_node
    dae = build_dae(net, "continuous")
    area = desc.tanks[0].cross_section_area
    a = dae.a_z.to_dense()
    assert a[2, 2] == 0.0
    assert a[2, 3] == pytest.approx(1.0 / area)
    assert dae.e_z.to_dense()[2, 2] == 1.0
    assert dae.layout.time_mode == "continuous"
    assert dae.layout.dt is None


def test_discrete_mode_requires_dt(three_node):
    _, net, _ = three_node
    with pytest.raises(ValueError):
        build_dae(net, "discrete")
    with pytest.raises(ValueError):
        build_dae(net, "discrete", dt=-5.0)


def test_tankless_network_is_purely_algebraic(fixtures):
    _, net, _ = fixtures["anytown"]
    dae = build_dae(net, "discrete", dt=60.0)
    assert net.n_tanks == 0
    assert dae.e_z.nnz == 0


def test_dimension_identity_on_all_fixtures(fixtures):
    for name in FIXTURE_NAMES:
        _, net, _ = fixtures[name]
        dae = build_dae(net, "discrete", dt=300.0)
        dim = (net.n_junctions + net.n_reservoirs + net.n_tanks
               + net.n_pipes + net.n_pumps + net.n_valves)
        assert dae.layout.dim == dim
        for m in (dae.e_z, dae.a_z):
            assert (m.n_rows, m.n_cols) == (dim, dim)
        assert dae.b_f.n_cols == net.n_links
        assert dae.b_l.n_cols == net.n_junctions + net.n_reservoirs
        # E has exactly one unit entry per tank, on the tank-head diagonal
        assert dae.e_z.nnz == net.n_tanks
        assert all(v == 1.0 for v in dae.e_z.values)
        x3 = dae.layout.z_offsets["x3"]
        tanks = dae.layout.row_offsets["tanks"]
        for k, (r, c) in enumerate(zip(dae.e_z.rows, dae.e_z.cols)):
            assert r == tanks + k and c == x3 + k


def test_b_f_is_one_hot_on_link_rows(fixtures):
    for name in FIXTURE_NAMES:
        _, net, _ = fixtures[name]
        dae = build_dae(net, "discrete", dt=60.0)
        dense = dae.b_f.to_dense()
        link_rows = dense[: net.n_links]
        assert np.array_equal(np.abs(link_rows), np.eye(net.n_links))
        assert not dense[net.n_links:].any()


def test_residual_vanishes_on_consistent_state(three_node):
    desc, net, _ = three_node
    dt = 60.0
    dae = build_dae(net, "discrete", dt=dt)
    demand = desc.junctions[0].base_demand
    h_res = desc.reservoirs[0].head

    q_pipe = 300.0
    q_pump = q_pipe + demand          # junction mass balance
    f_pipe, f_pump = eval_f_batch(net, np.array([[q_pipe, q_pump]]))[0]
    h_j = h_res - f_pump              # pump energy row
    h_t = h_j - f_pipe                # pipe energy row
    h_t_next = h_t + dt / desc.tanks[0].cross_section_area * q_pipe

    z = np.array([h_j, h_res, h_t, q_pipe, q_pump])
    z_next = z.copy()
    z_next[2] = h_t_next
    f_vals = eval_f(net, FlowVector(v=np.array([q_pipe]), u=np.array([q_pump])))
    loads = np.array([demand, h_res])
    res = dae_residual(dae, z, z_next, f_vals, loads)
    assert np.max(np.abs(res)) <= 1e-9

    # a pump and a valve at a tank: T1 feeds J1 through pump M1 and J2
    # through valve V1, and pipe P1 runs J1 -> T1
    desc = NetworkDescription(
        flow_units="GPM", headloss_exponent=1.852,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[], tanks=[TankDesc("T1", 0.0, 10.0, 78.5)],
        pipes=[PipeDesc("P1", "J1", "T1", 2.0e-3, 1.852)],
        pumps=[PumpDesc("M1", "T1", "J1", 100.0, 1.0e-2, 2.0, 0.9)],
        valves=[ValveDesc("V1", "T1", "J2", 4.0e-3, 0.5)],
    )
    net = build_network(desc)
    dae = build_dae(net, "discrete", dt=dt)
    flows = FlowVector(v=np.array([3.0]), u=np.array([2.0, 0.5]))
    f_vals = eval_f(net, flows)
    f_pipe, f_pump, f_valve = f_vals
    h_j1 = -f_pump                    # pump energy row, tank head skipped
    h_j2 = -f_valve                   # valve energy row, tank head skipped
    h_t = h_j1 - f_pipe               # pipe energy row
    z = np.array([h_j1, h_j2, h_t, 3.0, 2.0, 0.5])
    z_next = z.copy()
    z_next[2] = tank_step(net, np.array([h_t]), flows, dt)[0]
    loads = junction_residual(net, flows, np.zeros(net.n_junctions))
    res = dae_residual(dae, z, z_next, f_vals, loads)
    assert np.max(np.abs(res)) <= 1e-9


def test_junction_rows_negate_mass_balance(valve_net):
    _, net, box = valve_net
    dae = build_dae(net, "discrete", dt=30.0)
    a = dae.a_z.to_dense()
    off = dae.layout.row_offsets["junctions"]
    rows = a[off: off + net.n_junctions]
    g_v = rows[:, dae.layout.z_offsets["v"]: dae.layout.z_offsets["v"] + net.n_pipes]
    g_u = rows[:, dae.layout.z_offsets["u"]:]
    rng = np.random.default_rng(31)
    q = box.lo + rng.uniform(0, 1, net.n_links) * (box.hi - box.lo)
    flows = FlowVector.from_stacked(net, q)
    demand = rng.uniform(0, 10, net.n_junctions)
    lhs = g_v @ flows.v + g_u @ flows.u + demand
    assert np.allclose(lhs, -junction_residual(net, flows, demand), rtol=1e-12, atol=1e-12)


def test_pump_valve_rows_skip_tank_heads(valve_net):
    # the pump/valve block has no tank-head column by construction
    _, net, _ = valve_net
    dae = build_dae(net, "discrete", dt=60.0)
    a = dae.a_z.to_dense()
    off = dae.layout.row_offsets["pumps_valves"]
    x3 = dae.layout.z_offsets["x3"]
    block = a[off: off + net.n_pumps + net.n_valves, x3: x3 + net.n_tanks]
    assert not block.any()


def test_matrix_market_round_trip(tmp_path, three_node):
    _, net, _ = three_node
    dae = build_dae(net, "discrete", dt=60.0)
    paths = export_dae(dae, tmp_path)
    assert sorted(p.name for p in paths) == [
        "a_z.mtx", "b_f.mtx", "b_l.mtx", "e_z.mtx", "layout.json"]
    again = read_matrix_market(tmp_path / "a_z.mtx")
    assert again == dae.a_z
    layout = json.loads((tmp_path / "layout.json").read_text())
    assert layout == dae.layout.to_dict()


def test_export_is_byte_stable(tmp_path, fixtures):
    _, net, _ = fixtures["eight_node"]
    dae = build_dae(net, "discrete", dt=120.0)
    export_dae(dae, tmp_path / "one")
    export_dae(dae, tmp_path / "two")
    for name in ("e_z.mtx", "a_z.mtx", "b_f.mtx", "b_l.mtx", "layout.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_triplets_merge_and_reject_out_of_range():
    m = TripletMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)])
    assert m.nnz == 1
    assert m.to_dense()[0, 0] == 3.0
    with pytest.raises(ValueError):
        TripletMatrix.from_entries(2, 2, [(2, 0, 1.0)])


def test_reversed_pipe_swaps_neighbor_sets():
    from conftest import make_single_pipe
    desc = make_single_pipe()
    net = build_network(desc)
    assert [l.link_id for l in net.out_links["J1"]] == ["P1"]
    assert [l.link_id for l in net.in_links["J2"]] == ["P1"]
    desc.pipes[0] = type(desc.pipes[0])("P1", "J2", "J1", 1.0, 2.0)
    flipped = build_network(desc)
    assert [l.link_id for l in flipped.in_links["J1"]] == ["P1"]
    assert [l.link_id for l in flipped.out_links["J2"]] == ["P1"]
    assert flipped.in_links["J2"] == ()


def test_isolated_junction_has_empty_neighbor_sets():
    from wdn_lipschitz.inp import JunctionDesc, NetworkDescription, PipeDesc
    desc = NetworkDescription(
        flow_units="GPM", headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0),
                   JunctionDesc("LONELY", 0.0)],
        reservoirs=[], tanks=[],
        pipes=[PipeDesc("P1", "J1", "J2", 1.0, 2.0)], pumps=[], valves=[],
    )
    net = build_network(desc)
    assert net.in_links["LONELY"] == ()
    assert net.out_links["LONELY"] == ()

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdn_lipschitz import (
    build_dae,
    build_network,
    dae_residual,
    eval_f,
    export_dae,
    junction_residual,
    tank_step,
)
from wdn_lipschitz.dae import TripletMatrix
from wdn_lipschitz.inp import (
    JunctionDesc,
    NetworkDescription,
    PipeDesc,
    PumpDesc,
    TankDesc,
    ValveDesc,
)

from conftest import FIXTURE_NAMES, make_tank_network, synthetic_network

# SHA-256 of each network's DAE export: for (discrete, dt=60) and then
# continuous, over sorted(export_dae(...)), each file's name and then its
# bytes.  Any change to a row, a column, a value or the layout shows here.
FROZEN_EXPORTS = {
    "three_node": "4711d85515c78e3793fa378e3d6dcb3b706502c40b57bd8ff7716adbb9e9289c",
    "eight_node": "f1edb2eafd782fba53decfd3890af3400ba8cc2d99dcbccda005ddf56ffde5a8",
    "anytown": "1b438c1e64dfd06d22892ac1e57948ad6d770e19d3308ea300289664190fec43",
    "net2": "9ec33b58078833b50694096f5370c081cd5b64d8d88f8fe240e404ed99757d7b",
    "net3": "ea9ec77f82a3e35c2965fabb736ab2c0530cdb58fe185eecc74635b8150aafab",
    "obcl": "0e3f142234a60d7f78f3fb46384b1601583c377d6f81efc5a53c10fe51790d33",
}
# perfbench's scale network (5,002 links)
FROZEN_SCALE_EXPORT = "20b4abc4c37010edb9dd2253063040b529b93fa5395814a1b1ea60a3697da6d7"
# the fixtures have no valve and no pump at a tank; these networks do
FROZEN_VALVE_NET_EXPORT = "a532537cfe7ea55270a8f8a1adb0e8e2a05a3f41dacd3a1a6e8155b83b5cf84a"
FROZEN_TANK_NETWORK_EXPORTS = {   # make_tank_network(np.random.default_rng(seed))
    0: "db25c3cf2823d3f6370125bf68301167fe93f114110e448964a46d2f25020118",
    1: "1fb88d087788815e21f12faa06960b4036d61410de9994eda5db023b8b735ab5",
    2: "0052320fb53210a82568ad1ece13a087e962ab27257d94659fb438688c05906d",
    3: "ba758d25599bb5c0723f2ebdc01a42c89d8926a4e4a5e991732907d8371a1690",
}


def export_digest(net, directory) -> str:
    h = hashlib.sha256()
    for mode, dt in (("discrete", 60.0), ("continuous", None)):
        for path in sorted(export_dae(build_dae(net, mode, dt), directory / mode)):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_export_matches_frozen_digest(tmp_path, fixtures, name):
    _, net, _ = fixtures[name]
    assert export_digest(net, tmp_path) == FROZEN_EXPORTS[name]


def test_scale_export_matches_frozen_digest(tmp_path):
    net = synthetic_network((4000, 2, 3, 5000, 2, 0), 5000)
    assert net.n_links == 5002
    assert export_digest(net, tmp_path) == FROZEN_SCALE_EXPORT


def test_tank_link_exports_match_frozen_digests(tmp_path, valve_net):
    assert export_digest(valve_net[1], tmp_path / "valve") == FROZEN_VALVE_NET_EXPORT
    for seed, expected in FROZEN_TANK_NETWORK_EXPORTS.items():
        net = make_tank_network(np.random.default_rng(seed))
        assert export_digest(net, tmp_path / str(seed)) == expected, seed


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


def test_unknown_mode_rejected(three_node):
    _, net, _ = three_node
    with pytest.raises(ValueError, match=r"^unknown mode 'implicit'$"):
        build_dae(net, "implicit", dt=60.0)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_dt_must_be_finite_and_positive(three_node, dt):
    _, net, _ = three_node
    with pytest.raises(ValueError):
        build_dae(net, "discrete", dt)
    with pytest.raises(ValueError):
        tank_step(net, np.array([10.0]), np.array([1.0, 1.0]), dt)


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
    f_pipe, f_pump = eval_f(net, np.array([[q_pipe, q_pump]]))[0]
    h_j = h_res - f_pump              # pump energy row
    h_t = h_j - f_pipe                # pipe energy row
    h_t_next = h_t + dt / desc.tanks[0].cross_section_area * q_pipe

    z = np.array([h_j, h_res, h_t, q_pipe, q_pump])
    z_next = z.copy()
    z_next[2] = h_t_next
    f_vals = eval_f(net, np.array([q_pipe, q_pump]))
    loads = np.array([demand, h_res])
    res = dae_residual(dae, z, z_next, f_vals, loads)
    assert np.max(np.abs(res)) <= 1e-9

    # a pump and a valve at a tank: T1 feeds J1 through pump M1 and J2
    # through valve V1, and pipe P1 runs J1 -> T1
    desc = NetworkDescription(
        flow_units="GPM", headloss_exponent=1.852,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[], tanks=[TankDesc("T1", 0.0, 10.0, 78.5)],
        pipes=[PipeDesc("P1", "J1", "T1", 2.0e-3)],
        pumps=[PumpDesc("M1", "T1", "J1", 100.0, 1.0e-2, 2.0, 0.9)],
        valves=[ValveDesc("V1", "T1", "J2", 4.0e-3, 0.5)],
    )
    net = build_network(desc)
    dae = build_dae(net, "discrete", dt=dt)
    q = np.array([3.0, 2.0, 0.5])
    f_vals = eval_f(net, q)
    f_pipe, f_pump, f_valve = f_vals
    h_j1 = -f_pump                    # pump energy row, tank head skipped
    h_j2 = -f_valve                   # valve energy row, tank head skipped
    h_t = h_j1 - f_pipe               # pipe energy row
    z = np.array([h_j1, h_j2, h_t, 3.0, 2.0, 0.5])
    z_next = z.copy()
    z_next[2] = tank_step(net, np.array([h_t]), q, dt)[0]
    loads = junction_residual(net, q, np.zeros(net.n_junctions))
    res = dae_residual(dae, z, z_next, f_vals, loads)
    assert np.max(np.abs(res)) <= 1e-9


def rounding_scale(dae, z, z_next, f_values, loads) -> np.ndarray:
    """Per row, the residual's terms summed in absolute value: the scale of
    its rounding error."""
    return (np.abs(dae.a_z.to_dense()) @ np.abs(z) + np.abs(dae.b_f.to_dense()) @ np.abs(f_values)
            + np.abs(dae.b_l.to_dense()) @ np.abs(loads)
            + np.abs(dae.e_z.to_dense()) @ np.abs(z_next))


def test_residual_matches_dense_product(fixtures):
    rng = np.random.default_rng(41)
    for name in FIXTURE_NAMES:
        _, net, _ = fixtures[name]
        dae = build_dae(net, "discrete", dt=60.0)
        z, z_next = rng.uniform(-100.0, 100.0, (2, dae.layout.dim))
        f_vals = rng.uniform(-100.0, 100.0, net.n_links)
        loads = rng.uniform(0.0, 100.0, net.n_junctions + net.n_reservoirs)
        dense = (dae.a_z.to_dense() @ z + dae.b_f.to_dense() @ f_vals
                 + dae.b_l.to_dense() @ loads - dae.e_z.to_dense() @ z_next)
        res = dae_residual(dae, z, z_next, f_vals, loads)
        scale = rounding_scale(dae, z, z_next, f_vals, loads)
        assert np.all(np.abs(res - dense) <= 1e-12 * scale), name


def test_residual_allocates_no_dense_matrix():
    # 1,000 junctions: one dense dim x dim matrix would be about 38 MB
    net = synthetic_network((1000, 2, 3, 1200, 2, 0), 5000)
    dae = build_dae(net, "discrete", dt=60.0)
    z = np.ones(dae.layout.dim)
    f_vals = np.ones(net.n_links)
    loads = np.ones(net.n_junctions + net.n_reservoirs)
    tracemalloc.start()
    try:
        dae_residual(dae, z, z, f_vals, loads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=100, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), state_seed=st.integers(0, 2 ** 32 - 1))
def test_tank_and_junction_rows_agree_with_component_laws(net_seed, state_seed):
    # pumps and valves at tanks: the tank rows are tank_step and the
    # junction rows are -junction_residual, up to rounding
    net = make_tank_network(np.random.default_rng(net_seed))
    rng = np.random.default_rng(state_seed)
    dt = float(rng.uniform(1.0, 3600.0))
    dae = build_dae(net, "discrete", dt)
    q = rng.uniform(-500.0, 500.0, net.n_links)
    q[net.n_pipes:net.n_pipes + net.n_pumps] = rng.uniform(1e-3, 500.0, net.n_pumps)
    heads = rng.uniform(0.0, 200.0, len(net.node_pos))
    demand = rng.uniform(-50.0, 50.0, net.n_junctions)
    x3 = dae.layout.z_offsets["x3"]
    z = np.concatenate([heads, q])
    z_next = z.copy()
    z_next[x3:x3 + net.n_tanks] = tank_step(net, heads[x3:], q, dt)
    f_vals = eval_f(net, q)
    loads = np.concatenate([demand, heads[net.n_junctions:x3]])
    res = dae_residual(dae, z, z_next, f_vals, loads)
    tol = 1e-13 * rounding_scale(dae, z, z_next, f_vals, loads)

    tanks = slice(dae.layout.row_offsets["tanks"], dae.layout.row_offsets["tanks"] + net.n_tanks)
    assert np.all(np.abs(res[tanks]) <= tol[tanks])
    junctions = slice(dae.layout.row_offsets["junctions"],
                      dae.layout.row_offsets["junctions"] + net.n_junctions)
    assert np.all(np.abs(res[junctions] + junction_residual(net, q, demand)) <= tol[junctions])


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
    demand = rng.uniform(0, 10, net.n_junctions)
    lhs = g_v @ q[:net.n_pipes] + g_u @ q[net.n_pipes:] + demand
    assert np.allclose(lhs, -junction_residual(net, q, demand), rtol=1e-12, atol=1e-12)


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
    layout = json.loads((tmp_path / "layout.json").read_text())
    assert layout == asdict(dae.layout)


def test_export_is_byte_stable(tmp_path, fixtures):
    _, net, _ = fixtures["eight_node"]
    dae = build_dae(net, "discrete", dt=120.0)
    export_dae(dae, tmp_path / "one")
    export_dae(dae, tmp_path / "two")
    for name in ("e_z.mtx", "a_z.mtx", "b_f.mtx", "b_l.mtx", "layout.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_triplets_merge_and_reject_out_of_range():
    m = TripletMatrix.from_entries(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 0.0])
    assert m.nnz == 1
    assert m.to_dense()[0, 0] == 3.0
    # repeated cells sum in entry order
    assert TripletMatrix.from_entries(1, 1, [0, 0, 0], [0, 0, 0], [1e16, 1.0, -1e16]).nnz == 0
    assert TripletMatrix.from_entries(1, 1, [0, 0, 0], [0, 0, 0], [1e16, -1e16, 1.0]
                                      ).values.tolist() == [1.0]
    with pytest.raises(ValueError):
        TripletMatrix.from_entries(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError, match=r"^expected a vector of 2, got shape \(3,\)$"):
        m.matvec(np.zeros(3))


def as_columns(entries):
    """(row, col, value) entries as the three columns from_entries takes."""
    return (np.array([r for r, _, _ in entries], dtype=np.int64),
            np.array([c for _, c, _ in entries], dtype=np.int64),
            np.array([val for _, _, val in entries], dtype=float))


def dict_merge(entries):
    """The per-entry dict merge from_entries replaced: (rows, cols, values)."""
    merged: dict[tuple[int, int], float] = {}
    for r, c, val in entries:
        merged[(r, c)] = merged.get((r, c), 0.0) + float(val)
    keys = sorted(k for k, val in merged.items() if val != 0.0)
    return [k[0] for k in keys], [k[1] for k in keys], [merged[k] for k in keys]


@st.composite
def triplet_entries(draw):
    """A shape (possibly 0 rows or 0 columns) and in-range entries with
    repeated cells, exact +x/-x pairs, -0.0, order-dependent sums and
    sums that overflow."""
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if n_rows == 0 or n_cols == 0:
        return n_rows, n_cols, []
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16]),
                      st.floats())
    entries = draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                      st.integers(0, n_cols - 1), value), max_size=24))
    if entries:
        entries += [(r, c, -v) for r, c, v in draw(st.lists(st.sampled_from(entries),
                                                             max_size=6))]
    return n_rows, n_cols, draw(st.permutations(entries))


@settings(max_examples=300, deadline=None)
@given(drawn=triplet_entries())
@example(drawn=(1, 1, [(0, 0, math.nan), (0, 0, -math.nan)]))
def test_triplet_merge_is_the_dict_merge_bit_for_bit(drawn):
    n_rows, n_cols, entries = drawn
    m = TripletMatrix.from_entries(n_rows, n_cols, *as_columns(entries))
    rows, cols, values = dict_merge(entries)
    assert m.rows.tolist() == rows
    assert m.cols.tolist() == cols
    # IEEE 754 leaves the sign of a NaN open, and np.add.at and CPython's +
    # give nan + -nan opposite signs, so NaN cells compare by position;
    # build_dae makes no NaN entry
    expected = np.array(values, dtype=np.float64)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(m.values), nan)
    assert m.values[~nan].tobytes() == expected[~nan].tobytes()
    for array, dtype in ((m.rows, np.int64), (m.cols, np.int64), (m.values, np.float64)):
        assert array.dtype == dtype
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@settings(max_examples=100, deadline=None)
@given(drawn=triplet_entries(), data=st.data())
def test_triplet_error_names_the_first_entry_out_of_range(drawn, data):
    n_rows, n_cols, entries = drawn
    bad = [(data.draw(st.sampled_from([-1, 0, n_rows])), data.draw(st.sampled_from([-1, n_cols])),
            1.0), (n_rows + 7, 0, 1.0)]
    first = data.draw(st.integers(0, len(entries)))
    second = data.draw(st.integers(first + 1, len(entries) + 1))
    entries = list(entries)
    entries.insert(first, bad[0])
    entries.insert(second, bad[1])
    r, c, _ = bad[0]
    with pytest.raises(ValueError, match=rf"^entry \({r},{c}\) outside {n_rows}x{n_cols}$"):
        TripletMatrix.from_entries(n_rows, n_cols, *as_columns(entries))


def test_reversed_pipe_swaps_neighbor_sets():
    from conftest import make_single_pipe
    desc = make_single_pipe()
    net = build_network(desc)
    j1, j2 = net.node_pos["J1"], net.node_pos["J2"]
    assert [net.from_pos[0], net.to_pos[0]] == [j1, j2]
    assert junction_residual(net, [3.0], [0.0, 0.0]).tolist() == [-3.0, 3.0]
    flipped = build_network(
        replace(desc, pipes=[replace(desc.pipes[0], from_node="J2", to_node="J1")]))
    assert [flipped.from_pos[0], flipped.to_pos[0]] == [j2, j1]
    assert junction_residual(flipped, [3.0], [0.0, 0.0]).tolist() == [3.0, -3.0]


def isolated_junction_network():
    """J1 -> J2 through P1, and a junction LONELY that no link touches."""
    return build_network(NetworkDescription(
        flow_units="GPM", headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0),
                   JunctionDesc("LONELY", 0.0)],
        reservoirs=[], tanks=[],
        pipes=[PipeDesc("P1", "J1", "J2", 1.0)], pumps=[], valves=[],
    ))


def test_isolated_junction_has_empty_neighbor_sets():
    net = isolated_junction_network()
    lonely = net.node_pos["LONELY"]
    assert lonely not in net.from_pos and lonely not in net.to_pos
    assert junction_residual(net, [5.0], [0.0, 0.0, 2.5])[lonely] == -2.5
    dae = build_dae(net, "continuous")
    row = dae.a_z.to_dense()[dae.layout.row_offsets["junctions"] + lonely]
    assert not row.any()


def self_loop_network():
    """A pipe whose two ends are one junction, beside a pipe into a tank."""
    return build_network(NetworkDescription(
        flow_units="GPM", headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0, 4.0), JunctionDesc("J2", 0.0)],
        reservoirs=[], tanks=[TankDesc("T1", 10.0, 5.0, 300.0)],
        pipes=[PipeDesc("LOOP", "J1", "J1", 1.0),
               PipeDesc("P1", "J1", "J2", 1.0),
               PipeDesc("P2", "J2", "T1", 1.0)],
        pumps=[], valves=[],
    ))


def reference_net_inflow(net, q: np.ndarray, node_id: str) -> float:
    """Inflow minus outflow at one node, found by node id in net.desc alone:
    every stacked flow entering it and every one leaving it, negated, summed
    exactly by math.fsum."""
    desc = net.desc
    links = desc.pipes + desc.pumps + desc.valves
    return math.fsum([float(q[k]) for k, l in enumerate(links) if l.to_node == node_id]
                     + [-float(q[k]) for k, l in enumerate(links) if l.from_node == node_id])


def reference_incidence(net, node_id: str) -> np.ndarray:
    """Per stacked flow: +1 if it enters the node, -1 if it leaves, 0 for
    neither or both, by node id in net.desc alone."""
    desc = net.desc
    return np.array([float(l.to_node == node_id) - float(l.from_node == node_id)
                     for l in desc.pipes + desc.pumps + desc.valves])


def reference_head_columns(net) -> dict[str, int]:
    """Each node's head column, by node id in net.desc alone."""
    desc = net.desc
    return {node.id: c for c, node in enumerate(desc.junctions + desc.reservoirs + desc.tanks)}


def assert_views_match_reference(net, rng: np.random.Generator):
    desc = net.desc
    q = rng.uniform(-500.0, 500.0, net.n_links)
    demand = rng.uniform(-50.0, 50.0, net.n_junctions)
    heads = rng.uniform(0.0, 200.0, net.n_tanks)
    dt = 60.0

    expected = [reference_net_inflow(net, q, j.id) - demand[i]
                for i, j in enumerate(desc.junctions)]
    assert junction_residual(net, q, demand).tobytes() == np.array(expected).tobytes()
    expected = [heads[i] + dt / t.cross_section_area * reference_net_inflow(net, q, t.id)
                for i, t in enumerate(desc.tanks)]
    assert tank_step(net, heads, q, dt).tobytes() == np.array(expected, dtype=float).tobytes()

    # every row of A, and E, rebuilt from node ids: z is (heads | flows)
    dae = build_dae(net, "discrete", dt)
    a, e = dae.a_z.to_dense(), dae.e_z.to_dense()
    dim, v = dae.layout.dim, dae.layout.z_offsets["v"]
    rows = dae.layout.row_offsets
    column = reference_head_columns(net)
    tank_ids = {t.id for t in desc.tanks}

    def head_row(node_id: str, value: float) -> np.ndarray:
        row = np.zeros(dim)
        row[column[node_id]] = value
        return row

    # energy rows: -h_from + h_to, a self-loop's two ends cancel, and a pump
    # or valve has no tank-head column
    for k, link in enumerate(desc.pipes + desc.pumps + desc.valves):
        expected_row = np.zeros(dim)
        for node_id, sign in ((link.from_node, -1.0), (link.to_node, 1.0)):
            if k < len(desc.pipes) or node_id not in tank_ids:
                expected_row[column[node_id]] += sign
        assert np.array_equal(a[k], expected_row), link.id
    for i, j in enumerate(desc.junctions):
        assert np.array_equal(a[rows["junctions"] + i, :v], np.zeros(v))
        assert np.array_equal(a[rows["junctions"] + i, v:], -reference_incidence(net, j.id))
    # tank rows: h+ in E, the carried-over h and dt/A times the incidence in A
    expected_e = np.zeros((dim, dim))
    for i, t in enumerate(desc.tanks):
        expected_e[rows["tanks"] + i] = head_row(t.id, 1.0)
        assert np.array_equal(a[rows["tanks"] + i, :v], head_row(t.id, 1.0)[:v])
        expected_row = dt / t.cross_section_area * reference_incidence(net, t.id)
        assert np.array_equal(a[rows["tanks"] + i, v:], expected_row)
    assert np.array_equal(e, expected_e)
    # reservoir rows: 0 = -x2 + h_R
    for i, r in enumerate(desc.reservoirs):
        assert np.array_equal(a[rows["reservoirs"] + i], head_row(r.id, -1.0))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_views_match_id_reference_on_fixtures(fixtures, name):
    assert_views_match_reference(fixtures[name][1], np.random.default_rng(7))


def test_views_match_id_reference_on_tank_networks():
    for seed in range(50):
        net = make_tank_network(np.random.default_rng(seed))
        assert_views_match_reference(net, np.random.default_rng(1000 + seed))


def test_views_match_id_reference_on_self_loop_and_isolated_junction():
    for net in (self_loop_network(), isolated_junction_network()):
        assert_views_match_reference(net, np.random.default_rng(3))
    net = self_loop_network()
    loop = net.link_ids.index("LOOP")
    assert net.from_pos[loop] == net.to_pos[loop] == net.node_pos["J1"]
    dae = build_dae(net, "continuous")
    assert not dae.a_z.to_dense()[:, dae.layout.z_offsets["v"] + loop].any()

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, power

from wdn_lipschitz import (
    build_network,
    eval_f,
    eval_jacobian_diag,
    jacobian_diag_batch,
    junction_residual,
    k_network,
    tank_step,
)
from wdn_lipschitz.errors import (
    DuplicateId,
    NonPositiveFlow,
    ParameterOutOfRange,
    UnknownNodeRef,
)
from wdn_lipschitz.inp import (
    JunctionDesc,
    NetworkDescription,
    PipeDesc,
    PumpDesc,
    ReservoirDesc,
    TankDesc,
    ValveDesc,
)

from conftest import make_random_network, make_single_pipe, make_single_pump, sample_interior

mp.dps = 50


def mp_pipe(resistance, exponent, q):
    q = mpf(repr(q))
    return float(mpf(repr(resistance)) * q * power(abs(q), mpf(repr(exponent)) - 1))


def mp_pump(h_s, r, nu, s, q):
    h_s, r, nu, s, q = (mpf(repr(x)) for x in (h_s, r, nu, s, q))
    return float(-s * s * h_s + r * power(q, nu) * power(s, 2 - nu))


# frozen from the mpmath oracle above (50 digits)
PIPE_AT_100 = 0.011866646570593056      # R=2.346e-6, mu=1.852, q=100
PUMP_AT_500 = -357.06547199221835       # h_s=393.7008, r=3.746e-6, nu=2.59, s=1
VALVE_AT_MINUS4 = -9.6437695467513499   # o=0.37, R=2, mu=1.852, q=-4


def f_row(desc: NetworkDescription, q: list[float]) -> np.ndarray:
    """eval_f on one row of stacked flows."""
    return eval_f(build_network(desc), np.array([q], dtype=float))[0]


def pipe_and_valve(resistance: float, openness: float, mu: float) -> NetworkDescription:
    """Pipe P1 and valve V1 between J1 and J2, both of the given resistance."""
    return dataclasses.replace(make_single_pipe(resistance, mu),
                               valves=[ValveDesc("V1", "J1", "J2", resistance, openness)])


def reference_f(desc: NetworkDescription, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The head-loss laws entry by entry in scalar math.pow, the oracle for
    eval_f, and each entry's term scale |offset| + |power term|."""
    mu = desc.headloss_exponent
    n_p, n_m = len(desc.pipes), len(desc.pumps)
    pipes, pumps, valves = q[:n_p], q[n_p:n_p + n_m], q[n_p + n_m:]
    terms = [(0.0, p.resistance * x * math.pow(abs(x), mu - 1.0))
             for p, x in zip(desc.pipes, pipes)]
    terms += [(-m.speed * m.speed * m.shutoff_head,
               m.curve_coeff * math.pow(x, m.curve_exponent)
               * math.pow(m.speed, 2.0 - m.curve_exponent))
              for m, x in zip(desc.pumps, pumps)]
    terms += [(0.0, v.openness * (v.resistance * x * math.pow(abs(x), mu - 1.0)))
              for v, x in zip(desc.valves, valves)]
    offset, power_term = np.array(terms).T
    return offset + power_term, np.abs(offset) + np.abs(power_term)


class TestScalarOps:
    def test_pipe_sign_symmetry(self):
        assert f_row(make_single_pipe(1.0, 2.0), [-3.0])[0] == -9.0
        assert f_row(make_single_pipe(1.0, 2.0), [3.0])[0] == 9.0

    def test_pipe_linear_case(self):
        assert f_row(make_single_pipe(1.0, 1.0), [5.0])[0] == 5.0

    def test_pipe_oracle_value(self):
        assert mp_pipe(2.346e-6, 1.852, 100.0) == pytest.approx(PIPE_AT_100, rel=1e-15)
        assert f_row(make_single_pipe(2.346e-6, 1.852), [100.0])[0] == pytest.approx(
            PIPE_AT_100, rel=1e-13)

    def test_pipe_odd_in_q(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r, mu, q = rng.lognormal(0, 2), rng.uniform(1, 3), rng.uniform(0.01, 1e4)
            net = build_network(make_single_pipe(float(r), float(mu)))
            minus, plus = eval_f(net, np.array([[-q], [q]]))[:, 0]
            assert minus == -plus

    def test_pump_hand_value(self):
        assert f_row(make_single_pump(10.0, 1.0, 2.0, 1.0), [3.0])[0] == pytest.approx(-1.0)

    def test_pump_zero_headgain_root(self):
        q = (16.0 / 1.0) ** (1 / 2.0)
        assert f_row(make_single_pump(16.0, 1.0, 2.0, 1.0), [q])[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_pump_oracle_value(self):
        assert mp_pump(393.7008, 3.746e-6, 2.59, 1.0, 500.0) == pytest.approx(
            PUMP_AT_500, rel=1e-15)
        assert f_row(make_single_pump(393.7008, 3.746e-6, 2.59, 1.0), [500.0])[0] == \
            pytest.approx(PUMP_AT_500, rel=1e-13)

    def test_pump_rejects_nonpositive_flow(self):
        net = build_network(make_single_pump(10.0, 1.0, 2.0, 1.0))
        for q in (0.0, -5.0):
            with pytest.raises(NonPositiveFlow):
                eval_f(net, np.array([q]))

    def test_valve_identity_openness(self):
        desc = pipe_and_valve(2.0, 1.0, 1.852)
        for q in (-7.0, 0.0, 2.5):
            pipe, valve = f_row(desc, [q, q])
            assert valve == pipe

    def test_valve_hand_value(self):
        assert f_row(pipe_and_valve(1.0, 0.5, 2.0), [0.0, 4.0])[1] == pytest.approx(8.0)

    def test_valve_oracle_value(self):
        assert 0.37 * mp_pipe(2.0, 1.852, -4.0) == pytest.approx(VALVE_AT_MINUS4, rel=1e-15)
        assert f_row(pipe_and_valve(2.0, 0.37, 1.852), [0.0, -4.0])[1] == pytest.approx(
            VALVE_AT_MINUS4, rel=1e-13)


def make_benchmark_pair() -> NetworkDescription:
    """One pipe + one pump with the benchmark scalar parameters (mu=1.852)."""
    return NetworkDescription(
        headloss_exponent=1.852,
        junctions=[JunctionDesc("J1", 0.0, 500.0)],
        reservoirs=[ReservoirDesc("R1", 700.0)],
        tanks=[TankDesc("T1", 850.0, 15.0, 1963.4954084936207)],
        pipes=[PipeDesc("P1", "J1", "T1", 2.346e-6)],
        pumps=[PumpDesc("PU1", "R1", "J1", 393.7008, 3.746e-6, 2.59, 1.0)],
        valves=[],
    )


def test_three_node_network_counts(three_node):
    _, net, _ = three_node
    assert net.desc.component_counts() == (1, 1, 1, 1, 1, 0)
    assert net.n_links == 2
    assert net.link_ids == ("P1", "PU1")


def test_link_columns_follow_stacked_order(valve_net):
    _, net, _ = valve_net
    assert net.link_ids == ("P1", "P2", "PU1", "PU2", "V1", "V2")
    assert net.kinds == ("pipe", "pipe", "pump", "pump", "valve", "valve")
    # heads: J1 J2 J3 | R1 | T1
    assert net.from_pos.tolist() == [0, 1, 3, 3, 0, 1]
    assert net.to_pos.tolist() == [4, 0, 0, 1, 1, 2]
    for column in (net.from_pos, net.to_pos):
        assert column.dtype == np.int64
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


def test_table_columns_are_read_only(valve_net):
    _, net, _ = valve_net
    for name in ("f_offset", "f_coef", "deriv_coef", "deriv_expo", "deriv_post", "tank_area"):
        column = getattr(net, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[0] = -1.0


def test_built_network_cannot_be_rebound(three_node):
    # a fresh network, so a guard that failed would not spoil the fixture's
    desc, _, box = three_node
    net = build_network(desc)
    k = k_network(net, box).value
    for name, value in (("deriv_coef", np.ones(net.n_links)), ("desc", desc),
                        ("n_links", 0), ("unknown", 1)):
        with pytest.raises(AttributeError, match=f"read-only: cannot set '{name}'"):
            setattr(net, name, value)
    with pytest.raises(AttributeError, match="read-only: cannot delete 'deriv_coef'"):
        del net.deriv_coef
    with pytest.raises(TypeError):
        net.node_pos["extra"] = net.n_junctions
    assert k_network(net, box).value == k


class TestBuildNetworkValidation:
    """A description built directly gets parse_inp's checks where it is made."""

    def test_undeclared_endpoint_is_typed(self):
        pipe = PipeDesc("P1", "J1", "NOWHERE", 1.0)
        with pytest.raises(UnknownNodeRef) as err:
            dataclasses.replace(make_single_pipe(), pipes=[pipe])
        assert (err.value.node_id, err.value.link_id) == ("NOWHERE", "P1")

    def test_duplicate_link_id_rejected(self):
        # two links under one id would share one bounds row
        pipe = PipeDesc("P1", "J1", "J2", 1.0)
        with pytest.raises(DuplicateId):
            build_network(dataclasses.replace(make_single_pipe(), pipes=[pipe, pipe]))

    @pytest.mark.parametrize("resistance", [-1.0, float("nan")])
    def test_nonpositive_resistance_rejected(self, resistance):
        with pytest.raises(ParameterOutOfRange):
            build_network(make_single_pipe(resistance=resistance))

    def test_exponent_outside_one_to_three_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            build_network(make_single_pipe(mu=5.0))

    # finite parameters whose table product overflows: mu * R, the pump's
    # s**(2 - nu) (libm's pow raises for it), nu * r and mu * o * R; a pump
    # parameter that is itself infinite is the description's check
    @pytest.mark.parametrize("kind, link", [
        ("pipe", PipeDesc("P1", "J1", "T1", 1.29e308)),
        ("pump", PumpDesc("PU1", "R1", "J1", 393.7008, 3.746e-6, 3.0, 5e-324)),
        ("pump", PumpDesc("PU1", "R1", "J1", 393.7008, 1e308, 2.59, 1.0)),
        ("valve", ValveDesc("V1", "J1", "T1", 1.2e308, 1.0)),
    ])
    def test_overflowing_table_entry_rejected(self, kind, link):
        desc = dataclasses.replace(make_benchmark_pair(), **{f"{kind}s": [link]})
        with pytest.raises(ParameterOutOfRange, match=f"^{kind} '{link.id}': a derivative-"
                                                      "table entry overflows a float$"):
            build_network(desc)

    @pytest.mark.parametrize("field", ["shutoff_head", "curve_coeff"])
    def test_infinite_pump_parameter_rejected(self, field):
        pump = dataclasses.replace(make_benchmark_pair().pumps[0], **{field: math.inf})
        with pytest.raises(ParameterOutOfRange, match="^pump 'PU1': .* is not finite$"):
            dataclasses.replace(make_benchmark_pair(), pumps=[pump])

    def test_infinite_tank_area_rejected(self):
        # an infinite area drops every flow coupling from the tank's DAE row
        # and leaves its head unchanged by tank_step
        with pytest.raises(ParameterOutOfRange, match="cross-section area is not finite"):
            build_network(make_tank_chain(area=math.inf))


class TestEvalF:
    def test_pair_network_composition(self):
        net = build_network(make_benchmark_pair())
        f = eval_f(net, np.array([100.0, 500.0]))
        assert f[0] == pytest.approx(PIPE_AT_100, rel=1e-13)
        assert f[1] == pytest.approx(PUMP_AT_500, rel=1e-13)

    def test_zero_pipe_flow_and_pump_at_zero_gain_flow(self):
        net = build_network(make_benchmark_pair())
        q_zero_gain = math.pow(393.7008 / 3.746e-6, 1 / 2.59)
        f = eval_f(net, np.array([0.0, q_zero_gain]))
        assert f[0] == 0.0
        assert f[1] == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=None)
    def test_matches_scalar_ops_everywhere(self, valve_net, seed):
        # seed None is valve_net; make_random_network covers every exponent,
        # valves and pump speeds other than 1
        if seed is None:
            _, net, box = valve_net
            rng = np.random.default_rng(11)
        else:
            rng = np.random.default_rng(seed)
            net, box = make_random_network(rng)
        q = sample_interior(box, 50, rng)
        batch = eval_f(net, q)
        for row in range(q.shape[0]):
            expected, scale = reference_f(net.desc, q[row])
            assert np.all(np.abs(batch[row] - expected) <= 2e-15 * scale)
        # pipes and valves are exactly odd in q
        pipe_valve = [i for i, kind in enumerate(net.kinds) if kind != "pump"]
        mirrored = q.copy()
        mirrored[:, pipe_valve] *= -1.0
        assert np.array_equal(eval_f(net, mirrored)[:, pipe_valve],
                              -batch[:, pipe_valve])

    def test_pump_positivity_enforced(self, valve_net):
        _, net, _ = valve_net
        q = np.array([0.0, 0.0, 5.0, -1.0, 3.0, 3.0])
        message = r"^pump 'PU2': flow must be > 0, got -1\.0$"
        for evaluate in (eval_f, eval_jacobian_diag):
            with pytest.raises(NonPositiveFlow, match=message):
                evaluate(net, q)

    def test_rows_match_one_point_calls(self, valve_net):
        _, net, box = valve_net
        q = sample_interior(box, 20, np.random.default_rng(3))
        for evaluate in (eval_f, eval_jacobian_diag):
            rows = evaluate(net, q)
            assert rows.shape == q.shape
            for i in range(q.shape[0]):
                assert np.array_equal(rows[i], evaluate(net, q[i]))
        assert np.array_equal(eval_jacobian_diag(net, q), jacobian_diag_batch(net, q))

    def test_batch_has_the_bits_of_the_whole_table_expression(self, valve_net):
        # only the pump columns are multiplied by their post (PU2's speed is
        # 0.8); a pipe's and a valve's post is 1.0
        _, net, box = valve_net
        q = sample_interior(box, 20, np.random.default_rng(5))
        want = np.abs(q) ** net.deriv_expo * net.deriv_coef * net.deriv_post
        assert np.array_equal(jacobian_diag_batch(net, q).view(np.uint64), want.view(np.uint64))

    def test_rows_name_the_first_bad_pump_in_row_major_order(self, valve_net):
        # PU1 (column 2) fails in a later row than PU2 (column 3)
        _, net, _ = valve_net
        q = np.array([[1.0, 1.0, 5.0, 1.0, 3.0, 3.0],
                      [1.0, 1.0, 5.0, -2.0, 3.0, 3.0],
                      [1.0, 1.0, -1.0, 1.0, 3.0, 3.0]])
        for evaluate in (eval_f, eval_jacobian_diag):
            with pytest.raises(NonPositiveFlow) as err:
                evaluate(net, q)
            assert err.value.link_id == "PU2"
            assert str(err.value) == "pump 'PU2': flow must be > 0, got -2.0"

    @pytest.mark.parametrize("q, error, message", [
        ([0.0, 0.0, 0.0, 0.0, 3.0, 3.0], NonPositiveFlow,
         "pump 'PU1': flow must be > 0, got 0.0"),
        ([0.0, math.nan, 5.0, -1.0, 3.0, 3.0], ValueError, "flow entries must be finite"),
        ([[1.0, 1.0, 5.0, 1.0, 3.0, 3.0], [0.0, 0.0, math.inf, 1.0, 3.0, 3.0]], ValueError,
         "flow entries must be finite"),
        ([0.0] * 5, ValueError, "expected 6 flows, got shape (5,)"),
        (1.0, ValueError, "expected 6 flows, got shape ()"),
        ([[[0.0] * 6]], ValueError, "expected 6 flows, got shape (1, 1, 6)"),
    ], ids=["pump-zero", "nan", "inf-in-rows", "short", "scalar", "3-d"])
    def test_evaluators_reject_bad_flows(self, valve_net, q, error, message):
        _, net, _ = valve_net
        for evaluate in (eval_f, eval_jacobian_diag):
            with pytest.raises(error) as err:
                evaluate(net, np.array(q))
            assert type(err.value) is error
            assert str(err.value) == message


class TestJacobian:
    def test_pipe_entry(self):
        net = build_network(make_benchmark_pair())
        d = eval_jacobian_diag(net, np.array([-3.0, 1.0]))
        # d/dq of q|q|^(mu-1) = mu |q|^(mu-1)
        assert d[0] == pytest.approx(1.852 * 2.346e-6 * 3.0 ** 0.852, rel=1e-12)

    def test_quadratic_pipe_entry_is_2q(self):
        from conftest import make_single_pipe
        net = build_network(make_single_pipe(resistance=1.0, mu=2.0))
        d = eval_jacobian_diag(net, np.array([-3.0]))
        assert d[0] == pytest.approx(6.0)

    def test_linear_pump_entry(self):
        desc = dataclasses.replace(
            make_benchmark_pair(), pumps=[PumpDesc("PU1", "R1", "J1", 393.7008, 1.0, 1.0, 0.5)])
        net = build_network(desc)
        d = eval_jacobian_diag(net, np.array([1.0, 123.0]))
        assert d[1] == pytest.approx(0.5)  # nu=1 gives r*s

    def test_entries_nonnegative(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(5)
        g = jacobian_diag_batch(net, sample_interior(box, 100, rng))
        assert np.all(g >= 0.0)

    def test_finite_difference_agreement(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(13)
        q = sample_interior(box, 200, rng)
        analytic = jacobian_diag_batch(net, q)
        h = 6e-6 * np.maximum(np.abs(q), 1e-3 * (box.hi - box.lo))
        fd = np.empty_like(analytic)
        for i in range(net.n_links):
            qp, qm = q.copy(), q.copy()
            qp[:, i] += h[:, i]
            qm[:, i] -= h[:, i]
            fd[:, i] = (eval_f(net, qp)[:, i] - eval_f(net, qm)[:, i]) \
                / (2 * h[:, i])
        rel = np.abs(fd - analytic) / np.abs(analytic)
        assert rel.max() <= 1e-6

    def test_diagonality_cross_perturbation(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(17)
        q = sample_interior(box, 30, rng)
        f0 = eval_f(net, q)
        for j in range(net.n_links):
            shifted = q.copy()
            room = (box.hi[j] - q[:, j]) * 0.5
            shifted[:, j] += room
            f1 = eval_f(net, shifted)
            others = [i for i in range(net.n_links) if i != j]
            assert np.array_equal(f1[:, others], f0[:, others])


def make_tank_chain(area: float) -> NetworkDescription:
    return NetworkDescription(
        headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[],
        tanks=[TankDesc("T1", 100.0, 5.0, area)],
        pipes=[PipeDesc("P1", "J1", "T1", 1e-6),
               PipeDesc("P2", "T1", "J2", 1e-6)],
        pumps=[],
        valves=[],
    )


class TestTankStep:
    def test_hand_value(self):
        net = build_network(make_tank_chain(area=100.0))
        q = np.array([5.0, 2.0])
        h1 = tank_step(net, np.array([50.0]), q, dt=10.0)
        assert h1[0] == pytest.approx(50.3)

    def test_zero_net_flow_conserves_head(self):
        net = build_network(make_tank_chain(area=77.0))
        q = np.array([4.0, 4.0])
        h1 = tank_step(net, np.array([31.5]), q, dt=60.0)
        assert h1[0] == 31.5

    def test_two_steps_equal_one_double_step(self):
        net = build_network(make_tank_chain(area=200.0))
        q = np.array([9.0, 3.5])
        h0 = np.array([40.0])
        two = tank_step(net, tank_step(net, h0, q, dt=30.0), q, dt=30.0)
        one = tank_step(net, h0, q, dt=60.0)
        assert two[0] == pytest.approx(one[0], rel=1e-14)

    def test_wrong_length_heads_rejected(self):
        net = build_network(make_tank_chain(area=100.0))
        with pytest.raises(ValueError, match=r"^tank head vector length mismatch$"):
            tank_step(net, np.array([50.0, 1.0]), np.array([5.0, 2.0]), dt=10.0)


class TestJunctionResidual:
    def test_balanced_junction(self):
        desc = make_benchmark_pair()
        net = build_network(desc)
        # pump 7 in, pipe 4 out, demand 3 -> balanced
        q = np.array([4.0, 7.0])
        res = junction_residual(net, q, np.array([3.0]))
        assert res[0] == 0.0

    def test_wrong_length_demand_rejected(self):
        net = build_network(make_tank_chain(area=50.0))
        with pytest.raises(ValueError, match=r"^demand vector length mismatch$"):
            junction_residual(net, np.zeros(2), np.zeros(3))

    def test_zero_flows_zero_demand(self):
        net = build_network(make_tank_chain(area=50.0))
        q = np.zeros(2)
        res = junction_residual(net, q, np.zeros(2))
        assert np.array_equal(res, np.zeros(2))

    def test_negation_linearity(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(23)
        q = sample_interior(box, 1, rng)[0]
        demand = rng.uniform(-5, 5, net.n_junctions)
        res = junction_residual(net, q, demand)
        neg = junction_residual(net, -q, -demand)
        assert np.allclose(neg, -res, rtol=1e-13, atol=1e-12)

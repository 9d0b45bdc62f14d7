from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, power

from wdn_lipschitz import (
    BoundsError,
    build_network,
    eval_f,
    jacobian_diag_batch,
    k_network,
    k_upper_sqrt,
)
from wdn_lipschitz.analytical import corner_derivatives
from wdn_lipschitz.inp import (
    JunctionDesc,
    NetworkDescription,
    PumpDesc,
    ReservoirDesc,
)

from conftest import (
    make_box,
    make_random_network,
    make_single_pipe,
    make_valve_network,
    reference_link_derivative,
)

mp.dps = 50

# frozen oracles
K_VALVE_CASE = 4.465065300145875        # 1.852 * 0.37 * 2 * 4**0.852
PUMP_SHORTCUT_CASE = 0.86287657322763241  # 2.59 * 3.746e-6 * 922.5**1.59 * 0.4**-0.59


def single_pipe_box(resistance, mu, lo, hi):
    net = build_network(make_single_pipe(resistance, mu))
    return net, make_box(net, {"P1": (lo, hi)})


def pump_only_net(pumps: list[PumpDesc]):
    desc = NetworkDescription(
        flow_units="GPM", headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0)],
        reservoirs=[ReservoirDesc("R1", 0.0)],
        tanks=[], pipes=[], pumps=pumps, valves=[],
    )
    return build_network(desc)


class TestKPipes:
    def test_unit_quadratic(self):
        net, box = single_pipe_box(1.0, 2.0, -1.0, 1.0)
        assert k_network(net, box).per_class["pipes"] == 2.0

    def test_linear_exponent_gives_resistance(self):
        net, box = single_pipe_box(7.25, 1.0, -123.0, 45.0)
        assert k_network(net, box).per_class["pipes"] == 7.25

    def test_three_node_value(self, three_node):
        _, net, box = three_node
        assert k_network(net, box).per_class["pipes"] == pytest.approx(0.004, abs=5e-4)

    def test_uses_largest_magnitude_endpoint(self):
        net, box = single_pipe_box(1.0, 2.0, -5.0, 2.0)
        assert k_network(net, box).per_class["pipes"] == 10.0

    def test_empty_class_contributes_zero(self):
        net = pump_only_net([PumpDesc("PU1", "R1", "J1", 16.0, 1.0, 2.0, 1.0)])
        box = make_box(net, {"PU1": (1.0, 4.0)})
        assert k_network(net, box).per_class["pipes"] == 0.0
        assert k_network(net, box).per_class["valves"] == 0.0


class TestKPumps:
    def test_linear_pump_is_speed_times_coeff(self):
        net = pump_only_net([PumpDesc("PU1", "R1", "J1", 100.0, 2.0, 1.0, 0.5)])
        for hi in (3.0, 300.0):
            box = make_box(net, {"PU1": (1.0, hi)})
            assert k_network(net, box).per_class["pumps"] == pytest.approx(1.0)

    def test_quadratic_pump_ignores_speed(self):
        for s in (0.3, 1.0):
            net = pump_only_net([PumpDesc("PU1", "R1", "J1", 100.0, 0.5, 2.0, s)])
            box = make_box(net, {"PU1": (1.0, 10.0)})
            assert k_network(net, box).per_class["pumps"] == pytest.approx(10.0)

    def test_three_node_value(self, three_node):
        _, net, box = three_node
        assert k_network(net, box).per_class["pumps"] == pytest.approx(0.5023, abs=5e-4)


class TestKValves:
    def test_full_open_equals_pipe_constant(self):
        from wdn_lipschitz.inp import ValveDesc
        mu = 1.852
        desc = make_valve_network()
        desc = replace(desc, valves=[ValveDesc("V1", "J1", "J2", 4.0e-5, 1.0), desc.valves[1]])
        net = build_network(desc)
        table = {link_id: (1.0, 250.0) for link_id in net.link_ids}
        table["V1"] = (-30.0, 44.0)
        box = make_box(net, table)
        pipe_net, pipe_box = single_pipe_box(4.0e-5, mu, -30.0, 44.0)
        got = k_network(net, box).per_class["valves"]
        v2 = 1.852 * 1.0 * 8.0e-5 * math.pow(250.0, 0.852)
        pipe_k = k_network(pipe_net, pipe_box).per_class["pipes"]
        assert got == pytest.approx(max(pipe_k, v2), rel=1e-12)

    def test_half_open_hand_value(self):
        from wdn_lipschitz.inp import ValveDesc
        desc = replace(make_single_pipe(1.0, 2.0), valves=[ValveDesc("V1", "J1", "J2", 1.0, 0.5)])
        net = build_network(desc)
        box = make_box(net, {"P1": (0.0, 0.0), "V1": (0.0, 3.0)})
        assert k_network(net, box).per_class["valves"] == pytest.approx(3.0)

    def test_oracle_value(self):
        exact = mpf("1.852") * mpf("0.37") * 2 * power(4, mpf("0.852"))
        assert float(exact) == pytest.approx(K_VALVE_CASE, rel=1e-15)
        from wdn_lipschitz.inp import ValveDesc
        desc = replace(make_single_pipe(1.0, 1.852),
                       valves=[ValveDesc("V1", "J1", "J2", 2.0, 0.37)])
        net = build_network(desc)
        box = make_box(net, {"P1": (0.0, 0.0), "V1": (-4.0, 2.0)})
        assert k_network(net, box).per_class["valves"] == pytest.approx(K_VALVE_CASE, rel=1e-13)


class TestKNetwork:
    def test_three_node_is_pump_dominated(self, three_node):
        _, net, box = three_node
        est = k_network(net, box)
        assert est.value == pytest.approx(0.5023, abs=5e-4)
        assert est.value == max(est.per_class.values())
        assert est.value == est.per_class["pumps"]
        assert est.method == "analytical"
        assert est.gap is None

    def test_per_class_is_read_only(self, three_node):
        _, net, box = three_node
        est = k_network(net, box)
        doc = est.to_dict()
        with pytest.raises(TypeError):
            est.per_class["pumps"] = -1.0
        assert est.to_dict() == doc

    def test_pipe_only_network(self):
        net, box = single_pipe_box(3.0, 2.0, -2.0, 1.0)
        est = k_network(net, box)
        assert est.value == k_network(net, box).per_class["pipes"] == 12.0

    def test_scaling_homogeneity(self, valve_net):
        desc, _, box = valve_net
        net = build_network(desc)
        base = k_network(net, box).value
        c = 3.7
        scaled_desc = replace(
            desc,
            pipes=[replace(p, resistance=c * p.resistance) for p in desc.pipes],
            pumps=[replace(m, curve_coeff=c * m.curve_coeff) for m in desc.pumps],
            valves=[replace(v, resistance=c * v.resistance) for v in desc.valves],
        )
        scaled = build_network(scaled_desc)
        scaled_box = make_box(
            scaled, {lid: (float(lo), float(hi))
                     for lid, lo, hi in zip(box.link_ids, box.lo, box.hi)})
        assert k_network(scaled, scaled_box).value == pytest.approx(c * base, rel=1e-12)

    def test_monotone_in_box_enlargement(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            net, box = make_random_network(rng)
            base = k_network(net, box).value
            i = int(rng.integers(0, net.n_links))
            lo, hi = box.lo.copy(), box.hi.copy()
            hi[i] += float(rng.uniform(0, 2) * (1 + abs(hi[i])))
            if net.kinds[i] != "pump" and rng.random() < 0.5:
                lo[i] -= float(rng.uniform(0, 2) * (1 + abs(lo[i])))
            bigger = make_box(
                net, {link_id: (float(lo[k]), float(hi[k]))
                      for k, link_id in enumerate(net.link_ids)})
            assert k_network(net, bigger).value >= base

    def test_class_independence(self, valve_net):
        desc, net, box = valve_net
        base = k_network(net, box).per_class["pipes"]
        tweaked = replace(
            desc,
            pumps=[replace(m, curve_coeff=9 * m.curve_coeff) for m in desc.pumps],
            valves=[replace(v, resistance=5 * v.resistance) for v in desc.valves],
        )
        net2 = build_network(tweaked)
        box2 = make_box(
            net2, {lid: (float(lo), float(hi))
                   for lid, lo, hi in zip(box.link_ids, box.lo, box.hi)})
        assert k_network(net2, box2).per_class["pipes"] == base


    def test_overflowing_box_is_a_bounds_error(self, three_node):
        _, net, _ = three_node
        # the pump's pow overflows in the corner pass
        box = make_box(net, {"P1": (1.0, 1e300), "PU1": (1.0, 1e300)})
        with pytest.raises(BoundsError, match="'PU1'.*overflows"):
            k_network(net, box)
        # every corner value is finite, but the sum of their squares is not
        box = make_box(net, {"P1": (1.0, 1e200), "PU1": (1.0, 1e120)})
        assert math.isfinite(k_network(net, box).value)
        with pytest.raises(BoundsError, match="overflows"):
            k_upper_sqrt(net, box)


class TestDerivativeTable:
    """corner_derivatives reads one per-link table with no branch on link
    class; the per-class formula is the reference, and every value keeps
    its bits."""

    @staticmethod
    def assert_matches_reference(net, magnitudes):
        expected = [reference_link_derivative(net, pos, m).hex()
                    for pos, m in enumerate(magnitudes)]
        assert [v.hex() for v in corner_derivatives(net, magnitudes)] == expected

    def test_fixtures(self, fixtures):
        for _, net, box in fixtures.values():
            self.assert_matches_reference(net, box.corner_magnitudes())

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 1.0))
    def test_random_networks(self, seed, t):
        net, box = make_random_network(np.random.default_rng(seed))
        self.assert_matches_reference(net, box.corner_magnitudes())
        self.assert_matches_reference(net, np.abs(box.lo + t * (box.hi - box.lo)).tolist())


class TestOsl:
    def test_diag_log_norm_limit_oracle(self):
        # eta_2(D) = lim (||I + eps D||_2 - 1)/eps for D the Jacobian diagonal
        # at the box corner, where every entry attains its supremum
        rng = np.random.default_rng(53)
        for _ in range(20):
            net, box = make_random_network(rng)
            corner = np.where(np.abs(box.lo) > np.abs(box.hi), box.lo, box.hi)
            d = jacobian_diag_batch(net, corner[None, :])[0]
            scale = float(np.max(np.abs(d)))
            eps = 1e-9 / scale
            m = np.eye(len(d)) + eps * np.diag(d)
            numeric = (np.linalg.norm(m, 2) - 1.0) / eps
            assert k_network(net, box).value == pytest.approx(numeric, rel=1e-5)


class TestPumpShortcut:
    """The pump class constant over pumps that share (r, nu) picks the
    extremal speed: s_max for nu <= 2 (exponent 2 - nu >= 0) and s_min for
    nu > 2."""

    def test_exponent_two_ignores_speed(self):
        net = pump_only_net([PumpDesc("A", "R1", "J1", 1e4, 0.5, 2.0, 0.2),
                             PumpDesc("B", "R1", "J1", 1e4, 0.5, 2.0, 0.9)])
        box = make_box(net, {"A": (1.0, 100.0), "B": (1.0, 100.0)})
        assert k_network(net, box).per_class["pumps"] == pytest.approx(100.0)

    def test_low_exponent_uses_max_speed(self):
        net = pump_only_net([PumpDesc("A", "R1", "J1", 1e4, 1.0, 1.5, 0.4),
                             PumpDesc("B", "R1", "J1", 1e4, 1.0, 1.5, 1.0)])
        box = make_box(net, {"A": (1.0, 9.0), "B": (1.0, 9.0)})
        assert k_network(net, box).per_class["pumps"] == pytest.approx(
            1.5 * math.pow(9.0, 0.5) * 1.0)

    def test_oracle_value_and_cross_check(self):
        exact = mpf("2.59") * mpf("3.746e-6") * power(mpf("922.5"), mpf("1.59")) \
            * power(mpf("0.4"), mpf("-0.59"))
        assert float(exact) == pytest.approx(PUMP_SHORTCUT_CASE, rel=1e-15)
        # two pumps sharing (r, nu) = (3.746e-6, 2.59): the slower one dominates
        net = pump_only_net([
            PumpDesc("A", "R1", "J1", 393.7008, 3.746e-6, 2.59, 0.4),
            PumpDesc("B", "R1", "J1", 393.7008, 3.746e-6, 2.59, 1.0),
        ])
        box = make_box(net, {"A": (1.0, 922.5), "B": (1.0, 922.5)})
        assert k_network(net, box).per_class["pumps"] == pytest.approx(
            PUMP_SHORTCUT_CASE, rel=1e-13)


class TestDerivativeSupremumIdentity:
    """Closed forms equal dense-grid maxima of |df/dq| (compact version;
    the acceptance suite runs the full 1e5-point grids)."""

    def test_grid_maximum_matches(self, valve_net):
        _, net, box = valve_net
        grid_best = {"pipes": 0.0, "pumps": 0.0, "valves": 0.0}
        for pos, kind in enumerate(net.kinds):
            qs = np.linspace(box.lo[pos], box.hi[pos], 10_001)
            if kind == "pump":
                qs = qs[qs > 0]
            col = np.zeros((len(qs), net.n_links))
            col[:, pos] = qs
            col[:, [i for i, k in enumerate(net.kinds) if k == "pump"]] += 1e-9
            col[:, pos] = qs
            g = jacobian_diag_batch(net, col)[:, pos]
            key = {"pipe": "pipes", "pump": "pumps", "valve": "valves"}[kind]
            grid_best[key] = max(grid_best[key], float(np.max(np.abs(g))))
        est = k_network(net, box)
        for key in grid_best:
            if est.per_class[key]:
                assert grid_best[key] == pytest.approx(est.per_class[key], rel=1e-9)

    def test_lipschitz_inequality_sampled(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(59)
        k = k_network(net, box).value
        t1 = rng.uniform(0, 1, (1000, net.n_links))
        t2 = rng.uniform(0, 1, (1000, net.n_links))
        z1 = box.lo + t1 * (box.hi - box.lo)
        z2 = box.lo + t2 * (box.hi - box.lo)
        df = eval_f(net, z1) - eval_f(net, z2)
        dz = z1 - z2
        lhs = np.linalg.norm(df, axis=1)
        rhs = k * np.linalg.norm(dz, axis=1)
        assert np.all(lhs <= rhs + 1e-12 * k)

    def test_osl_inequality_sampled(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(61)
        level = k_network(net, box).value
        t1 = rng.uniform(0, 1, (1000, net.n_links))
        t2 = rng.uniform(0, 1, (1000, net.n_links))
        z1 = box.lo + t1 * (box.hi - box.lo)
        z2 = box.lo + t2 * (box.hi - box.lo)
        df = eval_f(net, z1) - eval_f(net, z2)
        dz = z1 - z2
        inner = np.einsum("ij,ij->i", df, dz)
        norms = np.einsum("ij,ij->i", dz, dz)
        assert np.all(inner <= level * norms + 1e-12 * level)
